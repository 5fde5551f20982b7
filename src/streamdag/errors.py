"""Exception types shared across the package, and the integer check of the
configurations.

Every StreamDagError means invalid input or configuration, and the CLI exits 1
on any of them; an OSError or any other exception is a runtime failure (exit 2).
"""

from numbers import Integral


class StreamDagError(Exception):
    """Base class for all streamdag errors."""


class InvalidActionError(StreamDagError):
    """Action vector has the wrong length or non-finite entries."""


class CyclicGraphError(StreamDagError):
    """Operation requires an acyclic graph but received a cyclic one."""


class DimensionMismatchError(StreamDagError):
    """Inputs that must share a dimension do not."""


class InsufficientDataError(StreamDagError):
    """Too few observations for the requested computation."""


class DataRangeError(StreamDagError):
    """Batch values that are not finite, or whose sums or products overflow float64."""


class SchemaError(StreamDagError):
    """Malformed stream or results input; the message starts with the
    offending line number, or a label such as "sidecar entry 3", if given."""

    def __init__(self, message: str, line: int | str | None = None):
        if line is not None:
            message = f"{f'line {line}' if isinstance(line, int) else line}: {message}"
        super().__init__(message)


class ConfigError(StreamDagError):
    """Invalid configuration value."""


class GenerationError(StreamDagError):
    """Synthetic generation could not satisfy its constraints."""


def require_integers(**values):
    """ConfigError for the first value that is not a Python or numpy integer
    (a bool is not one), named by its keyword."""
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, Integral):
            raise ConfigError(f"{name} must be an integer, got {value!r}")
