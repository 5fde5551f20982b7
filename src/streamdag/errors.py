"""Exception types shared across the package, and require, the one check of
every numeric setting: a number, never a bool, inside its interval, and an
integer where the setting counts something.

Every StreamDagError means invalid input or configuration, and the CLI exits 1
on any of them; an OSError or any other exception is a runtime failure (exit 2).
"""

from numbers import Integral, Real


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


def require(name: str, value, interval: str, *, integer: bool = False):
    """ConfigError, naming the setting, unless value is a number inside
    interval, written like "[0, 1]", "(0, inf)" or "(0, inf]": a round
    bracket excludes its end, and either end may be inf.  With integer set
    the value must be a Python or numpy integer.  A bool is never a number."""
    number = isinstance(value, Real) and not isinstance(value, bool)
    if integer and not (number and isinstance(value, Integral)):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    lo, hi = (float(end) for end in interval[1:-1].split(","))
    if not (number and (lo <= value if interval[0] == "[" else lo < value)
            and (value <= hi if interval[-1] == "]" else value < hi)):
        raise ConfigError(f"{name} must be in {interval}, got {value!r}")
