"""Exception types shared across the package, finite_numbers, the one test
of a finite number, and require, the one check of every numeric setting: a
number inside its interval, an integer where the setting counts something.

Every StreamDagError means invalid input or configuration, and the CLI exits 1
on any of them; an OSError or any other exception is a runtime failure (exit 2).
"""

import math
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


def finite_numbers(values) -> bool:
    """True iff every value is a number, never a bool, finite as a float: an
    integer beyond float range is not, though it compares below inf."""
    values = list(values)
    try:
        return (all(issubclass(kind, Real) and kind is not bool for kind in set(map(type, values)))
                and all(map(math.isfinite, values)))
    except OverflowError:
        return False


def require(name: str, value, interval: str, *, integer: bool = False):
    """ConfigError, naming the setting, unless value is a number inside
    interval, written like "[0, 1]", "(0, inf)" or "(0, inf]": a round
    bracket excludes its end, and either end may be inf.  A number is finite
    as a float (finite_numbers) or infinite, never a bool, and with integer
    set it must be a Python or numpy integer."""
    number = finite_numbers([value]) or value in (-math.inf, math.inf)
    if integer and not (isinstance(value, Integral) and not isinstance(value, bool)):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    lo, hi = (float(end) for end in interval[1:-1].split(","))
    if not (number and (lo <= value if interval[0] == "[" else lo < value)
            and (value <= hi if interval[-1] == "]" else value < hi)):
        raise ConfigError(f"{name} must be in {interval}, got {value!r}")
