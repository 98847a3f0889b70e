"""Exception types shared across the package, and the one check of a number's interval.

A dataclass field declares one as ``field(metadata={"interval": "(0, inf)"})``; see check_fields.
"""

from numbers import Real
from typing import Any

# Intervals that several fields share.
POSITIVE = "(0, inf)"
NON_NEGATIVE = "[0, inf)"
FRACTION = "(0, 1]"


class ConfigError(ValueError):
    """A configuration file failed to parse or validate.

    The message is anchored to the offending section/field, e.g.
    ``"gains.epsilon: must lie in (0, inf), got 0.0"``.
    """


class InsufficientAgentsError(ValueError):
    """An operation that needs an isotropic formation was asked for fewer
    than three agents."""


class SingularGeometryError(ValueError):
    """The agent geometry carries no invertible position information
    (e.g. all bearings collinear), so the CRLB is unbounded."""


def check_interval(name: str, value: Any, interval: str, error: type = ValueError) -> None:
    """Raise ``error("{name}: must lie in {interval}, got {value!r}")`` unless ``value`` lies in it.

    A bracket of ``interval``, as in "(0, 1]", includes its end; NaN and non-numbers lie in none.
    """
    lo, hi = map(float, interval[1:-1].split(","))
    above = isinstance(value, Real) and (lo < value if interval[0] == "(" else lo <= value)
    if not (above and (value < hi if interval[-1] == ")" else value <= hi)):
        raise error(f"{name}: must lie in {interval}, got {value!r}")


def check_fields(obj: Any) -> None:
    """Raise a ValueError naming ``Class.field`` for the first field of ``obj`` outside its interval."""
    for f in obj.__dataclass_fields__.values():
        if "interval" in f.metadata:
            check_interval(f"{type(obj).__name__}.{f.name}", getattr(obj, f.name), f.metadata["interval"])
