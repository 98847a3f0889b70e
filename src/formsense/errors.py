"""The config error, and the one check of a dataclass's declared fields.

A field declares what it accepts in its metadata, written the way the error prints it:
``"interval"`` bounds a number, an integer if the field is annotated ``int``, as in
``field(metadata={"interval": "(0, inf)"})``;
``"choices"`` is a tuple of the strings it may be; ``"shape"`` makes an array field a finite,
read-only float copy of the given shape, as in ``"(M, 2)"``. See check_fields.
Every other error is a plain ValueError; a formation without a CRLB is none (its CRLB is NaN).
"""

from functools import cache
from numbers import Integral, Real
from typing import Any

import numpy as np

# Intervals that several fields share.
POSITIVE = "(0, inf)"
NON_NEGATIVE = "[0, inf)"
FRACTION = "(0, 1]"


class ConfigError(ValueError):
    """A configuration file failed to parse or validate.

    The message is anchored to the offending section/field, e.g.
    ``"gains.epsilon: must lie in (0, inf), got 0.0"``.
    """


@cache
def _ends(interval: str) -> tuple:
    """The two ends of an interval such as "(0, 1]" as floats, a power such as "2^64" as an int."""
    powers = (end.split("^") for end in interval[1:-1].split(","))
    return tuple(int(end[0]) ** int(end[1]) if len(end) == 2 else float(end[0]) for end in powers)


def check_interval(
    name: str, value: Any, interval: str, error: type = ValueError, number: type = Real
) -> None:
    """Raise ``error("{name}: must lie in {interval}, got {value!r}")`` unless ``value`` lies in it.

    A bracket of ``interval``, as in "(0, 1]", includes its end; NaN lies in none. ``value`` must be
    a ``number``: Real, or Integral for an int field, compared as a Python int, so exactly. A bool
    is neither.
    """
    lo, hi = _ends(interval)
    is_number = isinstance(value, number) and not isinstance(value, bool)
    x = int(value) if is_number and number is Integral else value
    above = is_number and (lo < x if interval[0] == "(" else lo <= x)
    if not (above and (x < hi if interval[-1] == ")" else x <= hi)):
        raise error(f"{name}: must lie in {interval}, got {value!r}")


def check_choice(name: str, value: Any, choices: tuple, error: type = ValueError) -> None:
    """Raise ``error("{name}: expected one of {choices}, got {value!r}")`` unless it is one."""
    if not (isinstance(value, str) and value in choices):
        raise error(f"{name}: expected one of {choices}, got {value!r}")


@cache
def _dims(shape: str) -> tuple:
    """The lengths of a shape such as "(M, 2)": ints, and letters that stand for lengths >= 1."""
    return tuple(int(d) if d.isdigit() else d for d in shape[1:-1].replace(" ", "").split(",") if d)


def frozen_array(name: str, value: Any, shape: str, lengths: dict) -> np.ndarray:
    """A finite read-only float copy of ``value`` of the given shape.

    A letter of ``shape`` must have the length ``lengths`` holds for it; a new one is bound there.
    """
    dims, bound = _dims(shape), dict(lengths)
    try:
        array = np.array(value, dtype=float)
    except (TypeError, ValueError, OverflowError):
        array = None
    if (
        array is None
        or array.ndim != len(dims)
        or not all(
            n == (d if isinstance(d, int) else bound.setdefault(d, n)) > 0
            for n, d in zip(array.shape, dims)
        )
        or not np.isfinite(array).all()
    ):
        where = "".join(f" with {d} = {lengths[d]}" for d in dict.fromkeys(dims) if d in lengths)
        got = " ".join(repr(value).split())  # an array's repr on one line
        raise ValueError(f"{name}: expected a finite {shape} array{where}, got {got}")
    lengths.update(bound)
    array.setflags(write=False)
    return array


def check_fields(obj: Any) -> None:
    """Check every declared field of the frozen dataclass ``obj``, and store each array as a copy.

    Raises a ValueError naming ``Class.field`` for the first field outside its interval, not one
    of its choices, or not a finite array of its shape; a field annotated ``int`` must be an integer.
    A letter of a shape is one length shared by every field of ``obj`` that names it.
    """
    lengths: dict[str, int] = {}
    for f in obj.__dataclass_fields__.values():
        if not f.metadata:
            continue
        meta, name, value = f.metadata, f"{type(obj).__name__}.{f.name}", getattr(obj, f.name)
        if "interval" in meta:
            check_interval(name, value, meta["interval"], number=Integral if f.type in (int, "int") else Real)
        elif "choices" in meta:
            check_choice(name, value, meta["choices"])
        elif "shape" in meta:
            object.__setattr__(obj, f.name, frozen_array(name, value, meta["shape"], lengths))
