"""Every domain field that declares an interval, at and just outside its ends.

A field declares its range as ``field(metadata={"interval": ...})``. The
table below builds one valid instance of each type that declares one; every
case replaces one field and checks the one message the checker prints.
"""

import dataclasses
import math

import numpy as np
import pytest

import formsense
from formsense import (
    BenchmarkSpec,
    ControlGains,
    Guidance,
    SensingParams,
    SwarmState,
    TargetEstimate,
    World,
)
from formsense.config import SCHEMA
from formsense.world import GUIDANCE_MODES
from test_config import interval_ends

# Keyword arguments of one valid instance of each type with declared intervals.
VALID = {
    SensingParams: dict(
        transmit_power_w=0.1, processing_gain=1.0e3, ref_channel_power_m4=1.0e-5,
        kappa=1.0, noise_floor_w=1.0e-12, altitude_m=20.0,
    ),
    BenchmarkSpec: dict(kind="line"),
    ControlGains: {},
    World: dict(target=TargetEstimate(np.array([80.0, 90.0]))),
    Guidance: {},
    SwarmState: dict(positions=np.zeros((3, 2)), velocity_estimates=np.zeros((3, 2))),
}
DECLARED = [
    (cls, f.name, f.metadata["interval"])
    for cls in VALID
    for f in dataclasses.fields(cls)
    if "interval" in f.metadata
]


def cases():
    """(cls, field, interval, value, accepted): NaN, +-inf, and each finite end and one step outside it."""
    for cls, name, interval in DECLARED:
        for value in (math.nan, math.inf, -math.inf):
            yield cls, name, interval, value, False
        kind = int if isinstance(cls.__dataclass_fields__[name].default, int) else float
        for value, accepted in interval_ends(kind, interval):
            yield cls, name, interval, value, accepted


def test_every_declaring_type_is_in_the_table():
    modules = (
        formsense.benchmarks, formsense.config, formsense.control, formsense.formation,
        formsense.sensing, formsense.world,
    )
    declaring = {
        obj
        for module in modules
        for obj in vars(module).values()
        if isinstance(obj, type) and dataclasses.is_dataclass(obj)
        and any("interval" in f.metadata for f in dataclasses.fields(obj))
    }
    assert declaring == set(VALID)


@pytest.mark.parametrize(
    "cls, name, interval, value, accepted",
    list(cases()),
    ids=lambda x: x.__name__ if isinstance(x, type) else repr(x),
)
def test_interval_ends(cls, name, interval, value, accepted):
    kwargs = {**VALID[cls], name: value}
    if accepted:
        assert getattr(cls(**kwargs), name) == value
    else:
        with pytest.raises(ValueError) as info:
            cls(**kwargs)
        assert str(info.value) == f"{cls.__name__}.{name}: must lie in {interval}, got {value!r}"


def test_a_value_that_is_not_a_number_is_out_of_range():
    with pytest.raises(ValueError, match=r"ControlGains.epsilon: must lie in \(0, inf\), got 'x'"):
        ControlGains(epsilon="x")


def test_config_reads_the_guidance_modes_guidance_checks():
    assert SCHEMA["guidance"]["mode"][0] is GUIDANCE_MODES
    for mode in GUIDANCE_MODES:
        Guidance(mode=mode)
