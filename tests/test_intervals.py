"""Every domain field that declares an interval, an array shape or choices.

A field declares what it accepts in its metadata: ``field(metadata={"interval": ...})``,
``{"shape": ...}`` or ``{"choices": ...}``. The table below builds one valid instance of each
type that declares one; every case replaces one field and checks the one message the checker
prints.
"""

import dataclasses
import math
from dataclasses import MISSING

import numpy as np
import pytest

import formsense
from formsense import (
    BenchmarkSpec,
    CommGraph,
    ControlGains,
    DisplacementSet,
    FormationGeometry,
    Guidance,
    SensingParams,
    SwarmState,
    TargetEstimate,
    World,
    build_formation,
)
from formsense.benchmarks import KINDS
from formsense.config import _BENCHMARK, SCHEMA
from formsense.errors import _ends
from formsense.sensing import AgentPose
from formsense.world import GUIDANCE_MODES
from test_config import interval_ends

PARAMS = dict(
    transmit_power_w=0.1, processing_gain=1.0e3, ref_channel_power_m4=1.0e-5,
    kappa=1.0, noise_floor_w=1.0e-12, altitude_m=20.0,
)
TRIANGLE = build_formation(SensingParams(**PARAMS), TargetEstimate(np.array([80.0, 90.0])), 3)

# Keyword arguments of one valid instance of each type with declared fields.
VALID = {
    SensingParams: PARAMS,
    BenchmarkSpec: dict(kind="line"),
    ControlGains: {},
    World: dict(target=TargetEstimate(np.array([80.0, 90.0]))),
    Guidance: dict(velocity_mps=np.array([1.0, 2.0])),
    SwarmState: dict(positions=np.zeros((3, 2)), velocity_estimates=np.zeros((3, 2))),
    TargetEstimate: dict(position=np.array([80.0, 90.0])),
    AgentPose: dict(planar_position=np.array([1.0, 2.0]), elevation_rad=0.5, azimuth_rad=0.0),
    FormationGeometry: dataclasses.asdict(TRIANGLE),
    DisplacementSet: dict(reference=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])),
}


def declared(key):
    """(cls, field, declared value) of every field of a VALID type that declares ``key``."""
    return [
        (cls, f.name, f.metadata[key])
        for cls in VALID
        for f in dataclasses.fields(cls)
        if key in f.metadata
    ]


DECLARED = declared("interval")
# The fields annotated int, as check_fields reads them: each lies in its interval only as an integer.
INTS = [
    (cls, name, interval) for cls, name, interval in DECLARED if cls.__dataclass_fields__[name].type in (int, "int")
]
SHAPES = declared("shape")
CHOICES = declared("choices")
# What an array message adds when an earlier field of the instance has bound the shape's letter.
BOUND = {(SwarmState, "velocity_estimates"): " with M = 3"}


def one_line(value):
    return " ".join(repr(value).split())


def ids(x):
    return x.__name__ if isinstance(x, type) else repr(x)


def cases():
    """(cls, field, interval, value, accepted): NaN, +-inf, and each finite end and one step outside it.

    An int field also rejects a fraction and an integral float.
    """
    for cls, name, interval in DECLARED:
        integer, rejected = (cls, name, interval) in INTS, (math.nan, math.inf, -math.inf)
        if integer:
            rejected += (_ends(interval)[0] + 0.5, 3.0)
        for value in rejected:
            yield cls, name, interval, value, False
        for value, accepted in interval_ends(int if integer else float, interval):
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
        and any(f.metadata.keys() & {"interval", "shape", "choices"} for f in dataclasses.fields(obj))
    }
    assert declaring == set(VALID)


@pytest.mark.parametrize(
    "cls, name, interval, value, accepted",
    list(cases()),
    ids=ids,
)
def test_interval_ends(cls, name, interval, value, accepted):
    kwargs = {**VALID[cls], name: value}
    if accepted:
        assert getattr(cls(**kwargs), name) == value
    else:
        with pytest.raises(ValueError) as info:
            cls(**kwargs)
        assert str(info.value) == f"{cls.__name__}.{name}: must lie in {interval}, got {value!r}"


def test_the_int_fields():
    """The annotation, a string under ``from __future__ import annotations``, marks an int field."""
    assert {(cls.__name__, name) for cls, name, _ in INTS} == {
        ("BenchmarkSpec", "samples"), ("SwarmState", "step_index"), ("World", "rng_seed"),
    }


def test_a_value_that_is_not_a_number_is_out_of_range():
    with pytest.raises(ValueError, match=r"ControlGains.epsilon: must lie in \(0, inf\), got 'x'"):
        ControlGains(epsilon="x")


def test_config_reads_the_guidance_modes_guidance_checks():
    assert SCHEMA["guidance"]["mode"][0] is GUIDANCE_MODES
    for mode in GUIDANCE_MODES:
        Guidance(mode=mode)


def shape_cases():
    """(cls, field, shape, value) with a case id: a wrong ndim, a wrong length, a letter's length 0,
    NaN, +-inf and a string."""
    for cls, name, shape in SHAPES:
        valid = getattr(cls(**VALID[cls]), name)
        cases = {"ndim": valid[None], "string": "ab"}
        for axis, dim in enumerate(shape[1:-1].replace(" ", "").split(",")):
            if dim:
                lengths = list(valid.shape)
                lengths[axis] = int(dim) + 1 if dim.isdigit() else 0
                cases[f"length {lengths[axis]} on axis {axis}"] = np.zeros(lengths)
        for bad in (math.nan, math.inf, -math.inf):
            cases[repr(bad)] = np.array(valid)
            cases[repr(bad)].flat[-1] = bad
        for case, value in cases.items():
            yield pytest.param(cls, name, shape, value, id=f"{cls.__name__}.{name}: {case}")


@pytest.mark.parametrize("cls, name, shape, value", list(shape_cases()))
def test_array_of_a_wrong_shape_or_not_finite(cls, name, shape, value):
    with pytest.raises(ValueError) as info:
        cls(**{**VALID[cls], name: value})
    where = BOUND.get((cls, name), "")
    expected = f"expected a finite {shape} array{where}, got {one_line(value)}"
    assert str(info.value) == f"{cls.__name__}.{name}: {expected}"


@pytest.mark.parametrize("cls, name, shape", SHAPES, ids=ids)
def test_accepted_array_is_a_read_only_float_copy(cls, name, shape):
    given = np.array(getattr(cls(**VALID[cls]), name))
    stored = getattr(cls(**{**VALID[cls], name: given}), name)
    assert stored is not given and stored.dtype == float and not stored.flags.writeable
    assert given.flags.writeable
    np.testing.assert_array_equal(stored, given)
    np.testing.assert_array_equal(getattr(cls(**{**VALID[cls], name: given.tolist()}), name), given)


def test_shared_letter_is_one_length():
    with pytest.raises(ValueError) as info:
        SwarmState(positions=np.zeros((3, 2)), velocity_estimates=np.zeros((4, 2)))
    assert str(info.value) == (
        "SwarmState.velocity_estimates: expected a finite (M, 2) array with M = 3, got "
        + one_line(np.zeros((4, 2)))
    )


@pytest.mark.parametrize(
    "value",
    [
        np.zeros((3, 4)),
        np.zeros(3),
        np.zeros((0, 0)),
        [[0, 1], [1]],
        [[0, 1], [1, math.nan]],
        [[0, math.inf], [math.inf, 0]],
        "ab",
    ],
    ids=["wrong shape", "one axis", "no agents", "ragged rows", "nan", "inf", "string"],
)
def test_an_adjacency_is_a_finite_square_array(value):
    with pytest.raises(ValueError) as info:
        CommGraph.from_adjacency(value)
    assert str(info.value) == f"CommGraph.adjacency: expected a finite (M, M) array, got {one_line(value)}"


def choice_cases():
    """(cls, field, choices, value, accepted): every choice, and values that are none of them."""
    for cls, name, choices in CHOICES:
        for value in choices:
            yield cls, name, choices, value, True
        for value in ("nope", choices[0].upper(), 1, None):
            yield cls, name, choices, value, False


@pytest.mark.parametrize("cls, name, choices, value, accepted", list(choice_cases()), ids=ids)
def test_choices(cls, name, choices, value, accepted):
    kwargs = {**VALID[cls], name: value}
    if accepted:
        assert getattr(cls(**kwargs), name) == value
    else:
        with pytest.raises(ValueError) as info:
            cls(**kwargs)
        assert str(info.value) == f"{cls.__name__}.{name}: expected one of {choices}, got {value!r}"


def test_config_reads_benchmark_kinds_and_altitudes_from_the_types():
    assert _BENCHMARK["kind"] == (KINDS, MISSING)  # required
    altitude = SensingParams.__dataclass_fields__["altitude_m"].metadata["interval"]
    assert altitude == "[0.001, 1e+06]"
    assert SCHEMA["sensing"]["altitude_m"][2] == SCHEMA["sweep"]["altitudes_m"][2] == altitude


# Regressions: each of these constructed, or failed naming no field, before arrays were declared.


def test_an_empty_swarm_is_rejected():
    with pytest.raises(ValueError, match=r"SwarmState.positions: expected a finite \(M, 2\) array"):
        SwarmState(np.zeros((0, 2)), np.zeros((0, 2)))


def test_a_formation_center_is_a_2_vector():
    with pytest.raises(ValueError) as info:
        FormationGeometry(**{**VALID[FormationGeometry], "center": [0, 0, 0]})
    assert str(info.value) == "FormationGeometry.center: expected a finite (2,) array, got [0, 0, 0]"


def test_a_string_velocity_names_the_field():
    with pytest.raises(ValueError) as info:
        Guidance(velocity_mps="ab")
    assert str(info.value) == "Guidance.velocity_mps: expected a finite (2,) array, got 'ab'"


def test_the_callers_array_stays_writable():
    given = np.array([80.0, 90.0])
    TargetEstimate(given)
    given[0] = 1.0  # raised "assignment destination is read-only" when the type froze it
    assert given[0] == 1.0
