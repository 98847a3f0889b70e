"""The package's public surface."""

import copy
import dataclasses
from pathlib import Path

import pytest

import formsense
from formsense.config import SCHEMA


def test_public_names_resolve_and_are_unique_and_sorted():
    names = formsense.__all__
    assert [name for name in names if not hasattr(formsense, name)] == []
    assert len(set(names)) == len(names)
    assert names == sorted(names)


CONFIG = formsense.load_config(Path(__file__).parents[1] / "configs" / "corridor.yaml")
DISP = CONFIG.displacement_set()
TRACE = formsense.run_episode(
    CONFIG.initial_state(), CONFIG.world, CONFIG.graph, DISP, CONFIG.gains, CONFIG.params, max_steps=2
)
# One instance of every public dataclass.
INSTANCES = {
    type(value).__name__: value
    for value in (
        CONFIG, CONFIG.params, CONFIG.world.target, CONFIG.formation, CONFIG.world, CONFIG.world.obstacles[0],
        CONFIG.graph, CONFIG.gains, CONFIG.guidance, CONFIG.initial_state(), CONFIG.sweep_benchmarks[0],
        DISP, TRACE,
    )
}


@pytest.mark.parametrize(
    "name", [name for name in formsense.__all__ if dataclasses.is_dataclass(getattr(formsense, name))]
)
def test_public_types_compare_and_hash(name):
    """A type holding arrays compares and hashes by identity; == on its arrays would raise."""
    value = INSTANCES[name]
    assert value == value
    assert isinstance(value == copy.deepcopy(value), bool)
    hash(value)


def settable_values() -> tuple[int, int]:
    """(init fields of the public dataclasses, config.SCHEMA entries): the settable values.

    The workflow's "Code size" step prints this count.
    """
    types = [t for t in map(vars(formsense).get, formsense.__all__) if dataclasses.is_dataclass(t)]
    return sum(f.init for t in types for f in dataclasses.fields(t)), sum(map(len, SCHEMA.values()))


def test_public_surface_does_not_grow():
    """Settable values and public names stay within their bounds.

    A change that raises either bound edits it here and says why in CHANGES.md.
    """
    assert sum(settable_values()) <= 88, settable_values()
    assert len(formsense.__all__) <= 35
