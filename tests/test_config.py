"""Config parsing, validation, canonicalization, and hashing."""

import copy
import dataclasses
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from formsense import config as config_module
from formsense import (
    ConfigError, Guidance, RunConfig, SensingParams, TargetEstimate, dbm_to_watts, load_config,
)
from formsense.benchmarks import BenchmarkSpec, sweep_rows
from formsense.cli import cmd_simulate
from formsense.config import SCHEMA, _BENCHMARK, _parse_yaml, build_config, hash_canonical
from formsense.errors import _ends

ROOT = Path(__file__).resolve().parent.parent


def base_raw() -> dict:
    """A small but explicit configuration used as the mutation baseline."""
    return {
        "sensing": {"altitude_m": 20.0},
        "formation": {"agent_count": 6},
        "world": {"target_m": [80.0, 90.0], "motion_noise_std_m": 0.01},
        "seed": 12345,
        "output_dir": "out/test",
    }


class TestDbmToWatts:
    @pytest.mark.parametrize(
        "dbm, watts", [(-90.0, 1e-12), (30.0, 1.0), (0.0, 1e-3), (-30.0, 1e-6)]
    )
    def test_exact_decades(self, dbm, watts):
        assert dbm_to_watts(dbm) == watts


class TestDefaults:
    def test_defaults_fill_in(self):
        cfg = build_config(base_raw())
        assert cfg.formation.agent_count == 6
        assert cfg.seed == 12345
        assert cfg.params.noise_floor_w == 1e-12
        assert cfg.params.composite_snr_m4 == pytest.approx(1e9, rel=1e-12)
        assert cfg.world.dt == 0.1
        assert cfg.world.motion_noise_std == 0.01
        assert cfg.graph.agent_count == 6
        assert cfg.graph.max_degree == 5  # ring plus leader chords
        assert cfg.gains.epsilon == 0.01
        assert cfg.guidance.mode == "constant"
        assert cfg.max_steps == 4000
        assert cfg.sweep_altitudes_m == (10.0, 20.0, 30.0, 40.0, 50.0, 60.0)
        assert len(cfg.sweep_benchmarks) == 5
        assert str(cfg.output_dir) == "out/test"

    def test_empty_config_is_valid(self):
        cfg = build_config({})
        assert cfg.formation.agent_count == 6
        assert str(cfg.output_dir) == "out"

    def test_noise_floor_watts_alternative(self):
        raw = base_raw()
        raw["sensing"]["noise_floor_w"] = 5e-13
        cfg = build_config(raw)
        assert cfg.params.noise_floor_w == 5e-13

    def test_noise_floor_both_rejected(self):
        raw = base_raw()
        raw["sensing"]["noise_floor_dbm"] = -90.0
        raw["sensing"]["noise_floor_w"] = 1e-12
        with pytest.raises(ConfigError, match="not both"):
            build_config(raw)


# The strings a canonical form holds: the values of every field with choices.
CHOICES = sorted({c for table in (*SCHEMA.values(), _BENCHMARK) for kind, *_ in table.values()
                  if isinstance(kind, tuple) for c in kind})
KEYS = sorted({*SCHEMA, "seed", *(key for table in (*SCHEMA.values(), _BENCHMARK) for key in table)})


def ulps_from(x: float, steps: int) -> float:
    for _ in range(abs(steps)):
        x = math.nextafter(x, math.copysign(math.inf, steps))
    return x


# Floats at the ends of the doubles and where repr switches to an exponent (1e16).
EDGE_FLOATS = st.builds(
    ulps_from, st.sampled_from([5e-324, -5e-324, 1e16, -1e16, 1.7976931348623157e308]), st.integers(-3, 3)
)
# A canonical form holds no NaN or infinity: the config rejects them.
FINITE_FLOATS = st.floats(allow_nan=False, allow_infinity=False) | EDGE_FLOATS.filter(math.isfinite)
CANONICAL_VALUES = st.recursive(
    FINITE_FLOATS | st.integers(-(2**63), 2**63) | st.sampled_from(CHOICES),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.sampled_from(KEYS), inner, max_size=4),
    max_leaves=30,
)


def reversed_order(value):
    """``value`` with every mapping built in reversed insertion order."""
    if isinstance(value, dict):
        return {key: reversed_order(value[key]) for key in reversed(value)}
    if isinstance(value, list):
        return [reversed_order(item) for item in value]
    return value


def one_edits(value):
    """Every copy of ``value`` with one leaf changed in type, sign or last bit, or two list items swapped."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from ({**value, key: edited} for edited in one_edits(item))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from (value[:i] + [edited] + value[i + 1:] for edited in one_edits(item))
        for i in range(len(value) - 1):
            if json.dumps(value[i], sort_keys=True) != json.dumps(value[i + 1], sort_keys=True):
                yield value[:i] + [value[i + 1], value[i]] + value[i + 2:]
    elif isinstance(value, int):
        yield float(value)  # 1 -> 1.0
    elif isinstance(value, float):
        if value.is_integer():
            yield int(value)  # 1.0 -> 1
        if value == 0.0:
            yield -value  # 0.0 <-> -0.0
        yield from filter(math.isfinite, (math.nextafter(value, math.inf), math.nextafter(value, -math.inf)))


class TestHashing:
    def test_hash_shape(self):
        cfg = build_config(base_raw())
        assert len(cfg.config_hash) == 12
        assert all(ch in "0123456789abcdef" for ch in cfg.config_hash)

    def test_equal_configs_equal_hashes(self):
        assert build_config(base_raw()).config_hash == build_config(base_raw()).config_hash

    def test_seed_override_changes_hash(self):
        a = build_config(base_raw())
        b = build_config(base_raw(), seed=999)
        assert b.seed == 999
        assert a.config_hash != b.config_hash

    def test_noise_free_changes_hash(self):
        a = build_config(base_raw())
        b = build_config(base_raw(), noise_free=True)
        assert b.world.motion_noise_std == 0.0
        assert a.config_hash != b.config_hash

    def test_output_dir_not_hashed(self):
        a = build_config(base_raw())
        raw = base_raw()
        raw["output_dir"] = "elsewhere/deep"
        b = build_config(raw)
        assert str(b.output_dir) == "elsewhere/deep"
        assert a.config_hash == b.config_hash
        assert "output_dir" not in a.canonical

    def test_canonical_round_trip(self):
        cfg = build_config(base_raw())
        rebuilt = build_config(copy.deepcopy(cfg.canonical))
        assert rebuilt.canonical == cfg.canonical
        assert rebuilt.config_hash == cfg.config_hash

    @settings(max_examples=50, deadline=None)
    @given(canonical=st.dictionaries(st.sampled_from(KEYS), CANONICAL_VALUES, min_size=1, max_size=6))
    def test_hash_names_the_canonical_form(self, canonical):
        """Key order does not reach the hash; every other change of the JSON text does."""
        digest = hash_canonical(canonical)
        assert hash_canonical(reversed_order(canonical)) == digest
        for edited in one_edits(canonical):
            assert hash_canonical(edited) != digest, edited

    def test_hash_of_a_literal(self):
        """The hashed text is compact JSON: ``{"seed":1}``, with no space after the colon."""
        assert hash_canonical({"seed": 1}) == "fbe47f6d82b4"


class TestValidation:
    def test_unknown_top_level_key(self):
        raw = base_raw()
        raw["simulation"] = {}
        with pytest.raises(ConfigError, match="unknown field"):
            build_config(raw)

    def test_unknown_keys_that_are_not_strings(self):
        """YAML reads `1:` and a bare `?` as the keys 1 and None, which do not sort with strings."""
        raw = base_raw()
        raw.update({1: 2, None: None, "simulation": {}})
        with pytest.raises(ConfigError, match=r"^config: unknown field\(s\) \[1, None, 'simulation'\]$"):
            build_config(raw)
        raw = base_raw()
        raw["sensing"][2.5] = 1.0
        with pytest.raises(ConfigError, match=r"^sensing: unknown field\(s\) \[2\.5\]$"):
            build_config(raw)

    def test_unknown_section_field(self):
        raw = base_raw()
        raw["sensing"]["bandwidth_hz"] = 1e6
        with pytest.raises(ConfigError, match=r"sensing: unknown field.*bandwidth_hz"):
            build_config(raw)

    def test_wrong_type_reports_field_path(self):
        raw = base_raw()
        raw["sensing"]["altitude_m"] = "high"
        with pytest.raises(ConfigError, match="sensing.altitude_m"):
            build_config(raw)

    def test_bool_is_not_a_number(self):
        raw = base_raw()
        raw["seed"] = True
        with pytest.raises(ConfigError, match="seed"):
            build_config(raw)

    def test_vector_length_checked(self):
        raw = base_raw()
        raw["world"]["target_m"] = [1.0, 2.0, 3.0]
        with pytest.raises(ConfigError, match="world.target_m"):
            build_config(raw)

    def test_agent_count_floor(self):
        raw = base_raw()
        raw["formation"]["agent_count"] = 2
        with pytest.raises(ConfigError, match="formation.agent_count"):
            build_config(raw)

    @pytest.mark.parametrize("seed", [-1, 2**63])
    def test_seed_range(self, seed):
        raw = base_raw()
        raw["seed"] = seed
        with pytest.raises(ConfigError, match="seed"):
            build_config(raw)

    def test_negative_altitude(self):
        raw = base_raw()
        raw["sensing"]["altitude_m"] = -20.0
        with pytest.raises(ConfigError, match="sensing"):
            build_config(raw)

    @pytest.mark.parametrize("altitude", [1.0e-90, 9.9e-4, 1.0000001e6, 1.0e90])
    def test_altitude_outside_finite_range(self, altitude):
        raw = base_raw()
        raw["sensing"]["altitude_m"] = altitude
        with pytest.raises(ConfigError, match=r"sensing.altitude_m: must lie in \[0.001, 1e\+06\]"):
            build_config(raw)
        raw = base_raw()
        raw["sweep"] = {"altitudes_m": [20.0, altitude]}
        with pytest.raises(ConfigError, match=r"sweep.altitudes_m\[1\]"):
            build_config(raw)

    def test_snr_ceiling_names_the_lowest_sweep_altitude(self):
        raw = base_raw()
        # C = 1e97 m^4: C / h^4 stays below 1e100 down to 0.18 m.
        raw["sensing"].update(transmit_power_w=1.0e45, processing_gain=1.0e45)
        raw["sweep"] = {"altitudes_m": [1.0, 20.0, 0.5]}
        assert build_config(raw).sweep_altitudes_m == (1.0, 20.0, 0.5)
        raw["sweep"] = {"altitudes_m": [1.0, 20.0, 1.0e-3, 0.01, 0.5]}
        with pytest.raises(ConfigError, match=r"sweep.altitudes_m\[2\]: SensingParams: SNR"):
            build_config(raw)

    @pytest.mark.parametrize("altitude", [1.0e-3, 1.0e6])
    def test_altitude_range_is_inclusive(self, altitude):
        raw = base_raw()
        raw["sensing"]["altitude_m"] = altitude
        raw["sweep"] = {"altitudes_m": [altitude]}
        assert build_config(raw).params.altitude_m == altitude

    def test_bad_obstacle_bounds(self):
        raw = base_raw()
        raw["world"]["obstacles"] = [{"x_min": 5.0, "x_max": 1.0, "y_min": 0.0, "y_max": 1.0}]
        with pytest.raises(ConfigError, match=r"world: World\.obstacles\[0\]: need x_min < x_max"):
            build_config(raw)

    def test_obstacle_missing_field(self):
        raw = base_raw()
        raw["world"]["obstacles"] = [{"x_min": 0.0, "x_max": 1.0, "y_min": 0.0}]
        with pytest.raises(ConfigError, match=r"world.obstacles\[0\].*y_max"):
            build_config(raw)

    def test_unstable_gains_rejected(self):
        raw = base_raw()
        raw["gains"] = {"epsilon": 0.1}  # 0.1 * 2 * 5 = 1.0, out of the region
        with pytest.raises(ConfigError, match="gains.epsilon"):
            build_config(raw)

    def test_unstable_consensus_gain_rejected(self):
        raw = base_raw()
        raw["gains"] = {"consensus_gain": 0.25}
        with pytest.raises(ConfigError, match="gains.consensus_gain"):
            build_config(raw)

    def test_episode_bounds(self):
        raw = base_raw()
        raw["episode"] = {"max_steps": -5}
        with pytest.raises(ConfigError, match="episode.max_steps"):
            build_config(raw)
        raw = base_raw()
        raw["episode"] = {"stop_tolerance_m2": 0.0}
        with pytest.raises(ConfigError, match="episode.stop_tolerance_m2"):
            build_config(raw)

    def test_sweep_validation(self):
        raw = base_raw()
        raw["sweep"] = {"altitudes_m": []}
        with pytest.raises(ConfigError, match="sweep.altitudes_m"):
            build_config(raw)
        raw = base_raw()
        raw["sweep"] = {"altitudes_m": [10.0, -1.0]}
        with pytest.raises(ConfigError, match=r"sweep.altitudes_m\[1\]"):
            build_config(raw)
        raw = base_raw()
        raw["sweep"] = {"benchmarks": [{"kind": "spiral"}]}
        with pytest.raises(ConfigError, match=r"sweep.benchmarks\[0\].kind"):
            build_config(raw)

    @pytest.mark.parametrize(
        "field, value",
        [("samples", 2.5), ("samples", True), ("length_m", float("inf")), ("radius_factor", "x")],
    )
    def test_benchmark_fields_typed(self, field, value):
        raw = base_raw()
        raw["sweep"] = {"benchmarks": [{"kind": "random_cloud", field: value}]}
        with pytest.raises(ConfigError, match=rf"sweep\.benchmarks\[0\]\.{field}"):
            build_config(raw)


    @pytest.mark.parametrize(
        "field, value, override, message",
        [
            ("seed", "abc", {"seed": 4}, "seed: expected an integer"),
            ("seed", -1, {"seed": 4}, r"seed: must lie in \[0, 2\^63\)"),
            ("world", {"motion_noise_std_m": -1.0}, {"noise_free": True}, "world.motion_noise_std_m"),
        ],
    )
    def test_overridden_file_value_still_checked(self, field, value, override, message):
        raw = base_raw()
        raw[field] = value
        with pytest.raises(ConfigError, match=message):
            build_config(raw)
        with pytest.raises(ConfigError, match=message):
            build_config(raw, **override)


# Every field with an interval: SCHEMA paths, and the fields of a sweep.benchmarks entry.
RANGED = [
    ((section, key), kind, interval[0])
    for section, table in SCHEMA.items()
    for key, (kind, _, *interval) in table.items()
    if interval
] + [
    (("sweep", "benchmarks", key), kind, interval)
    for key, (kind, _, interval) in list(_BENCHMARK.items())[1:]  # every field but kind
]
# The benchmark kind each entry field shapes.
BENCHMARK_KIND = {
    "radius_factor": "clustered_polygon",
    "elevation_deg": "fixed_elevation",
    "length_m": "line",
    "lateral_offset_m": "line",
    "half_width_m": "random_cloud",
    "samples": "random_cloud",
}


def interval_ends(kind, interval):
    """(value, accepted) at each finite end of ``interval`` and one step outside it."""
    cases = []
    lo, hi = _ends(interval)
    for end, closed, outward in ((lo, interval[0] == "[", -1), (hi, interval[-1] == "]", 1)):
        if math.isinf(end):
            continue
        if kind is int:
            cases += [(int(end), closed), (int(end) + outward, False)]
        else:
            cases += [(end, closed), (float(np.nextafter(end, outward * math.inf)), False)]
    return cases


def with_value(path, value):
    """The base config with ``path`` set to ``value``, the field path an error names, and a getter."""
    raw = base_raw()
    if path == ("sweep", "altitudes_m"):
        raw["sweep"] = {"altitudes_m": [20.0, value]}
        return raw, "sweep.altitudes_m[1]", lambda c: c["sweep"]["altitudes_m"][1]
    if path[:2] == ("sweep", "benchmarks"):
        raw["sweep"] = {"benchmarks": [{"kind": BENCHMARK_KIND[path[2]], path[2]: value}]}
        return raw, f"sweep.benchmarks[0].{path[2]}", lambda c: c["sweep"]["benchmarks"][0][path[2]]
    raw.setdefault(path[0], {})[path[1]] = value
    if path == ("sensing", "noise_floor_dbm"):  # the canonical form holds watts
        watts = dbm_to_watts(value)
        return raw, ".".join(path), lambda c: value if c["sensing"]["noise_floor_w"] == watts else None
    return raw, ".".join(path), lambda c: c[path[0]][path[1]]


class TestRanges:
    @pytest.mark.parametrize(
        "path, value, accepted, interval",
        [
            (path, value, accepted, interval)
            for path, kind, interval in RANGED
            for value, accepted in interval_ends(kind, interval)
        ],
        ids=lambda x: ".".join(x) if isinstance(x, tuple) else repr(x),
    )
    def test_interval_ends(self, path, value, accepted, interval):
        raw, name, get = with_value(path, value)
        if accepted:
            assert get(build_config(raw).canonical) == value
        else:
            with pytest.raises(ConfigError) as info:
                build_config(raw)
            assert str(info.value) == f"{name}: must lie in {interval}, got {value!r}"

    def test_every_range_has_a_finite_end(self):
        assert {("world", "dt_s"), ("sensing", "noise_floor_dbm"), ("sweep", "altitudes_m")} <= {
            path for path, _, _ in RANGED
        }
        assert all(interval_ends(kind, interval) for _, kind, interval in RANGED)

    @pytest.mark.parametrize("field", list(BENCHMARK_KIND))
    def test_benchmark_range_ends_evaluate(self, field, target):
        # Each benchmark at the ends of its range and of the altitude range, with
        # C = 1e9 m^4 and at the SNR ceiling at 1 mm: a row or a domain error such
        # as a ring that rounds to a point, never an overflow or invalid value.
        interval = _BENCHMARK[field][2]
        lo, hi = (float(end) for end in interval[1:-1].split(","))
        lo = lo if interval[0] == "[" else float(np.nextafter(lo, math.inf))
        hi = hi if interval[-1] == "]" else float(np.nextafter(hi, -math.inf))
        rows = []
        for transmit_power_w in (0.1, 1.0e78):
            params = SensingParams(transmit_power_w, 1.0e3, 1.0e-5, 1.0, 1.0e-12, 1.0e-3)
            for value in filter(math.isfinite, (lo, hi)):
                typed = _BENCHMARK[field][0](value)
                spec = BenchmarkSpec(kind=BENCHMARK_KIND[field], **{field: typed})
                for altitude in (1.0e-3, 1.0e6):
                    try:
                        rows += sweep_rows([spec], 6, target, params, [altitude], seed=1)
                    except ValueError:
                        pass
        assert rows and all(row["crlb_m2"] is None or row["crlb_m2"] > 0 for row in rows)


class TestGoldenHashes:
    """Every artifact is tagged with the config hash; parsing changes must keep it.

    A change that moves it on purpose records each old and new value in CHANGES.md.
    """

    @pytest.mark.parametrize(
        "name, plain, seeded",
        [
            ("baseline", "8a8e16f9124e", "b2b44422ee78"),
            ("corridor", "6a97fc729a49", "ddbd712e3e87"),
            ("sweep", "8bf412430f53", "b6d4c619073e"),
        ],
        ids=["baseline", "corridor", "sweep"],  # a moved hash keeps the test's name
    )
    def test_shipped_configs(self, name, plain, seeded):
        path = ROOT / "configs" / f"{name}.yaml"
        assert load_config(path).config_hash == plain
        assert load_config(path, seed=7, noise_free=True).config_hash == seeded

    def test_empty_config_hashes_like_sweep_yaml(self):
        # Every value in configs/sweep.yaml is a default.
        assert build_config({}).config_hash == "8bf412430f53"

    def test_custom_graph_explicit_deployment_noise_watts(self):
        raw = base_raw()
        raw["sensing"]["noise_floor_w"] = 5e-13
        raw["formation"]["agent_count"] = 3
        raw["graph"] = {"topology": "custom", "adjacency": [[0, 1, 1], [1, 0, 1], [1, 1, 0]]}
        raw["deployment"] = {
            "kind": "explicit",
            "positions_m": [[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]],
            "initial_scale": 0.5,
        }
        assert build_config(raw).config_hash == "3723430e35cf"


class TestReadme:
    def test_configuration_block_lists_the_defaults(self):
        text = (ROOT / "README.md").read_text()
        match = re.search(r"^## Configuration$.*?^```yaml$\n(.*?)^```$", text, re.S | re.M)
        canonical = build_config(yaml.safe_load(match.group(1))).canonical
        canonical["world"]["obstacles"] = []  # the block shows one example rectangle
        assert canonical == build_config({}).canonical
        # Every interval is in the comment on its field's line; a commented-out
        # field line ("  # noise_floor_w: ...") shows an alternative field.
        section, comments = None, {}
        for line in match.group(1).splitlines():
            code, _, comment = re.sub(r"^(\s+)# ", r"\1", line).partition("#")
            if not line.startswith(" "):
                section = code.split(":")[0]
            for field in re.findall(r"(\w+):", code):
                comments[(section, field)] = comment
        for path, _, interval in RANGED:
            assert interval in comments[(path[0], path[-1])], path

    def test_library_block_runs(self, capsys):
        text = (ROOT / "README.md").read_text()
        match = re.search(r"^## Library$.*?^```python$\n(.*?)^```$", text, re.S | re.M)
        exec(compile(match.group(1), "README.md", "exec"), {})
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "True"  # the built ring attains the bound
        assert "converged" in lines[1]


class TestGraphSection:
    def test_topologies(self):
        for topology, max_degree in (("ring", 2), ("ring_with_leader", 5), ("complete", 5)):
            raw = base_raw()
            raw["graph"] = {"topology": topology}
            if topology == "complete":
                raw["gains"] = {"consensus_gain": 0.15}
            assert build_config(raw).graph.max_degree == max_degree

    def test_unknown_topology(self):
        raw = base_raw()
        raw["graph"] = {"topology": "star"}
        with pytest.raises(ConfigError, match="graph.topology"):
            build_config(raw)

    def test_custom_adjacency(self):
        raw = base_raw()
        raw["formation"]["agent_count"] = 3
        raw["graph"] = {
            "topology": "custom",
            "adjacency": [[0, 1, 1], [1, 0, 1], [1, 1, 0]],
        }
        cfg = build_config(raw)
        assert cfg.graph.max_degree == 2
        assert cfg.canonical["graph"]["adjacency"] == [[0, 1, 1], [1, 0, 1], [1, 1, 0]]

    def test_custom_requires_adjacency(self):
        raw = base_raw()
        raw["graph"] = {"topology": "custom"}
        with pytest.raises(ConfigError, match="graph.adjacency"):
            build_config(raw)

    def test_custom_shape_checked(self):
        raw = base_raw()
        raw["graph"] = {"topology": "custom", "adjacency": [[0, 1], [1, 0]]}
        with pytest.raises(ConfigError, match="graph.adjacency"):
            build_config(raw)

    def test_leader_index_range(self):
        raw = base_raw()
        raw["graph"] = {"leader_index": 6}
        with pytest.raises(ConfigError, match="graph.leader_index"):
            build_config(raw)


class TestDeployment:
    def test_explicit_positions(self):
        raw = base_raw()
        raw["formation"]["agent_count"] = 3
        raw["deployment"] = {
            "kind": "explicit",
            "positions_m": [[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]],
            "initial_scale": 0.5,
        }
        cfg = build_config(raw)
        state = cfg.initial_state()
        np.testing.assert_array_equal(state.positions, [[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
        np.testing.assert_array_equal(state.velocity_estimates, np.zeros((3, 2)))
        assert state.scale == 0.5
        assert state.step_index == 0

    def test_explicit_requires_matching_rows(self):
        raw = base_raw()
        raw["deployment"] = {"kind": "explicit", "positions_m": [[0.0, 0.0]]}
        with pytest.raises(ConfigError, match="deployment.positions_m"):
            build_config(raw)

    def test_random_box_bounds_and_determinism(self):
        raw = base_raw()
        raw["deployment"] = {"kind": "random_box", "center_m": [5.0, -5.0], "side_m": 30.0}
        cfg = build_config(raw)
        a = cfg.initial_state().positions
        b = cfg.initial_state().positions
        assert np.array_equal(a, b)
        assert np.all(np.abs(a - np.array([5.0, -5.0])) <= 15.0)
        other = build_config(raw, seed=777).initial_state().positions
        assert not np.array_equal(a, other)

    def test_bad_kind(self):
        raw = base_raw()
        raw["deployment"] = {"kind": "airdrop"}
        with pytest.raises(ConfigError, match="deployment.kind"):
            build_config(raw)

    def test_initial_scale_range(self):
        raw = base_raw()
        raw["deployment"] = {"initial_scale": 0.0}
        with pytest.raises(ConfigError, match="deployment.initial_scale"):
            build_config(raw)


class TestPlanningAndGuidance:
    def test_formation_centered_on_plan_target(self):
        raw = base_raw()
        raw["formation"]["prior_target_offset_m"] = [5.0, -3.0]
        cfg = build_config(raw)
        formation = cfg.build_formation()
        centroid = formation.planar_positions.mean(axis=0)
        np.testing.assert_allclose(centroid, [85.0, 87.0], atol=1e-9)
        np.testing.assert_array_equal(cfg.world.target.position, [80.0, 90.0])

    def test_leader_at_its_planned_slot_has_arrived(self):
        raw = base_raw()
        raw["formation"]["prior_target_offset_m"] = [5.0, -3.0]
        raw["guidance"] = {"mode": "goal"}
        cfg = build_config(raw)
        disp = cfg.displacement_set()
        at_slots = cfg.formation.planar_positions
        assert cfg.guidance.center_error_m(at_slots, cfg.graph, disp) == 0.0
        # The ring is planned around the believed target, so the same ring over the true one is off.
        at_true_target = at_slots + (cfg.world.target.position - cfg.formation.center)
        error = cfg.guidance.center_error_m(at_true_target, cfg.graph, disp)
        assert error == pytest.approx(math.hypot(5.0, 3.0), rel=1e-12)

    def test_guidance_carries_velocity(self):
        raw = base_raw()
        raw["guidance"] = {"velocity_mps": [0.4, -0.2]}
        cfg = build_config(raw)
        np.testing.assert_array_equal(cfg.guidance.velocity_mps, [0.4, -0.2])
        positions = cfg.initial_state().positions
        v = cfg.guidance.commanded_velocity(positions, cfg.graph, cfg.displacement_set())
        np.testing.assert_array_equal(v, [0.4, -0.2])

    def test_guidance_fields_are_the_section(self):
        assert [f.name for f in dataclasses.fields(Guidance)] == list(SCHEMA["guidance"])

    def test_bad_guidance_mode(self):
        raw = base_raw()
        raw["guidance"] = {"mode": "orbit"}
        with pytest.raises(ConfigError, match="guidance"):
            build_config(raw)


class TestLoadConfig:
    def test_round_trip_through_file(self, tmp_path):
        path = tmp_path / "run.yaml"
        path.write_text(yaml.safe_dump(base_raw()))
        cfg = load_config(path)
        assert cfg.config_hash == build_config(base_raw()).config_hash

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "absent.yaml")

    def test_invalid_yaml(self, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text("sensing: [unclosed\n")
        with pytest.raises(ConfigError, match="invalid YAML"):
            load_config(path)

    def test_non_mapping_document(self, tmp_path):
        path = tmp_path / "list.yaml"
        path.write_text("- 1\n- 2\n")
        with pytest.raises(ConfigError, match="expected a mapping"):
            load_config(path)

    def test_overrides_apply(self, tmp_path):
        path = tmp_path / "run.yaml"
        path.write_text(yaml.safe_dump(base_raw()))
        cfg = load_config(path, seed=42, noise_free=True)
        assert cfg.seed == 42
        assert cfg.world.motion_noise_std == 0.0

    def test_shipped_configs_parse(self):
        for name in ("baseline.yaml", "corridor.yaml", "sweep.yaml"):
            cfg = load_config(ROOT / "configs" / name)
            assert cfg.formation.agent_count >= 3
            assert len(cfg.config_hash) == 12


def rich_config():
    """A config on every optional route, with both command-line overrides."""
    raw = base_raw()
    raw["sensing"]["noise_floor_w"] = 5e-13
    raw["formation"]["agent_count"] = 3
    raw["world"]["obstacles"] = [{"x_min": 30, "x_max": 40, "y_min": -5, "y_max": 5}]
    raw["graph"] = {"topology": "custom", "adjacency": [[0, 1, 1], [1, 0, 1], [1, 1, 0]]}
    raw["deployment"] = {"kind": "explicit", "positions_m": [[0, 0], [10, 0], [0, 10]], "initial_scale": 0.5}
    raw["sweep"] = {"altitudes_m": [15, 25], "benchmarks": [{"kind": "line", "length_m": 40}]}
    return build_config(raw, seed=7, noise_free=True)


class TestReplace:
    """A RunConfig is made of its canonical mapping; only that mapping and the output directory vary."""

    @pytest.mark.parametrize("field, value", [("seed", 7), ("max_steps", 50), ("world", None)])
    def test_built_fields_cannot_be_replaced(self, field, value):
        config = load_config(ROOT / "configs" / "baseline.yaml")
        with pytest.raises(ValueError, match=f"field {field} is declared with init=False"):
            dataclasses.replace(config, **{field: value})

    def test_replaced_canonical_tags_the_run_it_makes(self, tmp_path):
        config = load_config(ROOT / "configs" / "baseline.yaml")
        canonical = copy.deepcopy(config.canonical)
        canonical["seed"] = 7
        canonical["episode"]["max_steps"] = 50
        varied = dataclasses.replace(config, canonical=canonical)
        assert varied.world.rng_seed == 7
        summary = json.loads(cmd_simulate(varied, tmp_path)[2].read_text())
        assert (summary["steps"], summary["seed"]) == (50, 7)
        assert summary["config_hash"] == hash_canonical(canonical) != config.config_hash

    @pytest.mark.parametrize("name", ["baseline", "corridor", "sweep", "rich"])
    def test_canonical_form_is_a_fixed_point(self, name):
        config = rich_config() if name == "rich" else load_config(ROOT / "configs" / f"{name}.yaml")
        rebuilt = dataclasses.replace(config, canonical=copy.deepcopy(config.canonical))
        assert rebuilt.canonical == config.canonical
        assert rebuilt.config_hash == config.config_hash
        assert rebuilt.output_dir == config.output_dir

    def test_canonical_names_no_output_dir(self):
        with pytest.raises(ConfigError, match=r"config: unknown field\(s\) \['output_dir'\]"):
            RunConfig(base_raw(), Path("out"))


SHIPPED_TEXTS = [(ROOT / "configs" / f"{name}.yaml").read_text() for name in ("baseline", "corridor", "sweep")]
# Characters of YAML's syntax, and the ones the two loaders are known to read differently.
MUTATION_CHARS = "\t \n:-?[]{},#'\"!&*|>%@`.0123456789eE+x\ufeff\u00a0"


@st.composite
def mutated_configs(draw) -> str:
    """A shipped config with 1 to 4 characters inserted, deleted or replaced."""
    text = draw(st.sampled_from(SHIPPED_TEXTS))
    for _ in range(draw(st.integers(1, 4))):
        at, char = draw(st.integers(0, len(text))), draw(st.sampled_from(MUTATION_CHARS))
        text = draw(st.sampled_from([text[:at] + char + text[at:], text[:at] + text[at + 1:],
                                     text[:at] + char + text[at + 1:]]))
    return text


@pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML is built without libyaml")
class TestLibyaml:
    """Configs are read with libyaml; the pure-Python loader names errors and reads deep text."""

    @pytest.mark.parametrize("name, plain", [("baseline", "8a8e16f9124e"), ("corridor", "6a97fc729a49"),
                                             ("sweep", "8bf412430f53")], ids=["baseline", "corridor", "sweep"])
    def test_shipped_configs_never_reach_the_pure_python_loader(self, monkeypatch, name, plain):
        """A silent fallback would keep every other test passing and lose the speed."""
        def refuse(*args, **kwargs):
            raise AssertionError("the pure-Python loader ran although libyaml is present")

        for attribute in ("safe_load", "SafeLoader"):
            monkeypatch.setattr(yaml, attribute, refuse)
        assert load_config(ROOT / "configs" / f"{name}.yaml").config_hash == plain

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(text=mutated_configs())
    def test_every_valid_config_reads_as_the_python_loader_reads_it(self, text):
        try:
            expected = yaml.safe_load(text)
            if not isinstance(expected, dict):
                return
            build_config(expected)
        except (yaml.YAMLError, ValueError):  # ConfigError, or a date like 2020-13-45 in either loader
            return
        assert repr(_parse_yaml(text)) == repr(expected)  # repr tells 1 from 1.0 and True

    def test_text_deeper_than_the_cap_goes_to_the_pure_python_loader(self, monkeypatch):
        seen = []
        monkeypatch.setattr(yaml, "safe_load", seen.append)
        cap = config_module._LIBYAML_MAX_DEPTH
        nested = []
        for _ in range(cap - 1):
            nested = [nested]
        assert _parse_yaml("[" * cap + "]" * cap) == nested and seen == []
        deeper = "[" * (cap + 1) + "]" * (cap + 1)
        assert _parse_yaml(deeper) is None and seen == [deeper]

    def test_a_tab_separator_loads(self, tmp_path):
        """libyaml reads a tab after a key as the YAML spec allows; the pure-Python scanner rejects it."""
        path = tmp_path / "run.yaml"
        path.write_text("seed:\t7\n")
        assert load_config(path).seed == 7
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(config_module, "_WITH_LIBYAML", False)
            with pytest.raises(ConfigError, match="found character '\\\\t' that cannot start any token"):
                load_config(path)
