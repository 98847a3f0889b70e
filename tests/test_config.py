"""Config parsing, validation, canonicalization, and hashing."""

import copy
import re
from pathlib import Path

import numpy as np
import pytest
import yaml

from formsense import ConfigError, dbm_to_watts, load_config
from formsense.config import build_config, canonical_yaml, hash_canonical

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
        assert cfg.agent_count == 6
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
        assert cfg.agent_count == 6
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
        b = build_config(base_raw(), out_dir="elsewhere/deep")
        assert str(b.output_dir) == "elsewhere/deep"
        assert a.config_hash == b.config_hash
        assert "output_dir" not in a.canonical

    def test_canonical_round_trip(self):
        cfg = build_config(base_raw())
        rebuilt = build_config(copy.deepcopy(cfg.canonical))
        assert rebuilt.canonical == cfg.canonical
        assert rebuilt.config_hash == cfg.config_hash

    def test_canonical_yaml_is_loadable_and_sorted(self):
        cfg = build_config(base_raw())
        text = canonical_yaml(cfg.canonical)
        assert yaml.safe_load(text) == cfg.canonical
        assert hash_canonical(cfg.canonical) == cfg.config_hash
        top_keys = [line.split(":")[0] for line in text.splitlines() if line and line[0] != " "]
        assert top_keys == sorted(top_keys)


class TestValidation:
    def test_unknown_top_level_key(self):
        raw = base_raw()
        raw["simulation"] = {}
        with pytest.raises(ConfigError, match="unknown field"):
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

    def test_bad_obstacle_bounds(self):
        raw = base_raw()
        raw["world"]["obstacles"] = [{"x_min": 5.0, "x_max": 1.0, "y_min": 0.0, "y_max": 1.0}]
        with pytest.raises(ConfigError, match=r"world.obstacles\[0\]"):
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


class TestGoldenHashes:
    """Every artifact is tagged with the config hash; parsing changes must keep it."""

    @pytest.mark.parametrize(
        "name, plain, seeded",
        [
            ("baseline", "55f2c3529896", "eeba5b99d23d"),
            ("corridor", "8435aa53b607", "9629e3b32438"),
            ("sweep", "d77a956e2490", "96d41f6c2f6b"),
        ],
    )
    def test_shipped_configs(self, name, plain, seeded):
        path = ROOT / "configs" / f"{name}.yaml"
        assert load_config(path).config_hash == plain
        assert load_config(path, seed=7, noise_free=True).config_hash == seeded

    def test_empty_config_hashes_like_sweep_yaml(self):
        # Every value in configs/sweep.yaml is a default.
        assert build_config({}).config_hash == "d77a956e2490"

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
        assert build_config(raw).config_hash == "620fdc37aaed"


class TestReadme:
    def test_configuration_block_lists_the_defaults(self):
        text = (ROOT / "README.md").read_text()
        match = re.search(r"^## Configuration$.*?^```yaml$\n(.*?)^```$", text, re.S | re.M)
        canonical = build_config(yaml.safe_load(match.group(1))).canonical
        canonical["world"]["obstacles"] = []  # the block shows one example rectangle
        assert canonical == build_config({}).canonical


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
        np.testing.assert_array_equal(cfg.target.position, [80.0, 90.0])

    def test_leader_offset_matches_formation(self):
        cfg = build_config(base_raw())
        formation = cfg.build_formation()
        expected = formation.planar_positions[cfg.graph.leader_index] - cfg.plan_target.position
        np.testing.assert_allclose(cfg.guidance.leader_offset, expected, rtol=1e-12)

    def test_goal_is_plan_target(self):
        raw = base_raw()
        raw["formation"]["prior_target_offset_m"] = [5.0, -3.0]
        raw["guidance"] = {"mode": "goal"}
        cfg = build_config(raw)
        np.testing.assert_allclose(cfg.guidance.goal_m, [85.0, 87.0], rtol=1e-12)

    def test_displacement_set_carries_velocity(self):
        raw = base_raw()
        raw["guidance"] = {"velocity_mps": [0.4, -0.2]}
        cfg = build_config(raw)
        disp = cfg.displacement_set()
        np.testing.assert_array_equal(disp.global_velocity, [0.4, -0.2])

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
        cfg = load_config(path, seed=42, out_dir="elsewhere", noise_free=True)
        assert cfg.seed == 42
        assert str(cfg.output_dir) == "elsewhere"
        assert cfg.world.motion_noise_std == 0.0

    def test_shipped_configs_parse(self):
        for name in ("baseline.yaml", "corridor.yaml", "sweep.yaml"):
            cfg = load_config(ROOT / "configs" / name)
            assert cfg.agent_count >= 3
            assert len(cfg.config_hash) == 12
