"""Comparison-formation generators and the altitude sweep."""

import dataclasses
import math

import numpy as np
import pytest

import formsense.benchmarks
from formsense import (
    BenchmarkSpec,
    TargetEstimate,
    benchmark_positions,
    build_formation,
    formation_crlb,
    sweep_rows,
    theoretical_lower_bound,
)
from oracle import pose_crlb


class TestBenchmarkSpec:
    def test_defaults(self):
        spec = BenchmarkSpec(kind="line")
        assert spec.length_m == 40.0
        assert spec.lateral_offset_m == 10.0
        assert spec.samples == 25

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            BenchmarkSpec(kind="spiral")

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"radius_factor": 0.0},
            {"elevation_deg": 0.0},
            {"elevation_deg": 90.0},
            {"length_m": -1.0},
            {"half_width_m": 0.0},
            {"samples": 0},
        ],
    )
    def test_bad_parameters(self, kwargs):
        with pytest.raises(ValueError):
            BenchmarkSpec(kind="random_cloud", **kwargs)


class TestBenchmarkPositions:
    def test_optimal_reproduces_formation(self, default_params, target):
        positions = benchmark_positions(
            BenchmarkSpec(kind="optimal"), 6, target, default_params
        )
        expected = build_formation(default_params, target, 6).planar_positions
        np.testing.assert_array_equal(positions, expected)

    def test_line_geometry(self, default_params, target):
        spec = BenchmarkSpec(kind="line", length_m=40.0, lateral_offset_m=10.0)
        positions = benchmark_positions(spec, 5, target, default_params)
        assert np.all(positions[:, 1] == target.position[1] + 10.0)
        assert positions[0, 0] == pytest.approx(target.position[0] - 20.0, rel=1e-12)
        assert positions[-1, 0] == pytest.approx(target.position[0] + 20.0, rel=1e-12)
        gaps = np.diff(positions[:, 0])
        np.testing.assert_allclose(gaps, gaps[0], rtol=1e-12)

    def test_clustered_polygon_shrinks_about_target(self, default_params, target):
        spec = BenchmarkSpec(kind="clustered_polygon", radius_factor=0.25)
        positions = benchmark_positions(spec, 6, target, default_params)
        optimal = build_formation(default_params, target, 6).planar_positions
        np.testing.assert_allclose(
            positions - target.position, 0.25 * (optimal - target.position), rtol=1e-12
        )

    def test_fixed_elevation_radius(self, default_params, target):
        spec = BenchmarkSpec(kind="fixed_elevation", elevation_deg=30.0)
        positions = benchmark_positions(spec, 4, target, default_params)
        radii = np.linalg.norm(positions - target.position, axis=1)
        expected = default_params.altitude_m / math.tan(math.radians(30.0))
        np.testing.assert_allclose(radii, expected, rtol=1e-12)

    def test_random_cloud_needs_rng(self, default_params, target):
        with pytest.raises(ValueError, match="rng"):
            benchmark_positions(BenchmarkSpec(kind="random_cloud"), 6, target, default_params)

    def test_random_cloud_in_box(self, default_params, target):
        spec = BenchmarkSpec(kind="random_cloud", half_width_m=30.0)
        rng = np.random.default_rng(4)
        positions = benchmark_positions(spec, 6, target, default_params, rng)
        assert positions.shape == (6, 2)
        assert np.all(np.abs(positions - target.position) <= 30.0)

    def test_random_cloud_draws_stack_like_separate_draws(self, default_params, target):
        spec = BenchmarkSpec(kind="random_cloud", half_width_m=30.0)
        batch = benchmark_positions(
            spec, 6, target, default_params, np.random.default_rng(4), draws=5
        )
        rng = np.random.default_rng(4)
        separate = [benchmark_positions(spec, 6, target, default_params, rng) for _ in range(5)]
        assert batch.shape == (5, 6, 2)
        np.testing.assert_array_equal(batch, np.stack(separate))


class TestFormationCrlb:
    def test_matches_built_formation(self, default_params, target):
        formation = build_formation(default_params, target, 6)
        crlb = formation_crlb(formation.planar_positions, target, default_params)
        assert crlb == pytest.approx(theoretical_lower_bound(default_params, 6), rel=1e-9)

    def test_singular_line_through_target(self, default_params, target):
        spec = BenchmarkSpec(kind="line", lateral_offset_m=1e-9)
        positions = benchmark_positions(spec, 5, target, default_params)
        assert math.isnan(formation_crlb(positions, target, default_params))


class TestSweepRows:
    def _specs(self):
        return [
            BenchmarkSpec(kind="optimal"),
            BenchmarkSpec(kind="line"),
            BenchmarkSpec(kind="clustered_polygon"),
            BenchmarkSpec(kind="fixed_elevation"),
            BenchmarkSpec(kind="random_cloud", samples=10),
        ]

    def test_row_grid(self, default_params, target):
        altitudes = [10.0, 20.0, 30.0]
        rows = sweep_rows(self._specs(), 6, target, default_params, altitudes, seed=1)
        assert len(rows) == len(altitudes) * 5
        assert {r["altitude_m"] for r in rows} == set(altitudes)
        for row in rows:
            assert set(row) == {"altitude_m", "formation_kind", "crlb_m2", "bound_m2", "samples"}
            assert row["crlb_m2"] >= row["bound_m2"] * (1.0 - 1e-12)

    def test_bound_recomputed_per_altitude(self, default_params, target):
        import dataclasses

        rows = sweep_rows(
            [BenchmarkSpec(kind="optimal")], 6, target, default_params, [10.0, 50.0], seed=1
        )
        for row in rows:
            params = dataclasses.replace(default_params, altitude_m=row["altitude_m"])
            assert row["bound_m2"] == pytest.approx(
                theoretical_lower_bound(params, 6), rel=1e-12
            )
            assert row["crlb_m2"] == pytest.approx(row["bound_m2"], rel=1e-9)

    def test_random_cloud_reports_sample_count(self, default_params, target):
        rows = sweep_rows(
            [BenchmarkSpec(kind="random_cloud", samples=10)],
            6, target, default_params, [20.0], seed=5,
        )
        assert rows[0]["samples"] == 10

    def test_deterministic_in_seed(self, default_params, target):
        spec = [BenchmarkSpec(kind="random_cloud", samples=5)]
        a = sweep_rows(spec, 6, target, default_params, [20.0, 40.0], seed=9)
        b = sweep_rows(spec, 6, target, default_params, [20.0, 40.0], seed=9)
        c = sweep_rows(spec, 6, target, default_params, [20.0, 40.0], seed=10)
        assert a == b
        assert a != c

    def test_altitude_streams_independent(self, default_params, target):
        """Reordering altitudes must not change each altitude's draws."""
        spec = [BenchmarkSpec(kind="random_cloud", samples=5)]
        forward = sweep_rows(spec, 6, target, default_params, [20.0, 40.0], seed=9)
        # Same index-based stream, so altitude 20 at index 0 stays identical.
        again = sweep_rows(spec, 6, target, default_params, [20.0, 60.0], seed=9)
        assert forward[0] == again[0]

    def test_ring_built_once_per_altitude(self, default_params, target, monkeypatch):
        calls = []
        build = formsense.benchmarks.build_formation

        def counted(*args, **kwargs):
            calls.append(args)
            return build(*args, **kwargs)

        monkeypatch.setattr(formsense.benchmarks, "build_formation", counted)
        sweep_rows(self._specs(), 6, target, default_params, [10.0, 20.0, 30.0], seed=1)
        assert len(calls) == 3
        calls.clear()
        sweep_rows([BenchmarkSpec(kind="line")], 6, target, default_params, [10.0], seed=1)
        assert calls == []

    def test_random_cloud_row_matches_pose_oracle(self, default_params, target):
        spec = BenchmarkSpec(kind="random_cloud", samples=8)
        rows = sweep_rows([spec], 6, target, default_params, [15.0, 35.0], seed=3)
        for alt_index, row in enumerate(rows):
            params = dataclasses.replace(default_params, altitude_m=row["altitude_m"])
            rng = np.random.default_rng([3, formsense.benchmarks._SWEEP_STREAM, alt_index])
            values = [
                pose_crlb(benchmark_positions(spec, 6, target, params, rng), target, params)
                for _ in range(spec.samples)
            ]
            assert row["samples"] == 8
            assert row["crlb_m2"] == pytest.approx(np.mean(values), rel=1e-12)

    def test_empty_altitudes_rejected(self, default_params, target):
        with pytest.raises(ValueError, match="altitude"):
            sweep_rows(self._specs(), 6, target, default_params, [], seed=1)
