"""Tests for the optimal-geometry solver.

Oracle: a dense grid search over the elevation weight. The solver's output
must sit at the grid argmax and its weight must dominate every grid sample.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from formsense import (
    DisplacementSet,
    FormationGeometry,
    SensingParams,
    TargetEstimate,
    build_formation,
    crlb,
    elevation_weight,
    optimal_azimuths,
    optimal_elevation,
    theoretical_lower_bound,
)
from formsense.formation import _unit_polygon
from oracle import dense_offsets, pose_crlb, poses_of, target_fim

ZENITH_LIMIT_DEG = math.degrees(math.atan(math.sqrt(2.0)))  # 54.7356103...


def params_for_ratio(ratio: float, altitude: float = 20.0) -> SensingParams:
    """Parameters whose weight-curve coefficient ratio A/B equals ``ratio``.

    A = C / H^4 and B = 8 / H^2, so C = 8 * ratio * H^2. With the fixed
    plumbing below, C maps to transmit power as p = C / 1e10.
    """
    c = 8.0 * ratio * altitude**2
    return SensingParams(
        transmit_power_w=c / 1e10,
        processing_gain=1.0e3,
        ref_channel_power_m4=1.0e-5,
        kappa=1.0,
        noise_floor_w=1.0e-12,
        altitude_m=altitude,
    )


def grid_argmax(params: SensingParams, step_rad: float = 1e-4) -> float:
    grid = np.arange(0.001, math.pi / 2 - 0.001, step_rad)
    weights = elevation_weight(grid, params)
    return float(grid[np.argmax(weights)])


class TestOptimalElevation:
    @pytest.mark.parametrize("ratio", [1e-7, 1e-4, 1e-2, 0.5, 1.0, 2.0, 1e2, 1e4, 1e5])
    def test_matches_grid_search(self, ratio):
        params = params_for_ratio(ratio)
        phi = optimal_elevation(params)
        ref = grid_argmax(params)
        assert abs(phi - ref) < 2e-4

    @pytest.mark.parametrize("ratio", [1e-6, 1e-3, 1.0, 1e3, 1e6])
    def test_weight_dominates_grid(self, ratio):
        params = params_for_ratio(ratio)
        w_star = elevation_weight(optimal_elevation(params), params)
        grid = np.linspace(0.001, math.pi / 2 - 0.001, 10_000)
        assert w_star >= elevation_weight(grid, params).max()

    def test_high_snr_limit(self):
        phi = optimal_elevation(params_for_ratio(1e9))
        assert math.degrees(phi) == pytest.approx(ZENITH_LIMIT_DEG, abs=0.01)

    def test_low_snr_limit(self):
        phi = optimal_elevation(params_for_ratio(1e-9))
        assert math.degrees(phi) == pytest.approx(45.0, abs=0.01)

    def test_balanced_coefficients(self):
        # A == B collapses the stationarity quadratic to
        # tan^2(phi) = (1 + sqrt(3)) / 2, about 49.4497 degrees.
        phi = optimal_elevation(params_for_ratio(1.0))
        assert math.tan(phi) ** 2 == pytest.approx((1.0 + math.sqrt(3.0)) / 2.0, rel=1e-12)
        assert math.degrees(phi) == pytest.approx(49.44971443990562, abs=1e-9)

    def test_always_inside_open_interval(self):
        for exponent in np.linspace(-7.0, 7.0, 29):
            phi_deg = math.degrees(optimal_elevation(params_for_ratio(10.0**exponent)))
            assert 45.0 < phi_deg < ZENITH_LIMIT_DEG

    def test_monotone_in_altitude(self, default_params):
        """Flying higher shifts the balance toward the low-SNR 45-degree end."""
        import dataclasses

        altitudes = np.linspace(5.0, 2000.0, 60)
        phis = [
            optimal_elevation(dataclasses.replace(default_params, altitude_m=float(h)))
            for h in altitudes
        ]
        assert np.all(np.diff(phis) < 0.0)

    @pytest.mark.parametrize("ratio, limit_deg", [(1e13, ZENITH_LIMIT_DEG), (1e-13, 45.0)])
    def test_ratio_1e13_limits(self, ratio, limit_deg):
        phi = optimal_elevation(params_for_ratio(ratio))
        assert math.degrees(phi) == pytest.approx(limit_deg, abs=1e-5)

    def test_continuous_across_ratio_1e12(self):
        below = optimal_elevation(params_for_ratio(0.99e12))
        above = optimal_elevation(params_for_ratio(1.01e12))
        assert abs(below - above) < 1e-6


class TestOptimalAzimuths:
    def test_triangle(self):
        np.testing.assert_allclose(
            optimal_azimuths(3), [0.0, 2.0 * math.pi / 3.0, 4.0 * math.pi / 3.0], rtol=1e-12
        )

    def test_rotation_offset(self):
        theta = optimal_azimuths(4, initial_rotation_rad=0.5)
        np.testing.assert_allclose(np.diff(theta) % (2 * math.pi), math.pi / 2, rtol=1e-12)
        assert theta[0] == pytest.approx(0.5, rel=1e-12)

    def test_normalized_range(self):
        theta = optimal_azimuths(5, initial_rotation_rad=-11.0)
        assert np.all(theta >= 0.0)
        assert np.all(theta < 2.0 * math.pi)

    @pytest.mark.parametrize("count", range(3, 13))
    def test_second_harmonic_cancels(self, count):
        rng = np.random.default_rng(count)
        for rotation in (0.0, 0.37, float(rng.uniform(0, 2 * math.pi))):
            theta = optimal_azimuths(count, rotation)
            assert abs(np.exp(2j * theta).sum()) <= 1e-12

    @pytest.mark.parametrize("count", range(3, 13))
    def test_centroid_cancels(self, count):
        theta = optimal_azimuths(count, 1.1)
        assert abs(np.exp(1j * theta).sum()) <= 1e-12

    @pytest.mark.parametrize("count", [0, 1, 2])
    def test_too_few_agents(self, count):
        with pytest.raises(ValueError, match="at least 3 agents"):
            optimal_azimuths(count)

    def test_a_fractional_count_is_rejected(self):
        """6.5 agents once gave 7 azimuths spaced 2 pi / 6.5 apart."""
        with pytest.raises(ValueError, match="a whole number of at least 3 agents, got 6.5"):
            optimal_azimuths(6.5)


class TestTheoreticalLowerBound:
    def test_closed_form(self, default_params):
        w_star = elevation_weight(optimal_elevation(default_params), default_params)
        for count in range(3, 9):
            assert theoretical_lower_bound(default_params, count) == pytest.approx(
                4.0 / (count * w_star), rel=1e-12
            )

    def test_halves_when_fleet_doubles(self, default_params):
        b3 = theoretical_lower_bound(default_params, 3)
        b6 = theoretical_lower_bound(default_params, 6)
        assert b6 == pytest.approx(b3 / 2.0, rel=1e-12)

    def test_too_few_agents(self, default_params):
        with pytest.raises(ValueError, match="at least 3 agents"):
            theoretical_lower_bound(default_params, 2)

    def test_a_fractional_count_is_rejected(self, default_params):
        """6.5 agents once gave a bound below the one of 6 agents."""
        with pytest.raises(ValueError, match="a whole number of at least 3 agents, got 6.5"):
            theoretical_lower_bound(default_params, 6.5)
        assert theoretical_lower_bound(default_params, np.int64(6)) == theoretical_lower_bound(default_params, 6)


class TestBuildFormation:
    def test_centered_on_target(self, default_params, target):
        formation = build_formation(default_params, target, 6)
        centroid = formation.planar_positions.mean(axis=0)
        np.testing.assert_allclose(centroid, target.position, atol=1e-9)

    def test_ring_radius(self, default_params, target):
        formation = build_formation(default_params, target, 6)
        phi = optimal_elevation(default_params)
        assert formation.ring_radius_m == pytest.approx(
            default_params.altitude_m / math.tan(phi), rel=1e-12
        )

    def test_unit_polygon_is_one_cached_read_only_array(self, default_params, target):
        """The polygon depends on (M, rotation) only, so every ring of that pair rescales one array."""
        polygon = _unit_polygon(6, 0.77)
        assert _unit_polygon(6, 0.77) is polygon
        with pytest.raises(ValueError, match="read-only"):
            polygon[0, 0] = 0.0
        formation = build_formation(default_params, target, 6, initial_rotation_rad=0.77)
        ring = target.position + formation.ring_radius_m * polygon
        assert formation.planar_positions.tobytes() == ring.tobytes()
        # 6.0 and a 0-d array, which the cache could not tell from 6 or could not hash, are rejected, as is True.
        for count in (6.0, np.array(6), True):
            with pytest.raises(ValueError, match="a whole number of at least 3 agents, got"):
                build_formation(default_params, target, count)
        rotation = np.array(0.77)  # a 0-d array is not hashable, but any real scalar is a rotation
        assert build_formation(default_params, target, 6, rotation).planar_positions.tobytes() == ring.tobytes()

    def test_radius_approaches_altitude_at_low_snr(self, target):
        params = params_for_ratio(1e-9, altitude=20.0)
        formation = build_formation(params, target, 4)
        assert formation.ring_radius_m == pytest.approx(20.0, abs=1e-3)

    def test_information_matrix_is_isotropic(self, default_params, target):
        formation = build_formation(default_params, target, 5, initial_rotation_rad=0.9)
        poses = poses_of(formation.planar_positions, target, default_params)
        fim = target_fim(poses, default_params)
        assert abs(fim.j_xx - fim.j_yy) <= 1e-9 * fim.j_xx
        assert abs(fim.j_xy) <= 1e-9 * fim.j_xx

    @pytest.mark.parametrize("count", range(3, 9))
    def test_attains_lower_bound(self, default_params, target, count):
        formation = build_formation(default_params, target, count)
        bound = theoretical_lower_bound(default_params, count)
        assert crlb(formation.planar_positions, target, default_params) == pytest.approx(bound, rel=1e-9)

    def test_crlb_invariant_to_rotation(self, default_params, target):
        plain = build_formation(default_params, target, 6)
        spun = build_formation(default_params, target, 6, initial_rotation_rad=0.77)
        spun_crlb = crlb(spun.planar_positions, target, default_params)
        assert spun_crlb == pytest.approx(crlb(plain.planar_positions, target, default_params), rel=1e-12)
        leader = spun.planar_positions[0] - target.position
        assert math.atan2(leader[1], leader[0]) == pytest.approx(0.77, rel=1e-12)

    def test_no_random_formation_does_better(self, default_params, target):
        formation = build_formation(default_params, target, 6)
        best = crlb(formation.planar_positions, target, default_params)
        rng = np.random.default_rng(101)
        for _ in range(200):
            positions = target.position + rng.uniform(-60.0, 60.0, size=(6, 2))
            assert pose_crlb(positions, target, default_params) >= best * (1.0 - 1e-12)

    def test_too_few_agents(self, default_params, target):
        with pytest.raises(ValueError, match="at least 3 agents"):
            build_formation(default_params, target, 2)


class TestFormationGeometryValidation:
    def _at(self, radius, azimuth_deg, target):
        return target.position + radius * np.array(
            [math.cos(math.radians(azimuth_deg)), math.sin(math.radians(azimuth_deg))]
        )

    def _geometry(self, points, target, params):
        return FormationGeometry(
            planar_positions=np.array([self._at(r, a, target) for r, a in points]),
            center=target.position,
            ring_radius_m=10.0,
            elevation_rad=math.atan2(params.altitude_m, 10.0),
        )

    def test_unequal_radii_rejected(self, default_params, target):
        with pytest.raises(ValueError, match="equidistant"):
            self._geometry([(10.0, 0.0), (10.0, 120.0), (12.0, 240.0)], target, default_params)

    def test_irregular_azimuths_rejected(self, default_params, target):
        with pytest.raises(ValueError, match="regular polygon"):
            self._geometry([(10.0, 0.0), (10.0, 100.0), (10.0, 240.0)], target, default_params)

    def test_regular_triangle_accepted(self, default_params, target):
        triangle = [(10.0, 0.0), (10.0, 120.0), (10.0, 240.0)]
        geometry = self._geometry(triangle, target, default_params)
        assert geometry.agent_count == 3
        assert not geometry.planar_positions.flags.writeable

    def test_too_few_agents_rejected(self, default_params, target):
        with pytest.raises(ValueError, match="at least 3 agents"):
            self._geometry([(10.0, 0.0), (10.0, 180.0)], target, default_params)


class TestDisplacementSet:
    def test_offsets_match_position_differences(self, default_params, target):
        formation = build_formation(default_params, target, 4)
        disp = DisplacementSet(formation.planar_positions)
        q = formation.planar_positions
        r = disp.reference
        assert not r.flags.writeable
        for p in range(4):
            for m in range(4):
                np.testing.assert_allclose(r[p] - r[m], q[p] - q[m], rtol=1e-12)

    def test_zero_diagonal_and_antisymmetry(self, default_params, target):
        disp = DisplacementSet(build_formation(default_params, target, 6).planar_positions)
        offsets = dense_offsets(disp.reference)
        assert np.all(offsets[np.arange(6), np.arange(6)] == 0.0)
        assert np.array_equal(offsets, -offsets.transpose(1, 0, 2))

    def test_chain_consistency(self, default_params, target):
        disp = DisplacementSet(build_formation(default_params, target, 5, 0.3).planar_positions)
        o = dense_offsets(disp.reference)
        scale = np.abs(o).max()
        for p in range(5):
            for m in range(5):
                for r in range(5):
                    gap = o[p, m] + o[m, r] - o[p, r]
                    assert np.abs(gap).max() <= 1e-12 * scale

    def test_triangle_diameter_is_chord(self, default_params, target):
        formation = build_formation(default_params, target, 3)
        disp = DisplacementSet(formation.planar_positions)
        assert disp.nominal_diameter_m == pytest.approx(
            formation.ring_radius_m * math.sqrt(3.0), rel=1e-9
        )

    def test_hexagon_diameter_is_twice_radius(self, default_params, target):
        formation = build_formation(default_params, target, 6)
        disp = DisplacementSet(formation.planar_positions)
        assert disp.nominal_diameter_m == pytest.approx(2.0 * formation.ring_radius_m, rel=1e-9)

    def test_diameter_matches_brute_force(self, default_params, target):
        formation = build_formation(default_params, target, 7, 0.2)
        disp = DisplacementSet(formation.planar_positions)
        q = formation.planar_positions
        brute = max(
            float(np.linalg.norm(q[i] - q[j])) for i in range(7) for j in range(i + 1, 7)
        )
        assert disp.nominal_diameter_m == pytest.approx(brute, rel=1e-12)

    # The diameter is taken over (rows, M) blocks of 2**16 // M rows; from M = 257 on there are several.
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.integers(1, 700), st.integers(0, 2**32 - 1), st.booleans())
    def test_diameter_equals_dense_oracle_bit_for_bit(self, agents, seed, snap):
        rng = np.random.default_rng(seed)
        reference = 10.0 ** rng.uniform(-2.0, 4.0) * rng.uniform(-1.0, 1.0, size=(agents, 2))
        if snap:  # ties between pairs in different blocks
            reference = np.round(reference)
        o = dense_offsets(reference)
        want = math.sqrt(float((o[..., 0] * o[..., 0] + o[..., 1] * o[..., 1]).max()))
        assert DisplacementSet(reference).nominal_diameter_m == want

    def test_rejects_bad_shape(self):
        for bad in (np.zeros((3, 3)), np.zeros((3, 3, 2)), np.zeros((0, 2))):
            with pytest.raises(ValueError, match="reference"):
                DisplacementSet(reference=bad)

    def test_rejects_non_finite_reference(self):
        with pytest.raises(ValueError, match="finite"):
            DisplacementSet(reference=[[0.0, 0.0], [np.nan, 1.0]])
