"""Tests for the range-measurement model and Fisher information pieces.

The independent oracle here is the plain measurement chain: noise variance
sigma^2 = d^4 / C, per-range information 1/sigma^2 + (1/(2 sigma^4)) * (4 sigma^2 / d)^2,
evaluated step by step with no algebraic simplification.  The library's
closed forms must agree with that chain to float precision.

The pose-based information chain (``oracle.py``) is in turn the oracle for
the library's array-native :func:`formsense.crlb`, checked in ``TestCrlb``
with property tests.
"""

import copy
import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from formsense import (
    BenchmarkSpec,
    SensingParams,
    TargetEstimate,
    benchmark_positions,
    build_formation,
    crlb,
    elevation_weight,
    optimal_elevation,
    theoretical_lower_bound,
)
from formsense.sensing import AgentPose
from oracle import (
    BOUND_BUDGET,
    CRLB_BUDGET,
    ELEVATION_BUDGET,
    OFF_RING_BUDGET,
    RING_BUDGET,
    SPEED_OF_LIGHT,
    Fim2,
    SingularGeometryError,
    bisect_weight_peak,
    crlb_trace,
    decimal_bound,
    decimal_elevation,
    exact_crlb,
    exact_fim,
    pose_crlb,
    pose_from_angles,
    poses_of,
    strided_crlb,
    delay_to_range,
    gauss_newton_mse,
    jacobian,
    likelihood_fim,
    noise_variance,
    range_fim_element,
    slant_range,
    target_fim,
)


def unit_snr_params(altitude: float = 2.0) -> SensingParams:
    """Parameters whose composite SNR constant is exactly 1 m^4."""
    return SensingParams(
        transmit_power_w=1.0,
        processing_gain=1.0,
        ref_channel_power_m4=1.0,
        kappa=1.0,
        noise_floor_w=1.0,
        altitude_m=altitude,
    )


def chain_info(distance: float, params: SensingParams) -> float:
    # Deliberately unsimplified: variance first, then the two CRLB terms.
    var = distance**4 / params.composite_snr_m4
    return 1.0 / var + (1.0 / (2.0 * var**2)) * (4.0 * var / distance) ** 2


class TestSensingParams:
    def test_composite_snr_default(self, default_params):
        assert default_params.composite_snr_m4 == pytest.approx(1.0e9, rel=1e-12)

    def test_composite_snr_scales_with_power(self, default_params):
        doubled = dataclasses.replace(default_params, transmit_power_w=0.2)
        assert doubled.composite_snr_m4 == pytest.approx(
            2.0 * default_params.composite_snr_m4, rel=1e-12
        )

    @pytest.mark.parametrize(
        "field, value",
        [
            ("transmit_power_w", 0.0),
            ("transmit_power_w", -1.0),
            ("processing_gain", 0.0),
            ("ref_channel_power_m4", -1e-5),
            ("kappa", 0.0),
            ("noise_floor_w", 0.0),
            ("altitude_m", 0.0),
            ("altitude_m", -5.0),
        ],
    )
    def test_rejects_nonpositive_fields(self, default_params, field, value):
        with pytest.raises(ValueError):
            dataclasses.replace(default_params, **{field: value})

    @pytest.mark.parametrize(
        "changes",
        [
            {"transmit_power_w": 1e300, "processing_gain": 1e300},  # C overflows to inf
            {"transmit_power_w": 1e150, "processing_gain": 1e150, "altitude_m": 1e-3},
            {"altitude_m": 1e-90},  # h^4 underflows: below the altitude interval, checked first
            {"transmit_power_w": 1.1e90, "altitude_m": 1.0},  # C / h^4 = 1.1e100
        ],
    )
    def test_rejects_snr_above_ceiling(self, default_params, changes):
        message = "SNR"
        if changes.get("altitude_m") == 1e-90:
            message = r"SensingParams.altitude_m: must lie in \[0.001, 1e\+06\], got 1e-90"
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(default_params, **changes)

    def test_underflowing_noise_power_fails_the_ceiling(self, default_params):
        # kappa * sigma0^2 = 5e-324 * 1e-12 underflows to 0; C itself overflows to inf.
        with pytest.raises(ValueError, match="SNR"):
            dataclasses.replace(default_params, kappa=5.0e-324)

    def test_snr_at_ceiling_keeps_crlb_finite(self, default_params, target):
        # C / h^4 = 1e100 at h = 1 m, the largest SNR accepted.
        params = dataclasses.replace(default_params, transmit_power_w=1e90, altitude_m=1.0)
        ring = target.position + np.array([[1.0, 0.0], [-0.5, 0.8], [-0.5, -0.8]])
        assert math.isfinite(crlb(ring, target, params))

    def test_extreme_altitude_with_small_snr_rejected(self, default_params):
        # h^4 overflows a float at 1e90 m, and optimal_elevation with it, however small the SNR.
        message = r"SensingParams.altitude_m: must lie in \[0.001, 1e\+06\], got 1e\+90"
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(default_params, altitude_m=1e90)


class TestSlantRange:
    def test_directly_overhead(self, default_params, target):
        assert slant_range(np.array([80.0, 90.0]), target, default_params) == 20.0

    def test_three_four_five(self):
        params = unit_snr_params(altitude=1e-3)
        tgt = TargetEstimate(np.array([3.0, 4.0]))
        d = slant_range(np.array([0.0, 0.0]), tgt, params)
        assert d == pytest.approx(math.hypot(5.0, 1e-3), abs=1e-8)

    def test_lateral_offset(self, default_params, target):
        d = slant_range(np.array([60.0, 90.0]), target, default_params)
        assert d == pytest.approx(math.sqrt(800.0), rel=1e-12)

    def test_never_below_altitude(self, default_params, target):
        rng = np.random.default_rng(7)
        for _ in range(200):
            q = rng.uniform(-200.0, 200.0, size=2)
            assert slant_range(q, target, default_params) >= default_params.altitude_m


class TestDelayToRange:
    def test_zero_delay(self):
        assert delay_to_range(0.0) == 0.0

    def test_one_microsecond(self):
        assert delay_to_range(1e-6) == pytest.approx(149.896229, abs=1e-6)

    def test_round_trip_metre(self):
        assert delay_to_range(2.0 / SPEED_OF_LIGHT) == pytest.approx(1.0, rel=1e-12)

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            delay_to_range(-1e-9)


class TestNoiseVariance:
    def test_unit_distance_unit_snr(self):
        assert noise_variance(1.0, unit_snr_params()) == pytest.approx(1.0, rel=1e-12)

    def test_fourth_power_growth(self):
        assert noise_variance(2.0, unit_snr_params()) == pytest.approx(16.0, rel=1e-12)

    def test_more_power_less_noise(self, default_params):
        stronger = dataclasses.replace(default_params, transmit_power_w=0.2)
        ratio = noise_variance(50.0, stronger) / noise_variance(50.0, default_params)
        assert ratio == pytest.approx(0.5, rel=1e-12)

    def test_vectorized_matches_scalar(self, default_params):
        d = np.array([10.0, 25.0, 40.0, 120.0])
        vec = noise_variance(d, default_params)
        assert vec.shape == d.shape
        for i, di in enumerate(d):
            assert vec[i] == noise_variance(float(di), default_params)

    def test_nonpositive_distance_rejected(self, default_params):
        with pytest.raises(ValueError):
            noise_variance(0.0, default_params)


class TestRangeFimElement:
    def test_unit_case(self):
        # 1/sigma^2 = 1 and 8/d^2 = 8 at d = 1, C = 1.
        assert range_fim_element(1.0, unit_snr_params()) == pytest.approx(9.0, rel=1e-12)

    def test_matches_unsimplified_chain(self, default_params):
        rng = np.random.default_rng(21)
        for _ in range(100):
            d = float(rng.uniform(0.5, 500.0))
            scale = float(rng.uniform(0.01, 100.0))
            params = dataclasses.replace(default_params, transmit_power_w=0.1 * scale)
            got = range_fim_element(d, params)
            assert got == pytest.approx(chain_info(d, params), rel=1e-12)

    def test_strictly_decreasing_in_distance(self, default_params):
        d = np.linspace(5.0, 400.0, 300)
        info = range_fim_element(d, default_params)
        assert np.all(np.diff(info) < 0.0)

    def test_positive_everywhere(self, default_params):
        d = np.logspace(-1, 4, 50)
        assert np.all(range_fim_element(d, default_params) > 0.0)


class TestElevationWeight:
    def test_matches_range_info_times_bearing_factor(self, default_params):
        rng = np.random.default_rng(33)
        for _ in range(100):
            phi = float(rng.uniform(0.05, math.pi / 2 - 0.05))
            d = default_params.altitude_m / math.sin(phi)
            expected = range_fim_element(d, default_params) * math.cos(phi) ** 2
            assert elevation_weight(phi, default_params) == pytest.approx(expected, rel=1e-12)

    def test_low_snr_limit_at_45_degrees(self):
        # With the composite constant driven to ~0 only the 8 sin^2/H^2 term
        # survives: 8 * 0.5 / 4 * 0.5 = 0.5 at H = 2.
        params = SensingParams(
            transmit_power_w=1e-30,
            processing_gain=1.0,
            ref_channel_power_m4=1.0,
            kappa=1.0,
            noise_floor_w=1.0,
            altitude_m=2.0,
        )
        w = elevation_weight(math.radians(45.0), params)
        assert w == pytest.approx(0.5, abs=1e-6)

    def test_vanishes_toward_grazing_and_zenith(self, default_params):
        near_zero = elevation_weight(1e-6, default_params)
        near_top = elevation_weight(math.pi / 2 - 1e-6, default_params)
        mid = elevation_weight(math.radians(50.0), default_params)
        assert near_zero < 1e-3 * mid
        assert near_top < 1e-3 * mid

    def test_vectorized(self, default_params):
        phi = np.linspace(0.1, 1.4, 7)
        w = elevation_weight(phi, default_params)
        assert w.shape == phi.shape
        assert np.all(w > 0.0)

    def test_out_of_range_rejected(self, default_params):
        with pytest.raises(ValueError):
            elevation_weight(0.0, default_params)
        with pytest.raises(ValueError):
            elevation_weight(math.pi / 2, default_params)

    def test_nan_rejected(self, default_params):
        # NaN lies in no interval, as errors.check_interval has it.
        with pytest.raises(ValueError, match=r"strictly inside \(0, pi/2\)"):
            elevation_weight(math.nan, default_params)
        with pytest.raises(ValueError, match=r"strictly inside \(0, pi/2\)"):
            elevation_weight(np.array([0.5, math.nan, 0.7]), default_params)


class TestAgentPose:
    def test_from_position_angles(self, default_params, target):
        pose = AgentPose.from_position(np.array([100.0, 90.0]), target, default_params)
        # 20 m east of target at 20 m altitude: 45 deg elevation, 0 azimuth.
        assert pose.elevation_rad == pytest.approx(math.radians(45.0), rel=1e-12)
        assert pose.azimuth_rad == pytest.approx(0.0, abs=1e-12)

    def test_from_angles_round_trip(self, default_params, target):
        rng = np.random.default_rng(5)
        for _ in range(50):
            phi = float(rng.uniform(0.1, 1.4))
            theta = float(rng.uniform(0.0, 2.0 * math.pi))
            pose = pose_from_angles(phi, theta, target, default_params)
            back = AgentPose.from_position(pose.planar_position, target, default_params)
            assert back.elevation_rad == pytest.approx(phi, rel=1e-9)
            assert back.azimuth_rad == pytest.approx(theta % (2.0 * math.pi), abs=1e-9)

    def test_azimuth_normalized(self, default_params, target):
        pose = pose_from_angles(0.8, -math.pi / 2, target, default_params)
        assert pose.azimuth_rad == pytest.approx(1.5 * math.pi, rel=1e-12)

    def test_directly_above_target_rejected(self, default_params, target):
        with pytest.raises(ValueError):
            AgentPose.from_position(np.array([80.0, 90.0]), target, default_params)

    @pytest.mark.parametrize("phi", [0.0, math.pi / 2, -0.3, 2.0])
    def test_bad_elevation_rejected(self, default_params, target, phi):
        with pytest.raises(ValueError):
            pose_from_angles(phi, 0.0, target, default_params)

    def test_compares_and_hashes_by_identity(self):
        """== on the position array would raise; a pose is equal to itself only."""
        pose = AgentPose(np.array([1.0, 2.0]), 0.5, 0.0)
        assert pose == pose
        assert (pose == copy.deepcopy(pose)) is False
        assert hash(pose) == hash(pose)


class TestJacobian:
    def test_single_row_values(self, default_params, target):
        pose = pose_from_angles(math.radians(60.0), math.radians(90.0), target, default_params)
        row = jacobian([pose])
        assert row.shape == (1, 2)
        assert row[0, 0] == pytest.approx(0.0, abs=1e-12)
        assert row[0, 1] == pytest.approx(0.5, rel=1e-12)

    def test_limits(self, default_params, target):
        low = pose_from_angles(1e-9, 0.0, target, default_params)
        high = pose_from_angles(math.pi / 2 - 1e-9, 0.0, target, default_params)
        rows = jacobian([low, high])
        assert rows[0] == pytest.approx([1.0, 0.0], abs=1e-8)
        assert rows[1] == pytest.approx([0.0, 0.0], abs=1e-8)

    def test_row_norm_is_cos_elevation(self, default_params, target):
        rng = np.random.default_rng(11)
        poses = [
            pose_from_angles(float(rng.uniform(0.1, 1.4)), float(rng.uniform(0, 6.0)),
                             target, default_params)
            for _ in range(20)
        ]
        rows = jacobian(poses)
        norms = np.linalg.norm(rows, axis=1)
        expected = np.cos([p.elevation_rad for p in poses])
        np.testing.assert_allclose(norms, expected, rtol=1e-12)


class TestTargetFim:
    def test_single_agent_along_x(self, default_params, target):
        pose = pose_from_angles(0.9, 0.0, target, default_params)
        fim = target_fim([pose], default_params)
        w = elevation_weight(0.9, default_params)
        assert fim.j_xx == pytest.approx(w, rel=1e-12)
        assert fim.j_yy == pytest.approx(0.0, abs=1e-9)
        assert fim.j_xy == pytest.approx(0.0, abs=1e-9)

    def test_orthogonal_pair_is_isotropic(self, default_params, target):
        poses = [
            pose_from_angles(0.9, 0.0, target, default_params),
            pose_from_angles(0.9, math.pi / 2, target, default_params),
        ]
        fim = target_fim(poses, default_params)
        w = elevation_weight(0.9, default_params)
        assert fim.j_xx == pytest.approx(w, rel=1e-9)
        assert fim.j_yy == pytest.approx(w, rel=1e-9)
        assert fim.j_xy == pytest.approx(0.0, abs=1e-9 * w)

    def test_equilateral_triangle(self, default_params, target):
        phi = 0.8
        poses = [
            pose_from_angles(phi, math.radians(a), target, default_params)
            for a in (0.0, 120.0, 240.0)
        ]
        fim = target_fim(poses, default_params)
        w = elevation_weight(phi, default_params)
        assert fim.j_xx == pytest.approx(1.5 * w, rel=1e-9)
        assert fim.j_yy == pytest.approx(1.5 * w, rel=1e-9)
        assert fim.j_xy == pytest.approx(0.0, abs=1e-9 * w)

    def test_trace_equals_weight_sum(self, default_params, target):
        rng = np.random.default_rng(17)
        for _ in range(50):
            poses = [
                pose_from_angles(float(rng.uniform(0.1, 1.4)), float(rng.uniform(0, 6.2)),
                                 target, default_params)
                for _ in range(int(rng.integers(1, 9)))
            ]
            fim = target_fim(poses, default_params)
            total = sum(elevation_weight(p.elevation_rad, default_params) for p in poses)
            assert fim.trace == pytest.approx(total, rel=1e-12)

    def test_matches_explicit_quadratic_form(self, default_params, target):
        # Oracle: J = sum_m w_m * u_m u_m^T with u_m = (cos theta, sin theta).
        rng = np.random.default_rng(29)
        poses = [
            pose_from_angles(float(rng.uniform(0.2, 1.3)), float(rng.uniform(0, 6.2)),
                             target, default_params)
            for _ in range(6)
        ]
        expected = np.zeros((2, 2))
        for p in poses:
            w = elevation_weight(p.elevation_rad, default_params)
            u = np.array([math.cos(p.azimuth_rad), math.sin(p.azimuth_rad)])
            expected += w * np.outer(u, u)
        fim = target_fim(poses, default_params)
        np.testing.assert_allclose(fim.as_matrix(), expected, rtol=1e-12)

    def test_permutation_invariance(self, default_params, target):
        rng = np.random.default_rng(41)
        poses = [
            pose_from_angles(float(rng.uniform(0.2, 1.3)), float(rng.uniform(0, 6.2)),
                             target, default_params)
            for _ in range(5)
        ]
        fim_a = target_fim(poses, default_params)
        fim_b = target_fim(poses[::-1], default_params)
        assert fim_a.j_xx == pytest.approx(fim_b.j_xx, rel=1e-12)
        assert fim_a.j_yy == pytest.approx(fim_b.j_yy, rel=1e-12)
        assert fim_a.j_xy == pytest.approx(fim_b.j_xy, rel=1e-12)

    def test_rotation_covariance(self, default_params, target):
        """Rotating every azimuth by alpha conjugates J and leaves the CRLB alone."""
        rng = np.random.default_rng(43)
        for _ in range(20):
            alpha = float(rng.uniform(0.0, 2.0 * math.pi))
            angles = rng.uniform(0.0, 2.0 * math.pi, size=5)
            phis = rng.uniform(0.2, 1.3, size=5)
            base = [
                pose_from_angles(float(p), float(t), target, default_params)
                for p, t in zip(phis, angles)
            ]
            spun = [
                pose_from_angles(float(p), float(t + alpha), target, default_params)
                for p, t in zip(phis, angles)
            ]
            j0 = target_fim(base, default_params).as_matrix()
            j1 = target_fim(spun, default_params).as_matrix()
            c, s = math.cos(alpha), math.sin(alpha)
            rot = np.array([[c, -s], [s, c]])
            np.testing.assert_allclose(j1, rot @ j0 @ rot.T, rtol=1e-9, atol=1e-9 * np.trace(j0))
            assert crlb_trace(target_fim(spun, default_params)) == pytest.approx(
                crlb_trace(target_fim(base, default_params)), rel=1e-10
            )

    def test_empty_pose_list_rejected(self, default_params):
        with pytest.raises(ValueError):
            target_fim([], default_params)


class TestFim2:
    def test_trace_and_det(self):
        fim = Fim2(3.0, 2.0, 1.0)
        assert fim.trace == 5.0
        assert fim.det == pytest.approx(5.0, rel=1e-12)

    def test_eigenvalues_sorted(self):
        fim = Fim2(4.0, 1.0, 0.0)
        lo, hi = fim.eigenvalues()
        assert (lo, hi) == (1.0, 4.0)

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError):
            Fim2(1.0, 1.0, 2.0)
        with pytest.raises(ValueError):
            Fim2(-1.0, 1.0, 0.0)


class TestCrlbTrace:
    def test_isotropic(self):
        assert crlb_trace(Fim2(2.0, 2.0, 0.0)) == pytest.approx(1.0, rel=1e-12)

    def test_correlated(self):
        assert crlb_trace(Fim2(2.0, 2.0, 1.0)) == pytest.approx(4.0 / 3.0, rel=1e-12)

    def test_matches_inverse_eigenvalues(self):
        rng = np.random.default_rng(59)
        for _ in range(100):
            alpha = float(rng.uniform(0.0, math.pi))
            d1, d2 = rng.uniform(0.1, 10.0, size=2)
            c, s = math.cos(alpha), math.sin(alpha)
            rot = np.array([[c, -s], [s, c]])
            mat = rot @ np.diag([d1, d2]) @ rot.T
            fim = Fim2(mat[0, 0], mat[1, 1], mat[0, 1])
            assert crlb_trace(fim) == pytest.approx(1.0 / d1 + 1.0 / d2, rel=1e-9)

    def test_trace_bound_equality_only_when_isotropic(self):
        rng = np.random.default_rng(61)
        for _ in range(200):
            alpha = float(rng.uniform(0.0, math.pi))
            d1, d2 = rng.uniform(0.1, 10.0, size=2)
            c, s = math.cos(alpha), math.sin(alpha)
            rot = np.array([[c, -s], [s, c]])
            mat = rot @ np.diag([d1, d2]) @ rot.T
            fim = Fim2(mat[0, 0], mat[1, 1], mat[0, 1])
            floor = 4.0 / fim.trace
            assert crlb_trace(fim) >= floor * (1.0 - 1e-12)
            if abs(d1 - d2) > 1e-6 * (d1 + d2):
                assert crlb_trace(fim) > floor
        scalar = Fim2(3.7, 3.7, 0.0)
        assert crlb_trace(scalar) == pytest.approx(4.0 / scalar.trace, rel=1e-12)

    def test_singular_matrix_raises(self):
        with pytest.raises(SingularGeometryError):
            crlb_trace(Fim2(1.0, 0.0, 0.0))

    def test_near_singular_raises(self):
        # Collinear agents: rank-one information matrix up to rounding.
        with pytest.raises(SingularGeometryError):
            crlb_trace(Fim2(5.0, 5.0e-13, 0.0))


# Property tests run a fixed example sequence so the suite is reproducible.
PROPERTY = settings(max_examples=150, deadline=None, derandomize=True)


def log_uniform(lo_exp: float, hi_exp: float):
    return st.floats(lo_exp, hi_exp).map(lambda e: 10.0**e)


@st.composite
def formations(draw, batch=(), agents=st.integers(1, 8), radius=st.floats(0.5, 300.0)):
    """Planar positions of shape (*batch, M, 2) around the shared test target.

    Agents sit at a nonzero horizontal distance, so no agent is directly above
    the target; repeated bearings (hypothesis likes them) give singular rows.
    """
    count = draw(agents)
    cells = int(np.prod(batch, dtype=int)) * count
    radii = np.array(draw(st.lists(radius, min_size=cells, max_size=cells)))
    bearings = np.array(
        draw(st.lists(st.floats(0.0, 2.0 * math.pi), min_size=cells, max_size=cells))
    )
    offsets = radii[:, None] * np.column_stack([np.cos(bearings), np.sin(bearings)])
    return (TARGET.position + offsets).reshape(*batch, count, 2)


TARGET = TargetEstimate(np.array([80.0, 90.0]))


@st.composite
def far_and_near_formations(draw):
    """Positions (*batch, M, 2), batch (), (B,) or (B1, B2), at 1 mm to 1000 km from the target.

    Returns the positions and whether one row puts all its agents on one line through the target
    (a singular J) and whether another puts an agent exactly over it.
    """
    batch = tuple(draw(st.lists(st.integers(1, 4), max_size=2)))
    count = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bearings = rng.uniform(0.0, 2.0 * math.pi, (*batch, count))
    collinear, overhead = draw(st.booleans()), draw(st.booleans())
    if collinear:  # the first row's agents on both sides of one bearing
        row = bearings.reshape(-1, count)[0]
        row[:] = row[0] + math.pi * (rng.random(count) < 0.5)
    radii = 10.0 ** rng.uniform(-3.0, 6.0, bearings.shape)
    positions = TARGET.position + radii[..., None] * np.stack([np.cos(bearings), np.sin(bearings)], axis=-1)
    if overhead:  # one agent of the last row exactly over the target
        positions.reshape(-1, count, 2)[-1, rng.integers(count)] = TARGET.position
    return positions, collinear, overhead


def snr_params(altitude: float, snr: float) -> SensingParams:
    """Unit parameters but the transmit power, which sets the SNR C / H^4, rounded under its ceiling."""
    composite = snr * altitude**4
    while composite / altitude / altitude / altitude / altitude > 1e100:
        composite = math.nextafter(composite, 0.0)
    return dataclasses.replace(unit_snr_params(altitude), transmit_power_w=composite)


def regime_params(altitude: float, snr: float) -> SensingParams:
    """Parameters with the given altitude and composite SNR constant (m^4)."""
    return SensingParams(
        transmit_power_w=snr * 1e-10,
        processing_gain=1.0e3,
        ref_channel_power_m4=1.0e-5,
        kappa=1.0,
        noise_floor_w=1.0e-12,
        altitude_m=altitude,
    )


class TestCrlb:
    @PROPERTY
    @given(
        far_and_near_formations(),
        log_uniform(-3.0, 6.0),
        st.sampled_from([1e-80, 1e100]) | log_uniform(-80.0, 100.0),
    )
    def test_equals_the_strided_kernel_bit_for_bit(self, drawn, altitude, snr):
        """The contiguous in-place planes give the doubles the strided views of q - s gave."""
        positions, collinear, overhead = drawn
        params = snr_params(altitude, snr)
        got, want = crlb(positions, TARGET, params), strided_crlb(positions, TARGET, params)
        assert type(got) is type(want)
        assert np.shape(got) == np.shape(want) == positions.shape[:-2]
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
        if collinear:
            assert np.isnan(np.reshape(got, -1)[0])
        if overhead:
            assert np.isnan(np.reshape(got, -1)[-1])

    @PROPERTY
    @given(st.data(), st.integers(1, 5))
    def test_batch_rows_equal_single_calls_bit_for_bit(self, data, rows):
        params = regime_params(20.0, 1e9)
        batch = data.draw(formations(batch=(rows,), agents=st.integers(1, 12)))
        values = crlb(batch, TARGET, params)
        assert values.shape == (rows,)
        for row, value in zip(batch, values):
            single = crlb(row, TARGET, params)
            assert isinstance(single, float)
            if np.isnan(value):
                assert math.isnan(single)
            else:
                assert np.float64(single).tobytes() == value.tobytes()

    @PROPERTY
    @given(st.data(), log_uniform(0.0, 3.0), log_uniform(6.0, 12.0))
    def test_matches_pose_oracle(self, data, altitude, snr):
        # Elevations from 0.6 to 89.4 degrees: nearer the zenith the oracle's
        # cos(atan2(H, |d|)) itself loses digits, as H / |d| ulps.
        radius = st.floats(-2.0, 2.0).map(lambda e: altitude * 10.0**e)
        positions = data.draw(formations(radius=radius))
        params = regime_params(altitude, snr)
        fim = target_fim(poses_of(positions, TARGET, params), params)
        ratio = fim.det / fim.trace**2
        if ratio < 1e-6:
            return
        # Both chains round J's entries to an ulp or so; det = j_xx j_yy - j_xy^2
        # magnifies that by tr^2 / det, so below ratio 1e-3 the agreement
        # degrades as 1 / ratio. Seen: two agents at ratio 7.3e-6 differ by
        # 2.8e-11, with crlb's J equal to the exact J rounded, entry by entry.
        tolerance = max(1e-12, 1e-15 / ratio)
        assert crlb(positions, TARGET, params) == pytest.approx(crlb_trace(fim), rel=tolerance)

    @PROPERTY
    @given(
        st.data(),
        log_uniform(-3.0, 6.0),
        log_uniform(-80.0, 100.0),
        st.integers(3, 8),
    )
    def test_bound_never_beaten_and_attained_by_the_ring(self, data, altitude, snr, count):
        # The whole domain a config accepts: altitudes of 1 mm to 1000 km and
        # SNRs C / H^4 up to the ceiling of 1e100, which C = snr H^4 may round past.
        params = snr_params(altitude, snr)
        phi = optimal_elevation(params)
        assert abs(phi - bisect_weight_peak(params)) <= 1e-15
        assert math.pi / 4.0 <= phi <= math.atan(math.sqrt(2.0))
        bound = theoretical_lower_bound(params, count)
        ring = build_formation(params, TARGET, count)
        assert crlb(ring.planar_positions, TARGET, params) == pytest.approx(bound, rel=RING_BUDGET)
        cloud = data.draw(
            formations(
                batch=(4,),
                agents=st.just(count),
                radius=st.floats(-2.0, 2.0).map(lambda e: altitude * 10.0**e),
            )
        )
        values = crlb(cloud, TARGET, params)
        finite = values[~np.isnan(values)]
        assert np.all(finite >= bound * (1.0 - RING_BUDGET))

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        log_uniform(-3.0, 6.0),
        log_uniform(-80.0, 100.0),
        st.integers(3, 12),
        st.floats(0.0, 2.0 * math.pi),
    )
    def test_ring_and_bound_within_their_rounding_budgets(self, altitude, snr, count, rotation):
        """Against exact references: crlb of the float ring in Fraction, the bound at 60 digits."""
        params = snr_params(altitude, snr)
        positions = build_formation(params, TARGET, count, rotation).planar_positions
        exact, bound = exact_crlb(positions, TARGET, params), Fraction(decimal_bound(params, count))
        assert abs(Fraction(crlb(positions, TARGET, params)) - exact) <= CRLB_BUDGET * exact
        assert abs(Fraction(theoretical_lower_bound(params, count)) - bound) <= BOUND_BUDGET * bound
        assert exact >= bound * (1 - Fraction(1, 10**50))  # the 60-digit bound's own rounding

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        log_uniform(-3.0, 6.0),
        st.sampled_from([1e-80, 1e100]) | log_uniform(-80.0, 100.0),
        st.integers(2, 12),
        st.integers(0, 2**32 - 1),
        st.floats(-7.0, 0.0),
    )
    def test_off_the_ring_within_its_conditioned_budget(self, altitude, snr, count, seed, spread):
        """crlb against the exact CRLB of the same float positions, relative to tr(J)^2 / det(J).

        Bearings spread over 2 pi 10^spread: nearly collinear formations have a large tr^2 / det,
        up to the singularity rule's 1e12.
        """
        params = snr_params(altitude, snr)
        rng = np.random.default_rng(seed)
        bearings = rng.uniform(0.0, 2.0 * math.pi) + 2.0 * math.pi * 10.0**spread * rng.random(count)
        radii = altitude * 10.0 ** rng.uniform(-2.0, 2.0, count)
        positions = TARGET.position + radii[:, None] * np.column_stack([np.cos(bearings), np.sin(bearings)])
        value = crlb(positions, TARGET, params)
        if math.isnan(value):
            return
        j_xx, j_yy, j_xy = exact_fim(positions, TARGET, params)
        trace, det = j_xx + j_yy, j_xx * j_yy - j_xy * j_xy
        exact = trace / det
        assert abs(Fraction(value) - exact) <= OFF_RING_BUDGET * (trace * trace / det) * exact

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(log_uniform(-3.0, 6.0), log_uniform(-80.0, 100.0), log_uniform(-8.0, 8.0), st.booleans())
    @example(1e-3, 1e-80, 1.0, False)
    @example(1e-3, 1e100, 1.0, False)
    @example(1e6, 1e-80, 1.0, False)
    @example(1e6, 1e100, 1.0, False)
    def test_elevation_within_its_rounding_budget(self, altitude, snr, knee, at_knee):
        """optimal_elevation against its 60-digit value, over the config domain with its corners.

        Half the draws sit near the knee C H^2 / 8 = 1, where the optimum turns from 45 degrees
        toward arctan(sqrt(2)); a log-uniform SNR alone lands mostly far to either side.
        """
        if at_knee:
            snr = min(max(8.0 * knee / altitude**2, 1e-80), 1e100)
        params = snr_params(altitude, snr)
        exact = Fraction(decimal_elevation(params))
        assert abs(Fraction(optimal_elevation(params)) - exact) <= ELEVATION_BUDGET * exact

    def test_singular_line_is_nan_alone_and_in_a_batch(self, default_params, target):
        line = benchmark_positions(
            BenchmarkSpec(kind="line", lateral_offset_m=1e-9), 5, target, default_params
        )
        assert math.isnan(crlb(line, target, default_params))
        ring = build_formation(default_params, target, 5).planar_positions
        values = crlb(np.stack([line, ring]), target, default_params)
        assert np.isnan(values[0])
        assert values[1] == crlb(ring, target, default_params)

    def test_matches_weight_sum_formula_on_the_ring(self, default_params, target):
        # Isotropic J = (M w / 2) I, so tr(J^-1) = 4 / (M w).
        phi = optimal_elevation(default_params)
        ring = build_formation(default_params, target, 6).planar_positions
        expected = 4.0 / (6 * elevation_weight(phi, default_params))
        assert crlb(ring, target, default_params) == pytest.approx(expected, rel=1e-12)

    def test_batch_shape_is_kept(self, default_params, target):
        ring = build_formation(default_params, target, 4).planar_positions
        values = crlb(np.broadcast_to(ring, (2, 3, 4, 2)), target, default_params)
        assert values.shape == (2, 3)
        assert np.all(values == crlb(ring, target, default_params))

    def test_agent_above_target_is_nan_alone_and_in_a_batch(self, default_params, target):
        ring = build_formation(default_params, target, 4).planar_positions
        above = np.vstack([ring[:3], target.position])
        assert math.isnan(crlb(above, target, default_params))
        values = crlb(np.stack([above, ring]), target, default_params)
        assert np.isnan(values[0])
        assert values[1] == crlb(ring, target, default_params)

    @pytest.mark.parametrize("shape", [(2,), (3, 3), (0, 2), (2, 0, 2)])
    def test_bad_shape_rejected(self, default_params, target, shape):
        with pytest.raises(ValueError, match="shape"):
            crlb(np.ones(shape), target, default_params)

    def test_non_finite_rejected(self, default_params, target):
        positions = np.array([[1.0, 2.0], [np.nan, 0.0], [3.0, 4.0]])
        with pytest.raises(ValueError, match="finite"):
            crlb(positions, target, default_params)


class TestLikelihoodInformation:
    """The bound from the measurement model: no closed form of the information enters the oracle."""

    # Transmit power 0.1 W gives the default C = 1e9 m^4, where the mean term carries nearly all
    # the information; at 1e-7 W, C = 1e3 m^4 and the variance term carries 86 % of it on the ring.
    @pytest.mark.parametrize("power, variance_share", [(0.1, 4.8e-6), (1e-7, 0.86)])
    def test_score_covariance_inverts_to_the_crlb(self, default_params, target, power, variance_share):
        params = dataclasses.replace(default_params, transmit_power_w=power)
        ring = build_formation(params, target, 6).planar_positions
        rho_sq = ((ring - target.position) ** 2).sum(axis=1) + params.altitude_m**2
        mean_info, variance_info = params.composite_snr_m4 / rho_sq**2, 8.0 / rho_sq
        assert variance_info / (mean_info + variance_info) == pytest.approx(variance_share, rel=0.01)
        fim = likelihood_fim(ring, target, params, draws=200_000, seed=7)
        assert np.trace(np.linalg.inv(fim)) == pytest.approx(crlb(ring, target, params), rel=0.03)

    def test_gauss_newton_reaches_the_bound_in_the_papers_order(self, default_params, target):
        """An estimator on the ranges attains each formation's CRLB, so the ranking holds for its error.

        Only the default SNR (C = 1e9 m^4) is asserted. There one snapshot pins the target to
        centimetres and the linearized estimator is efficient. At C = 1e3 the range noise is of
        the order of the ring itself, and single-snapshot Gauss-Newton diverges: its MSE reads
        5e7 to 1e9 times the CRLB (seeds 7 and 8), which says nothing about the bound.
        """
        ratios, bounds = {}, {}
        for kind in ("optimal", "line", "clustered_polygon", "fixed_elevation"):
            positions = benchmark_positions(BenchmarkSpec(kind=kind), 6, target, default_params)
            bounds[kind] = crlb(positions, target, default_params)
            ratios[kind] = gauss_newton_mse(positions, target, default_params, draws=20_000, seed=7) / bounds[kind]
        assert all(ratio == pytest.approx(1.0, abs=0.05) for ratio in ratios.values()), ratios
        mse = {kind: ratios[kind] * bounds[kind] for kind in bounds}
        assert sorted(mse, key=mse.get) == sorted(bounds, key=bounds.get) == [
            "optimal", "line", "fixed_elevation", "clustered_polygon",
        ]
