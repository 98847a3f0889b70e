"""Per-object oracles for the library's array-native computations.

The library computes the CRLB in one pass over a position array
(:func:`formsense.sensing.crlb`). This module keeps the step-by-step chain it
replaced: one :class:`AgentPose` per agent, its elevation weight spread over
its azimuth direction in a Python loop, and the trace of the inverse 2x2
information matrix. :func:`strided_crlb` is the one-pass kernel as it read x
and y before it worked on contiguous coordinate planes in place; the two must
give the same doubles.

Likewise :meth:`formsense.world.World.min_clearance` clamps all points
against all rectangles at once and returns each point's clearance and way
out, and :func:`formsense.control.local_cost` returns every agent's cost in
one call; the per-rectangle, per-point and per-agent functions near the end
of this module are the loops they replaced. :func:`max_gap_clearance` is the
one-pass query as it measured the per-axis gaps max(max(low - x, x - high), 0)
and clamped each looked-up row a second time for its way out; the two must give
the same doubles. :func:`point_repulsion` is the
repulsion law as it read an agent's position, its nearest obstacle point and
a fallback direction for contact; :func:`formsense.control.repulsion` reads
the clearance and way out instead.

:func:`likelihood_fim` estimates the information from the range distribution itself,
as the covariance of the log-likelihood's score over seeded draws; the pose chain
and :func:`range_fim_element` start from the closed form C/d^4 + 8/d^2 instead.
:func:`gauss_newton_mse` measures the error of an estimator that runs on those draws.

:func:`formsense.formation.optimal_elevation` is a closed form;
:func:`bisect_weight_peak` finds the same peak by bisection, with no algebra.
:func:`exact_crlb` is the CRLB of float positions in ``Fraction`` arithmetic and
:func:`decimal_bound` the bound at 60 decimal digits: the exact references that the
rounding budget of "the bound is never beaten and the ring attains it" is measured against.
:func:`decimal_elevation` is the elevation at 60 digits, through :func:`decimal_arctan`, a
Taylor series in ``decimal`` (the tests need no arbitrary-precision library).

The control laws work on the graph's edge list and an (M, 2) reference; the
``dense_*`` functions are the formulas over all M^2 pairs and the (M, M, 2)
desired offsets that they replaced. Tests compare the two. Likewise
:class:`formsense.control.CommGraph` holds only its links: :func:`adjacency`
rebuilds its (M, M) matrix and :func:`dense_topology` builds the named
topologies as matrices, the way the library once did; :func:`displacement_rate`
reads the displacement law's convergence rate off the Laplacian's eigenvalues, and
:func:`noise_floor` the mean shape error that motion noise holds it at. And
:func:`formsense.world.min_pairwise_distance` sweeps the agents sorted by x;
:func:`dense_min_pairwise_distance` takes the minimum over all M^2 pairs.

:func:`formsense.world.run_episode` carries the swarm as arrays, builds one
:class:`SwarmState` per run and records the episode in columns, measured in
batched calls per chunk of steps; :func:`stepwise_episode` at the end is the
loop it replaced, with a :class:`SwarmState`, one :class:`StepRecord` (the
per-step row type the library used to expose), three clearance queries, a
CRLB, a cost call and a finiteness check per step. :func:`per_step_episode` is the
loop as it was before the steps ran in stretches: the same chunks and stop blocks,
with one obstacle query per step on its new positions and their centroid. Its step,
:func:`per_step_advance`, runs both control laws through :func:`stacked_step_laws`, the
kernel as it was before the stretch advanced one stack in place: a new stack, offsets and
gains derived per call, and the estimates as pinned - g * s.

:func:`formsense.cli.write_trace` formats each value of a trace once and fills one
line template per run; :func:`rowwise_trace_files` is the writer it replaced, one
``json.dumps`` of a sorted dict and one ``csv.writer`` row per step.

:func:`formsense.benchmarks.sweep_rows` builds the polygon and the line once, rescales
them per altitude and draws its clouds in place; :func:`per_altitude_sweep_rows` is the loop
it replaced, which built the optimal formation and every benchmark anew at each altitude.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import itertools
import json
import math
import operator
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import Optional

import numpy as np

from formsense.benchmarks import _SWEEP_STREAM, benchmark_positions
from formsense.cli import _TRACE_CSV, _tags
from formsense.control import (
    SwarmState,
    _deviation,
    _offsets,
    consensus_velocity_step,
    control_input,
    displacement_error,
    local_cost,
    repulsion,
    scale_factor,
)
from formsense.formation import build_formation, theoretical_lower_bound
from formsense.sensing import AgentPose, SensingParams, TargetEstimate, elevation_weight
from formsense.world import _STOP_STEPS, EpisodeTrace, Guidance, _chunk_columns, crlb_of_positions

# Determinant threshold (relative to trace^2) below which a 2x2 information
# matrix is treated as singular; the library uses the same rule.
SINGULARITY_RTOL = 1e-12

SPEED_OF_LIGHT = 2.99792458e8  # m/s

# Rounding budgets, in units of u = 2^-53. Measured on 120 000 rings over the config domain
# (altitudes 1 mm to 1000 km, SNRs C / H^4 of 1e-80 to 1e100 with both ends, 3 to 12 agents)
# under numpy's default and baseline kernels: crlb of the float ring is within 7.6 u of
# exact_crlb, theoretical_lower_bound within 8.0 u of decimal_bound, and the exact CRLB of the
# float ring lies above the exact bound by less than 3e-22 relative. So the ring attains the
# bound, and nothing beats it, to RING_BUDGET: crlb's budget plus the bound's. optimal_elevation
# is within 1.95 u of decimal_elevation on 400 000 parameter sets over the same domain, half of
# them across the knee C H^2 / 8 of 1e-8 to 1e8 (median 0.30 u); it uses math alone, so no
# numpy kernel enters it.
U = 2.0**-53
CRLB_BUDGET = BOUND_BUDGET = 10 * U
RING_BUDGET = CRLB_BUDGET + BOUND_BUDGET
ELEVATION_BUDGET = 3 * U
# Away from the ring, J's entries carry errors of a few u of tr(J), and det(J) = j_xx j_yy - j_xy^2
# magnifies them by tr^2 / det: crlb's relative error is at most OFF_RING_BUDGET tr^2 / det, with
# tr and det exact. Measured on 200 000 formations of 2 to 12 agents over the same domain, at
# 1e-2 to 1e2 altitudes from the target with bearings spread over 2 pi 1e-7 to 2 pi, under
# numpy's default and baseline kernels and the Haswell BLAS kernel: on the 169 005 that crlb
# does not mark singular, at most 2.14 u tr^2 / det (median 0.12 u); 2.54 u with up to 40 agents.
OFF_RING_BUDGET = 3 * U


class SingularGeometryError(ValueError):
    """The information matrix is (numerically) singular, so the oracle has no CRLB to give."""


@dataclass(frozen=True)
class Fim2:
    """Symmetric 2x2 Fisher information matrix of the target coordinates, in 1/m^2."""

    j_xx: float
    j_yy: float
    j_xy: float

    def __post_init__(self) -> None:
        tol = SINGULARITY_RTOL * max(1.0, self.trace**2)
        if self.j_xx < -tol or self.j_yy < -tol or self.det < -tol:
            raise ValueError(
                f"Fim2: not positive semidefinite (j_xx={self.j_xx}, j_yy={self.j_yy}, j_xy={self.j_xy})"
            )

    @property
    def trace(self) -> float:
        return self.j_xx + self.j_yy

    @property
    def det(self) -> float:
        return self.j_xx * self.j_yy - self.j_xy**2

    def as_matrix(self) -> np.ndarray:
        return np.array([[self.j_xx, self.j_xy], [self.j_xy, self.j_yy]])

    def eigenvalues(self) -> tuple[float, float]:
        """Eigenvalues in ascending order."""
        half_gap = math.hypot((self.j_xx - self.j_yy) / 2.0, self.j_xy)
        mid = self.trace / 2.0
        return mid - half_gap, mid + half_gap


def slant_range(agent_planar: np.ndarray, target: TargetEstimate, params: SensingParams) -> float:
    """Agent-to-target distance through the fixed flight altitude. Always >= altitude."""
    offset = np.asarray(agent_planar, dtype=float) - target.position
    return float(math.sqrt(offset[0] ** 2 + offset[1] ** 2 + params.altitude_m**2))


def delay_to_range(delay_s: float) -> float:
    """Convert a round-trip delay measurement to a one-way range: d = tau * c / 2."""
    if delay_s < 0:
        raise ValueError(f"delay_to_range: delay must be >= 0, got {delay_s!r}")
    return delay_s * SPEED_OF_LIGHT / 2.0


def noise_variance(distance_m, params: SensingParams):
    """Variance of the range measurement noise at the given distance, in m^2.

    Grows with the fourth power of distance (two-way path loss). Accepts
    scalars or arrays.
    """
    d = np.asarray(distance_m, dtype=float)
    if np.any(d <= 0):
        raise ValueError(f"noise_variance: distance must be > 0, got {distance_m!r}")
    out = d**4 / params.composite_snr_m4
    return float(out) if np.ndim(distance_m) == 0 else out


def range_fim_element(distance_m, params: SensingParams):
    """Fisher information carried by a single range measurement, in 1/m^2.

    Includes both the mean term (1/sigma^2) and the information contributed
    by the distance-dependent variance, which together reduce to
    C/d^4 + 8/d^2 with C the composite SNR constant. Strictly decreasing in
    distance. Accepts scalars or arrays.
    """
    d = np.asarray(distance_m, dtype=float)
    if np.any(d <= 0):
        raise ValueError(f"range_fim_element: distance must be > 0, got {distance_m!r}")
    out = params.composite_snr_m4 / d**4 + 8.0 / d**2
    return float(out) if np.ndim(distance_m) == 0 else out


def jacobian(poses: list[AgentPose]) -> np.ndarray:
    """M x 2 sensitivity of the ranges to the target coordinates.

    Row m is cos(phi_m) * [cos(theta_m), sin(theta_m)]; the overall row sign
    is immaterial for information purposes.
    """
    if len(poses) < 1:
        raise ValueError("jacobian: need at least one pose")
    rows = np.empty((len(poses), 2))
    for i, pose in enumerate(poses):
        c = math.cos(pose.elevation_rad)
        rows[i, 0] = c * math.cos(pose.azimuth_rad)
        rows[i, 1] = c * math.sin(pose.azimuth_rad)
    return rows


def target_fim(poses: list[AgentPose], params: SensingParams) -> Fim2:
    """Accumulate the 2x2 target-position information over all agents.

    Each agent contributes its elevation weight spread over its azimuth
    direction; the trace equals the sum of the weights.
    """
    if len(poses) < 1:
        raise ValueError("target_fim: need at least one pose")
    j_xx = j_yy = j_xy = 0.0
    for pose in poses:
        w = elevation_weight(pose.elevation_rad, params)
        cos_t = math.cos(pose.azimuth_rad)
        sin_t = math.sin(pose.azimuth_rad)
        j_xx += w * cos_t**2
        j_yy += w * sin_t**2
        j_xy += w * sin_t * cos_t
    return Fim2(j_xx, j_yy, j_xy)


def crlb_trace(fim: Fim2) -> float:
    """Trace of the inverse information matrix: the CRLB on total position MSE, in m^2.

    Raises:
        SingularGeometryError: if the information matrix is (numerically)
            singular, i.e. the formation carries no information about some
            direction of the target position.
    """
    det = fim.det
    if det <= SINGULARITY_RTOL * fim.trace**2:
        raise SingularGeometryError(
            f"degenerate formation geometry: information determinant {det:.3e} "
            f"is negligible against trace {fim.trace:.3e}"
        )
    return fim.trace / det


def bisect_weight_peak(params: SensingParams) -> float:
    """Elevation of the weight maximum, by bisection on the sign of its derivative.

    The weight (a sin^4 + b sin^2) cos^2 with a = C / H^4 and b = 8 / H^2 is
    smooth and unimodal on (0, pi/2), so its derivative changes sign exactly
    once. Needs no closed form: the reference for
    :func:`formsense.formation.optimal_elevation` at every coefficient ratio.
    """
    h = params.altitude_m
    a = params.composite_snr_m4 / h**4
    b = 8.0 / h**2

    def slope_sign(phi: float) -> float:
        s2 = math.sin(phi) ** 2
        c2 = math.cos(phi) ** 2
        # d(weight)/d(phi) divided by sin(2 phi), which is positive here.
        return a * s2 * (2.0 * c2 - s2) + b * (c2 - s2)

    lo, hi = math.radians(0.01), math.radians(89.99)
    if slope_sign(lo) <= 0.0:
        return lo
    if slope_sign(hi) >= 0.0:
        return hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if slope_sign(mid) > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-15:
            break
    return 0.5 * (lo + hi)


def strided_crlb(positions, target: TargetEstimate, params: SensingParams):
    """:func:`formsense.sensing.crlb` as it read x and y: stride-2 views of q - s, one temporary per op.

    The same formula, association and singularity rule, so the same doubles, from one
    (..., M, 2) offset array instead of two contiguous coordinate planes.
    """
    q = np.asarray(positions, dtype=float)
    if q.ndim < 2 or q.shape[-1] != 2 or q.shape[-2] < 1:
        raise ValueError(f"crlb: expected positions of shape (..., M, 2), got {q.shape}")
    if not np.all(np.isfinite(q)):
        raise ValueError("crlb: positions must be finite")
    d = q - target.position
    dx, dy = d[..., 0], d[..., 1]
    rho_sq = dx * dx + dy * dy + params.altitude_m**2
    w = (params.composite_snr_m4 / (rho_sq * rho_sq) + 8.0 / rho_sq) / rho_sq
    j_xx = (w * dx * dx).sum(axis=-1)
    j_yy = (w * dy * dy).sum(axis=-1)
    j_xy = (w * dx * dy).sum(axis=-1)
    trace = j_xx + j_yy
    det = j_xx * j_yy - j_xy * j_xy
    overhead = ((dx == 0.0) & (dy == 0.0)).any(axis=-1)
    undefined = (det <= SINGULARITY_RTOL * trace * trace) | overhead
    if q.ndim == 2:
        return math.nan if undefined else float(trace / det)
    return trace / np.where(undefined, np.nan, det)


def exact_fim(positions: np.ndarray, target: TargetEstimate, params: SensingParams) -> tuple[Fraction, ...]:
    """Entries (j_xx, j_yy, j_xy) of the information matrix of (M, 2) float positions, exactly.

    The formula of :func:`formsense.sensing.crlb` on the float inputs taken exactly: each
    agent adds w d d^T with w = (C / rho^4 + 8 / rho^2) / rho^2, rho^2 = |d|^2 + H^2.
    """
    snr, h = Fraction(params.composite_snr_m4), Fraction(params.altitude_m)
    tx, ty = (Fraction(float(v)) for v in target.position)
    j_xx = j_yy = j_xy = Fraction(0)
    for x, y in np.asarray(positions, dtype=float).tolist():
        dx, dy = Fraction(x) - tx, Fraction(y) - ty
        rho_sq = dx * dx + dy * dy + h * h
        w = (snr / (rho_sq * rho_sq) + 8 / rho_sq) / rho_sq
        j_xx, j_yy, j_xy = j_xx + w * dx * dx, j_yy + w * dy * dy, j_xy + w * dx * dy
    return j_xx, j_yy, j_xy


def exact_crlb(positions: np.ndarray, target: TargetEstimate, params: SensingParams) -> Fraction:
    """CRLB tr(J) / det(J) of (M, 2) float positions in exact rational arithmetic (:func:`exact_fim`)."""
    j_xx, j_yy, j_xy = exact_fim(positions, target, params)
    return (j_xx + j_yy) / (j_xx * j_yy - j_xy * j_xy)


def _decimal_peak(params: SensingParams) -> tuple[Decimal, Decimal, Decimal]:
    """a = C / H^4, b = 8 / H^2 of the float C and H taken exactly, and t* = tan^2(phi*).

    The weight's peak is at t* = (a + sqrt(a^2 + ab + b^2)) / (a + b), at the context's precision.
    """
    h = Decimal(params.altitude_m)
    a, b = Decimal(params.composite_snr_m4) / h**4, 8 / h**2
    return a, b, (a + (a * a + a * b + b * b).sqrt()) / (a + b)


def decimal_bound(params: SensingParams, agent_count: int) -> Decimal:
    """The bound 4 / (M w*) from the closed-form root, in 60-digit decimal arithmetic.

    With sin^2 = t* / (1 + t*) and cos^2 = 1 / (1 + t*) at the peak t* of
    :func:`_decimal_peak`, w* = (a sin^4 + b sin^2) cos^2.
    """
    with localcontext() as context:
        context.prec = 60
        a, b, t = _decimal_peak(params)
        sin_sq, cos_sq = t / (1 + t), 1 / (1 + t)
        return 4 / (agent_count * (a * sin_sq + b) * sin_sq * cos_sq)


def decimal_arctan(x: Decimal) -> Decimal:
    """arctan(x) at the context's precision, from the standard library alone.

    The half-angle identity arctan(x) = 2 arctan(x / (1 + sqrt(1 + x^2))) brings |x| below 0.01,
    where the Taylor series x - x^3/3 + x^5/5 - ... gains four digits a term; ten guard digits
    cover the halvings' rounding.
    """
    with localcontext() as context:
        context.prec += 10
        halvings = 0
        while abs(x) > Decimal("0.01"):
            x, halvings = x / (1 + (1 + x * x).sqrt()), halvings + 1
        term, total, x_sq, k = x, x, x * x, 1
        while True:
            term, k = -term * x_sq, k + 2
            if total + term / k == total:
                break
            total += term / k
        total *= 2**halvings
    return +total  # rounded to the caller's precision


def decimal_elevation(params: SensingParams) -> Decimal:
    """The optimal elevation phi* = arctan(sqrt(t*)) of the closed-form root, at 60 digits."""
    with localcontext() as context:
        context.prec = 60
        return decimal_arctan(_decimal_peak(params)[2].sqrt())


def pose_from_angles(
    elevation_rad: float, azimuth_rad: float, target: TargetEstimate, params: SensingParams
) -> AgentPose:
    """Place an agent at the planar position consistent with the given angles."""
    if not 0.0 < elevation_rad < math.pi / 2:
        raise ValueError("pose_from_angles: elevation must lie strictly inside (0, pi/2)")
    horizontal = params.altitude_m / math.tan(elevation_rad)
    position = target.position + horizontal * np.array(
        [math.cos(azimuth_rad), math.sin(azimuth_rad)]
    )
    return AgentPose(position, elevation_rad, azimuth_rad)


def poses_of(
    positions: np.ndarray, target: TargetEstimate, params: SensingParams
) -> list[AgentPose]:
    """One pose per row of an (M, 2) position array."""
    return [AgentPose.from_position(p, target, params) for p in np.asarray(positions, dtype=float)]


def pose_crlb(positions: np.ndarray, target: TargetEstimate, params: SensingParams) -> float:
    """CRLB of an (M, 2) formation through poses, the information matrix and its inverse trace."""
    return crlb_trace(target_fim(poses_of(positions, target, params), params))


def likelihood_fim(
    positions: np.ndarray, target: TargetEstimate, params: SensingParams, draws: int, seed: int,
    step_m: float = 1e-3,
) -> np.ndarray:
    """Fisher information (2, 2) of the target position, E[s s^T] estimated from the measurement model.

    Each of ``draws`` seeded snapshots holds one range per agent of (M, 2) ``positions``,
    r ~ N(rho, rho^4 / C) with rho the slant range to the target. The score s is the gradient
    of the snapshot's summed Gaussian log-likelihood in the target position, by central
    differences of ``step_m`` metres. No closed form of the information enters.
    """
    positions = np.asarray(positions, dtype=float)

    def slant(target_position: np.ndarray) -> np.ndarray:
        offset = positions - target_position
        return np.sqrt(offset[:, 0] ** 2 + offset[:, 1] ** 2 + params.altitude_m**2)

    rho = slant(target.position)
    noise = np.random.default_rng(seed).standard_normal((draws, len(rho)))
    ranges = rho + np.sqrt(noise_variance(rho, params)) * noise

    def log_likelihood(target_position: np.ndarray) -> np.ndarray:
        rho = slant(target_position)
        variance = noise_variance(rho, params)
        return -0.5 * (np.log(2.0 * math.pi * variance) + (ranges - rho) ** 2 / variance).sum(axis=1)

    score = np.column_stack([
        (log_likelihood(target.position + step) - log_likelihood(target.position - step)) / (2.0 * step_m)
        for step in step_m * np.eye(2)
    ])
    return score.T @ score / draws


def gauss_newton_mse(
    positions: np.ndarray, target: TargetEstimate, params: SensingParams, draws: int, seed: int,
    iterations: int = 20,
) -> float:
    """Mean squared error of weighted Gauss-Newton on seeded single-snapshot ranges, in m^2.

    Each of ``draws`` snapshots holds one range per agent of (M, 2) ``positions``, drawn as in
    :func:`likelihood_fim`. Starting at the true target, each of ``iterations`` steps linearizes
    the slant ranges at the estimate and takes the least-squares step weighted by C / rho^4 there,
    for all draws at once.
    """
    positions = np.asarray(positions, dtype=float)

    def slant(estimate: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        offset = positions - estimate[:, None, :]
        return offset, np.sqrt(offset[..., 0] ** 2 + offset[..., 1] ** 2 + params.altitude_m**2)

    rho = slant(target.position[None, :])[1][0]
    noise = np.random.default_rng(seed).standard_normal((draws, len(rho)))
    ranges = rho + np.sqrt(noise_variance(rho, params)) * noise
    estimate = np.repeat(target.position[None, :], draws, axis=0)
    for _ in range(iterations):
        offset, rho = slant(estimate)
        jx, jy = -offset[..., 0] / rho, -offset[..., 1] / rho
        weight = params.composite_snr_m4 / rho**4
        a, b, c = (weight * jx * jx).sum(axis=1), (weight * jx * jy).sum(axis=1), (weight * jy * jy).sum(axis=1)
        gx, gy = (weight * jx * (ranges - rho)).sum(axis=1), (weight * jy * (ranges - rho)).sum(axis=1)
        estimate = estimate + np.column_stack([c * gx - b * gy, a * gy - b * gx]) / (a * c - b * b)[:, None]
    return float(((estimate - target.position) ** 2).sum(axis=1).mean())


def nearest_point(rect, position: np.ndarray) -> np.ndarray:
    """Closest point of the rectangle row (x_min, x_max, y_min, y_max): componentwise clamp of the position."""
    x_min, x_max, y_min, y_max = rect
    position = np.asarray(position, dtype=float)
    return np.array([min(max(position[0], x_min), x_max), min(max(position[1], y_min), y_max)])


def rect_distance(rect, position: np.ndarray) -> float:
    """Euclidean distance to the rectangle row; zero on the boundary or inside."""
    position = np.asarray(position, dtype=float)
    nearest = nearest_point(rect, position)
    return float(np.hypot(position[0] - nearest[0], position[1] - nearest[1]))


def escape_direction(rect, position: np.ndarray) -> np.ndarray:
    """Outward unit direction through the face nearest a point on or inside the rectangle row."""
    x_min, x_max, y_min, y_max = rect
    position = np.asarray(position, dtype=float)
    gaps = (
        (position[0] - x_min, np.array([-1.0, 0.0])),
        (x_max - position[0], np.array([1.0, 0.0])),
        (position[1] - y_min, np.array([0.0, -1.0])),
        (y_max - position[1], np.array([0.0, 1.0])),
    )
    return min(gaps, key=lambda g: g[0])[1]


def max_gap_clearance(obstacles, points, within: float = math.inf):
    """:meth:`formsense.world.World.min_clearance` as it read the gaps: max(max(low - x, x - high), 0) per axis.

    The hypot of those gaps is the clearance; each row below ``within`` then clamps its point
    against its closest rectangle again for the way out, p - min(max(p, low), high), and a row
    in contact takes the outward normal of that rectangle's nearest face.
    """
    points = np.asarray(points, dtype=float)
    shape, table = points.shape[:-1], np.asarray(obstacles, dtype=float).reshape(-1, 4)
    if not len(table):
        return np.full(shape, math.inf), np.full(points.shape, math.nan) if within == math.inf else None
    p = points.reshape(-1, 2)
    (low, high), column = table.reshape(-1, 2, 2).transpose(2, 1, 0), p[:, :, None]
    gaps = np.maximum(np.maximum(low - column, column - high), 0.0)
    dist = np.hypot(gaps[:, 0], gaps[:, 1])
    clearance, rows = dist.min(axis=1), np.arange(len(p))
    if within < math.inf:
        rows = (clearance < within).nonzero()[0]
        if not rows.size:
            return clearance.reshape(shape), None
    way_out, p, closest = np.full(p.shape, math.nan), p[rows], dist[rows].argmin(axis=1)
    low, high = low[:, closest].T, high[:, closest].T
    way_out[rows] = p - np.minimum(np.maximum(p, low), high)
    contact = np.flatnonzero(clearance[rows] <= 0.0)
    if contact.size:
        inside = p[contact]
        faces = np.stack((inside - low[contact], high[contact] - inside), axis=-1).reshape(-1, 4)
        normals = np.array([[-1.0, 0.0], [1.0, 0.0], [0.0, -1.0], [0.0, 1.0]])
        way_out[rows[contact]] = normals[faces.argmin(axis=1)]
    return clearance.reshape(shape), way_out.reshape(points.shape)


def clearance_of_point(obstacles, position: np.ndarray):
    """(clearance, nearest point, outward direction) of one point, rectangle by rectangle.

    The first rectangle wins ties. The direction is None unless the point is
    on or inside an obstacle; the nearest point is None without obstacles.
    """
    position = np.asarray(position, dtype=float)
    best, best_point = math.inf, None
    for rect in obstacles:
        nearest = nearest_point(rect, position)
        dist = float(np.hypot(position[0] - nearest[0], position[1] - nearest[1]))
        if dist < best:
            best, best_point = dist, nearest
    if best_point is None or best > 0.0:
        return best, best_point, None
    containing = min(obstacles, key=lambda rect: rect_distance(rect, position))
    return best, best_point, escape_direction(containing, position)


def point_repulsion(
    position: np.ndarray,
    nearest_obstacle_point: np.ndarray,
    gains,
    fallback_direction: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Pushback from the nearest obstacle point, zero outside the safety radius.

    The magnitude is the gradient of the potential
    0.5 * E_r * (1/l - 1/l_safe)^2, i.e. E_r * (1/l - 1/l_safe) / l^2,
    directed from the obstacle toward the agent and capped. An agent exactly
    on (or inside) the obstacle has no defined direction; the push then
    follows ``fallback_direction`` (unit +x if absent), the cap for a positive
    gain and zero for a zero gain, whose potential is zero everywhere. The
    caller is expected to log the safety violation.
    """
    position = np.asarray(position, dtype=float)
    offset = position - np.asarray(nearest_obstacle_point, dtype=float)
    distance = float(np.hypot(offset[0], offset[1]))
    if distance >= gains.safety_radius_m:
        return np.zeros(2)
    if distance <= 0.0:
        direction = None if fallback_direction is None else np.asarray(fallback_direction, dtype=float)
        if direction is None or not np.any(direction):
            direction = np.array([1.0, 0.0])
        direction = direction / np.linalg.norm(direction)
        return (gains.repulsion_cap if gains.repulsion_gain > 0 else 0.0) * direction
    magnitude = gains.repulsion_gain * (1.0 / distance - 1.0 / gains.safety_radius_m) / distance**2
    magnitude = min(magnitude, gains.repulsion_cap)
    return magnitude * (offset / distance)


def agent_cost(positions, adjacency, reference, agent, dt, next_position, target_velocity) -> float:
    """One agent's local cost: displacement term over its neighbors plus velocity mismatch.

    The neighbors' squared deviations are added one at a time in index order.
    """
    deviation = positions[agent] - positions - (reference[agent] - reference)
    squared = (deviation**2).sum(axis=1)
    displacement_term = 0.0
    for p in np.flatnonzero(adjacency[agent]):
        displacement_term += float(squared[p])
    realized = (np.asarray(next_position, dtype=float) - positions[agent]) / dt
    return displacement_term + float(((realized - target_velocity) ** 2).sum())


def dense_offsets(reference: np.ndarray) -> np.ndarray:
    """(M, M, 2) desired offsets, offsets[m, p] = reference[m] - reference[p]."""
    return reference[:, None, :] - reference[None, :, :]


def dense_deviation(positions: np.ndarray, reference: np.ndarray, scale: float = 1.0) -> np.ndarray:
    """(M, M, 2) deviation q_m - q_p - scale * offsets[m, p] over all pairs."""
    return positions[:, None, :] - positions[None, :, :] - scale * dense_offsets(reference)


def dense_consensus(velocities, adjacency, leader_index, target_velocity, gain) -> np.ndarray:
    """Leader-pinned consensus round: disagreements over all pairs, masked by the adjacency."""
    velocities = np.array(velocities, dtype=float)
    velocities[leader_index] = target_velocity
    disagreement = velocities[:, None, :] - velocities[None, :, :]
    correction = (adjacency[:, :, None] * disagreement).sum(axis=1)
    updated = velocities - gain * correction
    updated[leader_index] = target_velocity
    return updated


def dense_displacement_control(positions, adjacency, reference, epsilon, scale) -> np.ndarray:
    """u_m = -epsilon * sum_p a_mp (q_m - q_p - scale * offsets[m, p]) over all pairs."""
    deviation = dense_deviation(positions, reference, scale)
    return -epsilon * (adjacency[:, :, None] * deviation).sum(axis=1)


def dense_local_cost(positions, adjacency, reference, dt, next_positions, target_velocity) -> np.ndarray:
    """(M,) local costs from the (M, M) squared deviations, summed over p in index order.

    The column loop fixes the order; numpy's row sum ``.sum(axis=1)`` adds
    pairwise and rounds differently once a row has eight or more entries.
    """
    per_pair = (dense_deviation(positions, reference) ** 2).sum(axis=2)
    displacement_term = np.zeros(len(positions))
    for p in range(len(positions)):
        displacement_term += adjacency[:, p] * per_pair[:, p]
    realized = (np.asarray(next_positions, dtype=float) - positions) / dt
    return displacement_term + ((realized - target_velocity) ** 2).sum(axis=1)


def dense_displacement_error(positions, adjacency, reference) -> float:
    """Half the adjacency-weighted sum of squared deviations over all pairs."""
    per_pair = (dense_deviation(positions, reference) ** 2).sum(axis=2)
    return float((adjacency * per_pair).sum() / 2.0)


def adjacency(graph) -> np.ndarray:
    """The (M, M) 0/1 float matrix of a CommGraph's links."""
    dense = np.zeros((graph.agent_count, graph.agent_count))
    dense[tuple(graph.links)] = 1.0
    return dense


def laplacian(graph) -> np.ndarray:
    """The dense (M, M) Laplacian D - A of a CommGraph."""
    dense = adjacency(graph)
    return np.diag(dense.sum(axis=1)) - dense


def displacement_rate(graph, epsilon: float) -> float:
    """rho^2 = max (1 - epsilon * lambda)^2 over the nonzero eigenvalues lambda of the Laplacian.

    Once the velocity estimates have settled, without noise, obstacles or guidance, the displacement
    error evolves by I - epsilon * L and its squared norm shrinks by rho^2 per step.
    """
    eigenvalues = np.linalg.eigvalsh(laplacian(graph))
    return max((1.0 - epsilon * lam) ** 2 for lam in eigenvalues if lam > 1e-9)


def noise_floor(graph, gains, sigma: float) -> float:
    """F = (2 sigma^2 / epsilon) * sum 1 / (2 - epsilon * lambda) over the nonzero eigenvalues of L.

    Near the ring, with settled velocity estimates, no obstacles and constant guidance, the
    shape error evolves on each axis by e_{k+1} = (I - epsilon L) e_k + n_k, n_k the motion
    noise of standard deviation sigma per coordinate. Mode lambda is an AR(1) with stationary
    variance sigma^2 / (epsilon lambda (2 - epsilon lambda)), and the displacement error is
    e^T L e summed over both axes, so F is its stationary mean.
    """
    eigenvalues = np.linalg.eigvalsh(laplacian(graph))
    epsilon = gains.epsilon
    return 2.0 * sigma**2 / epsilon * sum(1.0 / (2.0 - epsilon * lam) for lam in eigenvalues if lam > 1e-9)


def consensus_rate(graph, gain: float) -> float:
    """rho_c = max |1 - gain * mu| over the eigenvalues mu of the grounded Laplacian.

    The grounded Laplacian is the follower block of L: the leader's row and column deleted. With the
    leader pinned to the reference, the followers' errors v - v_ref evolve by I - gain * L_ff, so
    their norm shrinks by at most rho_c per step.
    """
    leader = graph.leader_index
    grounded = np.delete(np.delete(laplacian(graph), leader, axis=0), leader, axis=1)
    return float(np.abs(1.0 - gain * np.linalg.eigvalsh(grounded)).max())


def dense_topology(name: str, agent_count: int, leader_index: int) -> np.ndarray:
    """(M, M) adjacency of a named topology: ring, ring_with_leader or complete."""
    if name == "complete":
        return np.ones((agent_count, agent_count)) - np.eye(agent_count)
    successor = np.roll(np.eye(agent_count), 1, axis=1)  # links m to m + 1 mod M
    dense = successor + successor.T
    if name == "ring_with_leader":
        dense[leader_index, :] = dense[:, leader_index] = 1.0
        dense[leader_index, leader_index] = 0.0
    return dense


def dense_min_pairwise_distance(positions: np.ndarray):
    """Smallest distance over all M^2 pairs of (..., M, 2) positions, self pairs excluded."""
    positions = np.asarray(positions, dtype=float)
    x, y = positions[..., 0], positions[..., 1]
    dx = x[..., :, None] - x[..., None, :]
    dy = y[..., :, None] - y[..., None, :]
    squared = dx * dx + dy * dy
    agents = np.arange(positions.shape[-2])
    squared[..., agents, agents] = math.inf
    smallest = np.sqrt(squared.min(axis=(-2, -1)))
    return float(smallest) if positions.ndim == 2 else smallest


@dataclass(frozen=True)
class StepRecord:
    """Metrics of one executed step; positions are the post-step state."""

    step: int
    time_s: float
    positions: np.ndarray
    eta: float
    crlb_m2: Optional[float]
    total_cost: float
    min_clearance_m: float
    min_pairwise_m: float
    max_control_m: float
    displacement_error_m2: float


# Record fields whose non-finite value means the run diverged. The clearance
# is inf without obstacles and the CRLB is None for degenerate geometry.
_MUST_BE_FINITE = ("positions", "total_cost", "displacement_error_m2", "max_control_m", "min_pairwise_m")


def _check_finite(record: StepRecord) -> None:
    """Raise a ValueError naming the step and every record field that is not finite."""
    bad = [name for name in _MUST_BE_FINITE if not np.isfinite(getattr(record, name)).all()]
    if bad:
        raise ValueError(f"run_episode: diverged at step {record.step}: {', '.join(bad)} not finite")


def _advance(state, world, graph, disp, gains, target_velocity):
    """One control period with its own clearance queries: positions, velocities, scale and u."""
    velocities = consensus_velocity_step(state.velocity_estimates, graph, target_velocity, gains)
    u = control_input(
        state.positions, state.scale, graph, disp, gains, *world.min_clearance(state.positions)
    )
    noise = world._motion_noise(state.step_index, (1, *state.positions.shape))[0]
    positions = state.positions + u + velocities * world.dt + noise
    clearance = float(world.min_clearance(positions.mean(axis=0))[0])
    scale = scale_factor(disp.nominal_diameter_m, clearance, gains, state.scale)
    return positions, velocities, scale, u


def stepwise_episode(
    initial, world, graph, disp, gains, params, max_steps, stop_tolerance=1e-3, guidance=None
):
    """The episode step by step: (records, safety events, converged, final state).

    Takes :func:`formsense.world.run_episode`'s arguments and raises its
    divergence error. Costs are summed left to right over the agents.
    """
    if guidance is None:
        guidance = Guidance()
    records: list[StepRecord] = []
    events: list[tuple[int, int]] = []
    state = initial
    converged = False
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(max_steps):
            v_cmd = guidance.commanded_velocity(state.positions, graph, disp)
            positions, velocities, scale, u = _advance(state, world, graph, disp, gains, v_cmd)
            clearance = world.min_clearance(positions)[0]
            crlb: Optional[float] = crlb_of_positions(positions, world, params)
            if math.isnan(crlb):
                crlb = None
            costs = local_cost(state.positions, graph, disp, world.dt, positions, v_cmd).tolist()
            record = StepRecord(
                step=k,
                time_s=(k + 1) * world.dt,
                positions=positions,
                eta=scale,
                crlb_m2=crlb,
                total_cost=functools.reduce(operator.add, costs),
                min_clearance_m=float(clearance.min()),
                min_pairwise_m=dense_min_pairwise_distance(positions),
                max_control_m=float(np.linalg.norm(u, axis=1).max()),
                displacement_error_m2=displacement_error(positions, graph, disp),
            )
            _check_finite(record)
            records.append(record)
            events.extend((k, m) for m in np.flatnonzero(clearance <= 0.0).tolist())
            state = SwarmState(positions, velocities, scale, state.step_index + 1)
            if (
                record.displacement_error_m2 < stop_tolerance
                and state.scale >= 0.999
                and guidance.center_error_m(state.positions, graph, disp) <= guidance.arrival_tolerance_m
            ):
                converged = True
                break
    return records, tuple(events), converged, state


def stacked_step_laws(positions, velocities, scale, graph, disp, gains, target_velocity, clearance, way_out):
    """A step's control input and consensus estimates, both (M, 2), from one edge pass.

    The pass runs on a new (2, M, 2) stack [positions, velocity estimates with the leader's
    pinned] with the offsets of ``_offsets``, derived on every call; every plane and component
    has its own bins, which sum each agent's edges in edge order. The estimates are
    pinned - g * s, and the control input -epsilon * s plus repulsion, in fresh arrays.
    """
    stack = np.array((positions, velocities))
    stack[1, graph.leader_index] = target_velocity
    offsets = np.zeros((2, graph.links.shape[1], 2))  # the velocity estimates' are +0.0
    offsets[0] = _offsets(positions, graph, disp, scale)
    values = _deviation(stack, graph, offsets)
    sums = np.bincount(graph._stack_bins, values.ravel(), stack.size).reshape(stack.shape)
    return control_of_sums(sums[0], gains, clearance, way_out), consensus_of_sums(
        stack[1], sums[1], graph, target_velocity, gains
    )


def consensus_of_sums(pinned, sums, graph, target_velocity, gains):
    """The consensus round of (M, 2) estimates, the leader's pinned, from their edge sums sum_p (v_m - v_p)."""
    updated = pinned - gains.consensus_gain * sums
    updated[graph.leader_index] = target_velocity
    return updated


def control_of_sums(sums, gains, clearance, way_out):
    """Control input (M, 2) from the edge sums of the scaled deviations, as ``control_input`` reads its inputs."""
    u = -gains.epsilon * sums
    if way_out is not None:
        for m in np.flatnonzero(clearance < gains.safety_radius_m):
            u[m] += repulsion(clearance[m], way_out[m], gains)
    return u


def per_step_advance(positions, velocities, scale, noise, around, world, graph, disp, gains, target_velocity):
    """Next positions, velocity estimates, scale, control input u and surroundings of one period.

    ``noise`` (M, 2) is the period's motion noise and ``around`` the clearance (M,) and ways
    out of ``positions``, as :meth:`World.min_clearance` gives them below the safety radius;
    the returned ones are those of the next positions. The step's one obstacle query measures
    them with their centroid, sum / M (the double of ``mean``), in the last row of one buffer.
    """
    u, velocities = stacked_step_laws(positions, velocities, scale, graph, disp, gains, target_velocity, *around)
    points = np.empty((len(positions) + 1, 2))
    moved = points[:-1]
    np.add(positions, u, out=moved)
    moved += velocities * world.dt
    moved += noise
    np.divide(moved.sum(axis=0), len(moved), out=points[-1])
    clearance, way_out = world.min_clearance(points, gains.safety_radius_m)
    scale = scale_factor(disp.nominal_diameter_m, float(clearance[-1]), gains, scale)
    return moved, velocities, scale, u, (clearance[:-1], way_out if way_out is None else way_out[:-1])


def per_step_episode(
    initial, world, graph, disp, gains, params, max_steps, stop_tolerance=1e-3, guidance=None
) -> EpisodeTrace:
    """:func:`formsense.world.run_episode` with one obstacle query per step, through :func:`per_step_advance`."""
    guidance = Guidance() if guidance is None else guidance
    agents = len(initial.positions)
    chunk_steps = max(1, min(256, 2**18 // graph.links.shape[1]))
    chunks: list[dict] = []
    events: list[tuple[int, int]] = []
    positions, velocities, scale = initial.positions, initial.velocity_estimates, initial.scale
    first_step, converged = 0, False
    with np.errstate(over="ignore", invalid="ignore"):
        around = world.min_clearance(positions, gains.safety_radius_m)
        while first_step < max_steps and not converged:
            size = min(chunk_steps, max_steps - first_step)
            q, g = np.empty((size + 1, agents, 2)), np.empty((size, agents, 2))  # positions, velocities
            q[0] = positions
            u, v_cmd = np.empty((size, agents, 2)), np.empty((size, 2))
            clearance, eta, error = np.empty((size, agents)), np.empty(size), np.empty(size)
            noise = world._motion_noise(initial.step_index + first_step, (size, agents, 2))
            for start in range(0, size, _STOP_STEPS):
                end = min(start + _STOP_STEPS, size)
                for i in range(start, end):
                    v_cmd[i] = v = guidance.commanded_velocity(positions, graph, disp)
                    positions, velocities, scale, u[i], around = per_step_advance(
                        positions, velocities, scale, noise[i], around, world, graph, disp, gains, v,
                    )
                    q[i + 1], g[i], clearance[i], eta[i] = positions, velocities, around[0], scale
                after = q[start + 1 : end + 1]
                error[start:end] = displacement_error(after, graph, disp)
                arrived = guidance.center_error_m(after, graph, disp) <= guidance.arrival_tolerance_m
                settled = (error[start:end] < stop_tolerance) & (eta[start:end] >= 0.999) & arrived
                if settled.any():
                    size, converged = start + int(settled.argmax()) + 1, True
                    break
            columns, chunk_events = _chunk_columns(
                first_step, q[: size + 1], u[:size], v_cmd[:size], error[:size],
                clearance[:size], eta[:size], world, graph, disp, params,
            )
            chunks.append(columns)
            events.extend(chunk_events)
            positions, velocities, scale = q[size], g[size - 1], float(eta[size - 1])
            first_step += size
    names = EpisodeTrace.COLUMNS
    if not chunks:
        chunks.append({name: np.empty((0, agents, 2) if name == "positions" else 0) for name in names})
    return EpisodeTrace(
        columns={name: np.concatenate([c[name] for c in chunks]) for name in names},
        safety_events=tuple(events),
        converged=converged,
        final_state=SwarmState(positions, velocities, scale, initial.step_index + first_step)
        if first_step else initial,
    )


def rowwise_trace_files(trace: EpisodeTrace, config, out_dir):
    """Write ``trace.jsonl`` and ``trace.csv`` one row at a time; return their paths.

    Each JSONL line is ``json.dumps`` of a dict with sorted keys and strict floats; each CSV
    row goes through ``csv.writer``, which writes a float by ``repr`` and none as an empty cell.
    A non-finite value of a column :attr:`EpisodeTrace.COLUMNS` marks is none.
    """
    columns = {}
    for name, none_if_nonfinite in EpisodeTrace.COLUMNS.items():
        values = trace.columns[name].tolist()
        columns[name] = [x if math.isfinite(x) else None for x in values] if none_if_nonfinite else values
    tags = _tags(config)
    keys = ["step", *("positions_m" if name == "positions" else name for name in columns), *tags]
    rows = zip(itertools.count(), *columns.values(), *map(itertools.repeat, tags.values()))
    jsonl_path = out_dir / "trace.jsonl"
    with jsonl_path.open("w") as fh:
        for row in rows:
            fh.write(json.dumps(dict(zip(keys, row)), sort_keys=True, allow_nan=False) + "\n")
    csv_path = out_dir / "trace.csv"
    with csv_path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([*_TRACE_CSV, *tags])
        for row in zip(*(columns[name] for name in _TRACE_CSV.values())):
            writer.writerow([*row, *tags.values()])
    return jsonl_path, csv_path


def per_altitude_sweep_rows(specs, agent_count, target, base_params, altitudes_m, seed) -> list[dict]:
    """The sweep's rows, with the optimal formation and every benchmark built at each altitude.

    The clouds are ``s + rng.uniform(...)`` and the CRLB is :func:`strided_crlb`, so no code
    path of the sweep's cloud draw or of the library's CRLB kernel enters the oracle.
    """
    rows = []
    for alt_index, altitude in enumerate(altitudes_m):
        params = dataclasses.replace(base_params, altitude_m=float(altitude))
        bound = theoretical_lower_bound(params, agent_count)
        ring = None
        if any(spec.kind in ("optimal", "clustered_polygon") for spec in specs):
            ring = build_formation(params, target, agent_count).planar_positions
        stack = []
        for spec in specs:
            if spec.kind == "random_cloud":
                rng, w = np.random.default_rng([seed, _SWEEP_STREAM, alt_index]), spec.half_width_m
                positions = target.position + rng.uniform(-w, w, size=(spec.samples, agent_count, 2))
            else:
                positions = benchmark_positions(spec, agent_count, target, params, None, ring)
            stack.append(positions.reshape(-1, agent_count, 2))
        if not stack:
            break
        values = strided_crlb(np.concatenate(stack), target, params)
        for spec, scores in zip(specs, np.split(values, np.cumsum([len(block) for block in stack])[:-1])):
            scores = scores[~np.isnan(scores)]
            rows.append(
                {
                    "altitude_m": float(altitude),
                    "formation_kind": spec.kind,
                    "crlb_m2": float(scores.mean()) if scores.size else None,
                    "bound_m2": bound,
                    "samples": int(scores.size),
                }
            )
    return rows
