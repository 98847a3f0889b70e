"""Per-object oracles for the library's array-native computations.

The library computes the CRLB in one pass over a position array
(:func:`formsense.sensing.crlb`). This module keeps the step-by-step chain it
replaced: one :class:`AgentPose` per agent, its elevation weight spread over
its azimuth direction in a Python loop, and the trace of the inverse 2x2
information matrix.

Likewise :meth:`formsense.world.World.min_clearance` clamps all points
against all rectangles at once and returns each point's clearance and way
out, and :func:`formsense.control.local_cost` returns every agent's cost in
one call; the per-rectangle, per-point and per-agent functions near the end
of this module are the loops they replaced. :func:`point_repulsion` is the
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

The control laws work on the graph's edge list and an (M, 2) reference; the
``dense_*`` functions are the formulas over all M^2 pairs and the (M, M, 2)
desired offsets that they replaced. Tests compare the two. Likewise
:class:`formsense.control.CommGraph` holds only its links: :func:`adjacency`
rebuilds its (M, M) matrix and :func:`dense_topology` builds the named
topologies as matrices, the way the library once did; :func:`displacement_rate`
reads the displacement law's convergence rate off the Laplacian's eigenvalues. And
:func:`formsense.world.min_pairwise_distance` sweeps the agents sorted by x;
:func:`dense_min_pairwise_distance` takes the minimum over all M^2 pairs.

:func:`formsense.world.run_episode` carries the swarm as arrays, builds one
:class:`SwarmState` per run and records the episode in columns, measured in
batched calls per chunk of steps; :func:`stepwise_episode` at the end is the
loop it replaced, with a :class:`SwarmState`, one :class:`StepRecord` (the
per-step row type the library used to expose), three clearance queries, a
CRLB, a cost call and a finiteness check per step.

:func:`formsense.cli.write_trace` formats each value of a trace once and fills one
line template per run; :func:`rowwise_trace_files` is the writer it replaced, one
``json.dumps`` of a sorted dict and one ``csv.writer`` row per step.
"""

from __future__ import annotations

import csv
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

from formsense.cli import _TRACE_CSV, _tags
from formsense.control import (
    SwarmState,
    consensus_velocity_step,
    control_input,
    displacement_error,
    local_cost,
    scale_factor,
)
from formsense.sensing import AgentPose, SensingParams, TargetEstimate, elevation_weight
from formsense.world import EpisodeTrace, Guidance, crlb_of_positions

# Determinant threshold (relative to trace^2) below which a 2x2 information
# matrix is treated as singular; the library uses the same rule.
SINGULARITY_RTOL = 1e-12

SPEED_OF_LIGHT = 2.99792458e8  # m/s


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


def exact_crlb(positions: np.ndarray, target: TargetEstimate, params: SensingParams) -> Fraction:
    """CRLB tr(J) / det(J) of (M, 2) float positions in exact rational arithmetic.

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
    return (j_xx + j_yy) / (j_xx * j_yy - j_xy * j_xy)


def decimal_bound(params: SensingParams, agent_count: int) -> Decimal:
    """The bound 4 / (M w*) from the closed-form root, in 60-digit decimal arithmetic.

    With a = C / H^4 and b = 8 / H^2 of the float C and H taken exactly, the weight's
    peak is at t* = tan^2(phi*) = (a + sqrt(a^2 + ab + b^2)) / (a + b), where
    sin^2 = t* / (1 + t*), cos^2 = 1 / (1 + t*) and w* = (a sin^4 + b sin^2) cos^2.
    """
    with localcontext() as context:
        context.prec = 60
        h = Decimal(params.altitude_m)
        a, b = Decimal(params.composite_snr_m4) / h**4, 8 / h**2
        t = (a + (a * a + a * b + b * b).sqrt()) / (a + b)
        sin_sq, cos_sq = t / (1 + t), 1 / (1 + t)
        return 4 / (agent_count * (a * sin_sq + b) * sin_sq * cos_sq)


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
