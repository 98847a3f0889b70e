"""Environment model and episode driver for the formation simulation.

The world owns the target, the rectangular obstacles, and the motion noise;
the stepper advances the discrete dynamics

    q[k+1] = q[k] + u[k] + g[k] * dt + n[k]

where u is the control input, g the consensus velocity estimate, and n
zero-mean Gaussian noise drawn from a per-step seeded generator so that a
whole episode is reproducible bit for bit. Episodes record per-step metrics
(instantaneous CRLB, formation cost, scale factor, clearances) for offline
plotting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .control import (
    CommGraph,
    ControlGains,
    SwarmState,
    consensus_velocity_step,
    control_input,
    displacement_error,
    local_cost,
    scale_factor,
)
from .errors import SingularGeometryError
from .formation import DisplacementSet, _squared_distances
from .sensing import SensingParams, TargetEstimate, crlb


@dataclass(frozen=True)
class RectObstacle:
    """Axis-aligned rectangular no-fly region, bounds in meters."""

    x_min: float
    x_max: float
    y_min: float
    y_max: float

    def __post_init__(self) -> None:
        if not (self.x_min < self.x_max and self.y_min < self.y_max):
            raise ValueError(
                f"RectObstacle: need x_min < x_max and y_min < y_max, got "
                f"[{self.x_min}, {self.x_max}] x [{self.y_min}, {self.y_max}]"
            )


# Outward unit normals of a rectangle's faces, in the order x_min, x_max, y_min, y_max.
_FACE_NORMALS = np.array([[-1.0, 0.0], [1.0, 0.0], [0.0, -1.0], [0.0, 1.0]])


@dataclass(frozen=True)
class World:
    """Target, obstacles, noise level, and time base of a scenario."""

    target: TargetEstimate
    obstacles: tuple[RectObstacle, ...] = ()
    motion_noise_std: float = 0.0
    dt: float = 0.1
    rng_seed: int = 0
    # Rectangle bounds as rows x_min, x_max, y_min, y_max over the K obstacles.
    _bounds: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "obstacles", tuple(self.obstacles))
        if self.dt <= 0:
            raise ValueError(f"World.dt: must be > 0, got {self.dt!r}")
        if self.motion_noise_std < 0:
            raise ValueError(f"World.motion_noise_std: must be >= 0, got {self.motion_noise_std!r}")
        if not 0 <= int(self.rng_seed) < 2**64:
            raise ValueError(f"World.rng_seed: must fit in an unsigned 64-bit int, got {self.rng_seed!r}")
        bounds = np.array([[o.x_min, o.x_max, o.y_min, o.y_max] for o in self.obstacles]).reshape(-1, 4)
        object.__setattr__(self, "_bounds", bounds.T)

    def min_clearance(
        self, points: np.ndarray
    ) -> tuple[np.ndarray, Optional[np.ndarray], Optional[np.ndarray]]:
        """Clearance (...), nearest obstacle point (..., 2) and way out (..., 2) of points (..., 2).

        One (N, K) clamp of all points against all rectangles; the closest
        rectangle wins, the first one on ties. The way out is the outward
        normal of that rectangle's nearest face (x_min, x_max, y_min, y_max,
        the first on ties) for points in contact, else zero. Without
        obstacles the clearance is inf and the other two are None.
        """
        points = np.asarray(points, dtype=float)
        shape = points.shape[:-1]
        if not self.obstacles:
            return np.full(shape, math.inf), None, None
        p = points.reshape(-1, 2)
        x, y = p[:, :1], p[:, 1:]
        x_min, x_max, y_min, y_max = self._bounds
        near_x = np.minimum(np.maximum(x, x_min), x_max)
        near_y = np.minimum(np.maximum(y, y_min), y_max)
        dist = np.hypot(x - near_x, y - near_y)
        rows = np.arange(len(p))
        closest = dist.argmin(axis=1)
        clearance = dist[rows, closest]
        nearest = np.stack([near_x[rows, closest], near_y[rows, closest]], axis=1)
        outward = np.zeros_like(p)
        contact = np.flatnonzero(clearance <= 0.0)
        if contact.size:
            k, cx, cy = closest[contact], p[contact, 0], p[contact, 1]
            gaps = np.stack([cx - x_min[k], x_max[k] - cx, cy - y_min[k], y_max[k] - cy], axis=1)
            outward[contact] = _FACE_NORMALS[gaps.argmin(axis=1)]
        return clearance.reshape(shape), nearest.reshape(points.shape), outward.reshape(points.shape)


def _advance(
    state: SwarmState,
    world: World,
    graph: CommGraph,
    disp: DisplacementSet,
    gains: ControlGains,
    target_velocity: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, float, np.ndarray]:
    """One control period: the next positions, velocity estimates and scale, and u."""
    velocities = consensus_velocity_step(state, graph, target_velocity, gains)
    u = control_input(state, graph, disp, gains, *world.min_clearance(state.positions))
    noise = 0.0
    if world.motion_noise_std > 0.0:
        rng = np.random.default_rng([world.rng_seed, state.step_index])
        noise = rng.normal(0.0, world.motion_noise_std, size=state.positions.shape)
    positions = state.positions + u + velocities * world.dt + noise
    clearance = float(world.min_clearance(positions.mean(axis=0))[0])
    scale = scale_factor(disp.nominal_diameter_m, clearance, gains, state.scale)
    return positions, velocities, scale, u


def step(
    state: SwarmState,
    world: World,
    graph: CommGraph,
    disp: DisplacementSet,
    gains: ControlGains,
    target_velocity: Optional[np.ndarray] = None,
) -> SwarmState:
    """Advance the swarm by one control period.

    Runs velocity consensus, applies the combined control input at the
    current formation scale, adds motion noise, then updates the scale from
    the new centroid's obstacle clearance. The noise generator is seeded
    from (world seed, step index), so the successor state is a pure function
    of its inputs.
    """
    if target_velocity is None:
        target_velocity = disp.global_velocity
    positions, velocities, scale, _ = _advance(state, world, graph, disp, gains, target_velocity)
    return SwarmState(positions, velocities, scale, state.step_index + 1)


def crlb_of_positions(positions: np.ndarray, world: World, params: SensingParams) -> float:
    """CRLB trace of the target estimate for agents hovering at these planar spots."""
    return crlb(positions, world.target, params)


def min_pairwise_distance(positions: np.ndarray) -> float:
    """Smallest inter-agent distance."""
    squared = _squared_distances(positions)
    return float(np.sqrt(squared[~np.eye(len(squared), dtype=bool)].min()))


@dataclass(frozen=True)
class Guidance:
    """How the reference velocity is produced during an episode.

    In ``constant`` mode the reference is the displacement set's global
    velocity for the whole run. In ``goal`` mode the leader steers the
    formation center onto the target's vertical projection: it estimates the
    center from its own position and nominal offset, commands a saturated
    proportional velocity toward the goal, and the episode's stop rule gains
    an arrival condition.
    """

    mode: str = "constant"
    max_speed_mps: float = 1.2
    gain_per_s: float = 0.5
    arrival_tolerance_m: float = 0.05
    leader_offset: np.ndarray = field(default_factory=lambda: np.zeros(2))
    goal_m: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        if self.mode not in ("constant", "goal"):
            raise ValueError(f"Guidance.mode: expected 'constant' or 'goal', got {self.mode!r}")
        if self.max_speed_mps <= 0:
            raise ValueError(f"Guidance.max_speed_mps: must be > 0, got {self.max_speed_mps!r}")
        if self.gain_per_s <= 0:
            raise ValueError(f"Guidance.gain_per_s: must be > 0, got {self.gain_per_s!r}")
        if self.arrival_tolerance_m <= 0:
            raise ValueError(
                f"Guidance.arrival_tolerance_m: must be > 0, got {self.arrival_tolerance_m!r}"
            )
        offset = np.asarray(self.leader_offset, dtype=float)
        if offset.shape != (2,) or not np.all(np.isfinite(offset)):
            raise ValueError("Guidance.leader_offset: expected finite 2-vector")
        offset.setflags(write=False)
        object.__setattr__(self, "leader_offset", offset)
        if self.goal_m is not None:
            goal = np.asarray(self.goal_m, dtype=float)
            if goal.shape != (2,) or not np.all(np.isfinite(goal)):
                raise ValueError("Guidance.goal_m: expected finite 2-vector")
            goal.setflags(write=False)
            object.__setattr__(self, "goal_m", goal)

    def _goal(self, world: World) -> np.ndarray:
        """Steering goal: the explicit one if set, else the target's projection.

        The two differ when the formation is planned around an imperfect
        prior target estimate; the swarm can only steer toward what it
        believes the target position to be.
        """
        return world.target.position if self.goal_m is None else self.goal_m

    def center_error_m(self, state: SwarmState, world: World, graph: CommGraph) -> float:
        """Distance from the leader's center estimate to the goal; 0 in constant mode."""
        if self.mode == "constant":
            return 0.0
        center = state.positions[graph.leader_index] - self.leader_offset
        return float(np.linalg.norm(self._goal(world) - center))

    def commanded_velocity(
        self, state: SwarmState, world: World, graph: CommGraph, disp: DisplacementSet
    ) -> np.ndarray:
        if self.mode == "constant":
            return disp.global_velocity
        center = state.positions[graph.leader_index] - self.leader_offset
        v = self.gain_per_s * (self._goal(world) - center)
        speed = float(np.linalg.norm(v))
        if speed > self.max_speed_mps:
            v = v * (self.max_speed_mps / speed)
        return v


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


@dataclass(frozen=True)
class EpisodeTrace:
    """Full record of one simulated episode.

    One record per executed step, indices contiguous from zero; a run with
    ``max_steps = 0`` yields an empty record list and counts as not
    converged.
    """

    records: tuple[StepRecord, ...]
    safety_events: tuple[tuple[int, int], ...]
    converged: bool
    initial_state: SwarmState
    final_state: SwarmState

    @property
    def steps(self) -> int:
        return len(self.records)

    def summary(self) -> dict:
        """Plain-data digest of the episode for serialization."""
        last = self.records[-1] if self.records else None
        return {
            "converged": self.converged,
            "steps": self.steps,
            "safety_violations": [list(e) for e in self.safety_events],
            "final_crlb_m2": None if last is None else last.crlb_m2,
            "final_cost": None if last is None else last.total_cost,
            "final_eta": None if last is None else last.eta,
            "final_displacement_error_m2": None if last is None else last.displacement_error_m2,
            "final_positions": self.final_state.positions.tolist(),
        }


def _check_finite(record: StepRecord) -> None:
    """Raise a ValueError naming the step and every record field that is not finite."""
    bad = [name for name in _MUST_BE_FINITE if not np.isfinite(getattr(record, name)).all()]
    if bad:
        raise ValueError(f"run_episode: diverged at step {record.step}: {', '.join(bad)} not finite")


def run_episode(
    initial: SwarmState,
    world: World,
    graph: CommGraph,
    disp: DisplacementSet,
    gains: ControlGains,
    params: SensingParams,
    max_steps: int,
    stop_tolerance: float = 1e-3,
    guidance: Optional[Guidance] = None,
) -> EpisodeTrace:
    """Simulate until the formation has settled or the step budget is spent.

    The stop rule requires the displacement error to drop below the
    tolerance with the scale factor recovered to (nearly) one; goal-mode
    guidance additionally requires the formation center to have arrived at
    the target. Non-convergence is reported in the trace, not raised; a run
    whose positions or metrics stop being finite raises a ValueError naming
    the step.
    """
    if max_steps < 0:
        raise ValueError(f"run_episode: max_steps must be >= 0, got {max_steps!r}")
    if guidance is None:
        guidance = Guidance(mode="constant")
    records: list[StepRecord] = []
    events: list[tuple[int, int]] = []
    state = initial
    converged = False
    # Overflow shows up as a non-finite record, which the divergence check names.
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(max_steps):
            v_cmd = guidance.commanded_velocity(state, world, graph, disp)
            positions, velocities, scale, u = _advance(state, world, graph, disp, gains, v_cmd)
            clearance = world.min_clearance(positions)[0]
            try:
                crlb: Optional[float] = crlb_of_positions(positions, world, params)
            except (SingularGeometryError, ValueError):
                crlb = None
            # Summed in agent order: numpy's pairwise sum would round the total differently.
            record = StepRecord(
                step=k,
                time_s=(k + 1) * world.dt,
                positions=positions,
                eta=scale,
                crlb_m2=crlb,
                total_cost=sum(local_cost(state, graph, disp, world.dt, positions, v_cmd).tolist()),
                min_clearance_m=float(clearance.min()),
                min_pairwise_m=min_pairwise_distance(positions),
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
                and guidance.center_error_m(state, world, graph) <= guidance.arrival_tolerance_m
            ):
                converged = True
                break
    return EpisodeTrace(
        records=tuple(records),
        safety_events=tuple(events),
        converged=converged,
        initial_state=initial,
        final_state=state,
    )
