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
    local_cost,
    scale_factor,
)
from .errors import SingularGeometryError
from .formation import DisplacementSet
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

    def nearest_point(self, position: np.ndarray) -> np.ndarray:
        """Closest point of the rectangle: componentwise clamp of the position."""
        position = np.asarray(position, dtype=float)
        return np.array(
            [
                min(max(position[0], self.x_min), self.x_max),
                min(max(position[1], self.y_min), self.y_max),
            ]
        )

    def distance(self, position: np.ndarray) -> float:
        """Euclidean distance to the rectangle; zero on the boundary or inside."""
        position = np.asarray(position, dtype=float)
        nearest = self.nearest_point(position)
        return float(np.hypot(position[0] - nearest[0], position[1] - nearest[1]))

    def escape_direction(self, position: np.ndarray) -> np.ndarray:
        """Outward unit direction through the nearest face.

        Defined for positions on or inside the rectangle, where the nearest
        point coincides with the position and the repulsion direction would
        otherwise be ambiguous.
        """
        position = np.asarray(position, dtype=float)
        gaps = (
            (position[0] - self.x_min, np.array([-1.0, 0.0])),
            (self.x_max - position[0], np.array([1.0, 0.0])),
            (position[1] - self.y_min, np.array([0.0, -1.0])),
            (self.y_max - position[1], np.array([0.0, 1.0])),
        )
        return min(gaps, key=lambda g: g[0])[1]


def nearest_point_on_obstacle(position: np.ndarray, obstacle: RectObstacle) -> np.ndarray:
    """Functional alias of :meth:`RectObstacle.nearest_point`."""
    return obstacle.nearest_point(position)


@dataclass(frozen=True)
class World:
    """Target, obstacles, noise level, and time base of a scenario."""

    target: TargetEstimate
    obstacles: tuple[RectObstacle, ...] = ()
    motion_noise_std: float = 0.0
    dt: float = 0.1
    rng_seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "obstacles", tuple(self.obstacles))
        if self.dt <= 0:
            raise ValueError(f"World.dt: must be > 0, got {self.dt!r}")
        if self.motion_noise_std < 0:
            raise ValueError(f"World.motion_noise_std: must be >= 0, got {self.motion_noise_std!r}")
        if not 0 <= int(self.rng_seed) < 2**64:
            raise ValueError(f"World.rng_seed: must fit in an unsigned 64-bit int, got {self.rng_seed!r}")

    def min_clearance(self, position: np.ndarray) -> tuple[float, Optional[np.ndarray]]:
        """Distance to the closest obstacle and the point realizing it.

        Returns (inf, None) when the world has no obstacles.
        """
        best = math.inf
        best_point: Optional[np.ndarray] = None
        for obstacle in self.obstacles:
            nearest = obstacle.nearest_point(position)
            dist = float(np.hypot(position[0] - nearest[0], position[1] - nearest[1]))
            if dist < best:
                best = dist
                best_point = nearest
        return best, best_point

    def clearance_query(
        self, position: np.ndarray
    ) -> tuple[float, Optional[np.ndarray], Optional[np.ndarray]]:
        """Clearance, nearest obstacle point, and an escape hint for contact.

        The third element is an outward unit direction, provided only when
        the clearance is exactly zero (agent on or inside an obstacle).
        """
        position = np.asarray(position, dtype=float)
        clearance, nearest = self.min_clearance(position)
        if nearest is None or clearance > 0.0:
            return clearance, nearest, None
        containing = min(self.obstacles, key=lambda o: o.distance(position))
        return clearance, nearest, containing.escape_direction(position)


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
    velocities = consensus_velocity_step(state, graph, target_velocity, gains)
    u = control_input(state, graph, disp, gains, world.clearance_query)
    if world.motion_noise_std > 0.0:
        rng = np.random.default_rng([world.rng_seed, state.step_index])
        noise = rng.normal(0.0, world.motion_noise_std, size=state.positions.shape)
    else:
        noise = 0.0
    new_positions = state.positions + u + velocities * world.dt + noise
    centroid = new_positions.mean(axis=0)
    clearance, _ = world.min_clearance(centroid)
    new_scale = scale_factor(disp.nominal_diameter_m, clearance, gains, state.scale)
    return SwarmState(
        positions=new_positions,
        velocity_estimates=velocities,
        scale=new_scale,
        step_index=state.step_index + 1,
    )


def crlb_of_positions(positions: np.ndarray, world: World, params: SensingParams) -> float:
    """CRLB trace of the target estimate for agents hovering at these planar spots."""
    return crlb(positions, world.target, params)


def displacement_error(
    positions: np.ndarray, graph: CommGraph, disp: DisplacementSet
) -> float:
    """Total squared deviation from the full-size desired offsets, over graph edges.

    Each undirected edge is counted once; the summand is symmetric in the
    edge's endpoints because both the position difference and the desired
    offset flip sign together.
    """
    deviation = positions[:, None, :] - positions[None, :, :] - disp.offsets
    per_pair = (deviation**2).sum(axis=2)
    return float((graph.adjacency * per_pair).sum() / 2.0)


def min_pairwise_distance(positions: np.ndarray) -> float:
    """Smallest inter-agent distance."""
    diff = positions[:, None, :] - positions[None, :, :]
    dist = np.sqrt((diff**2).sum(axis=2))
    m = positions.shape[0]
    return float(dist[~np.eye(m, dtype=bool)].min())


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
    the target. Non-convergence is reported in the trace, not raised.
    """
    if max_steps < 0:
        raise ValueError(f"run_episode: max_steps must be >= 0, got {max_steps!r}")
    if guidance is None:
        guidance = Guidance(mode="constant")
    records: list[StepRecord] = []
    events: list[tuple[int, int]] = []
    state = initial
    converged = False
    for k in range(max_steps):
        v_cmd = guidance.commanded_velocity(state, world, graph, disp)
        u = control_input(state, graph, disp, gains, world.clearance_query)
        new_state = step(state, world, graph, disp, gains, target_velocity=v_cmd)
        cost = sum(
            local_cost(state, graph, disp, m, world.dt, new_state.positions[m], v_cmd)
            for m in range(state.agent_count)
        )
        clearances = [
            world.min_clearance(new_state.positions[m])[0] for m in range(state.agent_count)
        ]
        for m, c in enumerate(clearances):
            if c <= 0.0:
                events.append((k, m))
        try:
            crlb: Optional[float] = crlb_of_positions(new_state.positions, world, params)
        except (SingularGeometryError, ValueError):
            crlb = None
        err = displacement_error(new_state.positions, graph, disp)
        records.append(
            StepRecord(
                step=k,
                time_s=(k + 1) * world.dt,
                positions=new_state.positions,
                eta=new_state.scale,
                crlb_m2=crlb,
                total_cost=float(cost),
                min_clearance_m=float(min(clearances)),
                min_pairwise_m=min_pairwise_distance(new_state.positions),
                max_control_m=float(np.linalg.norm(u, axis=1).max()),
                displacement_error_m2=err,
            )
        )
        state = new_state
        if (
            err < stop_tolerance
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
