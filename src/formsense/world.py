"""Environment model and episode driver for the formation simulation.

The world owns the target, the rectangular obstacles, and the motion noise;
the stepper advances the discrete dynamics

    q[k+1] = q[k] + u[k] + g[k] * dt + n[k]

where u is the control input, g the consensus velocity estimate, and n
zero-mean Gaussian noise drawn from a per-step seeded generator so that a
whole episode is reproducible bit for bit. The step loop carries positions,
velocity estimates and the scale as arrays, which the control laws take.

An episode is recorded in columns: one array per quantity with a row per
step (positions (steps, M, 2); time, scale factor, CRLB, formation cost,
clearances, control and displacement error (steps,)). The step loop writes
only what the dynamics and the stop rule need; after every chunk of
max(1, min(256, 2**16 // M**2)) steps the remaining columns of that chunk
are computed in batched calls, whose temporaries hold at most
max(2**16, M**2) pairwise distances, and the columns grow chunk by chunk.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import ClassVar, Optional

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
from .errors import NON_NEGATIVE, POSITIVE, check_fields
from .formation import DisplacementSet, _squared_distances
from .sensing import SensingParams, TargetEstimate, crlb

GUIDANCE_MODES = ("constant", "goal")  # how Guidance produces the reference velocity


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
    motion_noise_std: float = field(default=0.0, metadata={"interval": NON_NEGATIVE})
    # A step must advance time. A control period over 1000 s is no longer a
    # control loop, and near 1e300 s the first step overflows.
    dt: float = field(default=0.1, metadata={"interval": "(0, 1000]"})
    rng_seed: int = 0
    # Rectangle bounds as rows x_min, x_max, y_min, y_max over the K obstacles.
    _bounds: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "obstacles", tuple(self.obstacles))
        check_fields(self)
        try:
            fits = 0 <= operator.index(self.rng_seed) < 2**64
        except TypeError:
            fits = False
        if not fits:
            raise ValueError(f"World.rng_seed: must be an int in [0, 2^64), got {self.rng_seed!r}")
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


def _surroundings(world: World, positions: np.ndarray) -> tuple[tuple, float]:
    """Per-agent clearance rows of (M, 2) positions and their centroid's clearance, in one query."""
    agents = len(positions)
    points = world.min_clearance(np.concatenate((positions, positions.mean(axis=0, keepdims=True))))
    return tuple(None if a is None else a[:agents] for a in points), float(points[0][agents])


def _advance(
    positions: np.ndarray,
    velocities: np.ndarray,
    scale: float,
    step_index: int,
    around: tuple,
    world: World,
    graph: CommGraph,
    disp: DisplacementSet,
    gains: ControlGains,
    target_velocity: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, float, np.ndarray, tuple]:
    """Next positions, velocity estimates, scale, control input u and clearance rows of one period.

    ``around`` holds the per-agent clearance rows of ``positions``, as :func:`_surroundings` gives them.
    """
    velocities = consensus_velocity_step(velocities, graph, target_velocity, gains)
    u = control_input(positions, scale, graph, disp, gains, *around)
    noise = 0.0
    if world.motion_noise_std > 0.0:
        rng = np.random.default_rng([world.rng_seed, step_index])
        noise = rng.normal(0.0, world.motion_noise_std, size=positions.shape)
    positions = positions + u + velocities * world.dt + noise
    around, centroid_clearance = _surroundings(world, positions)
    scale = scale_factor(disp.nominal_diameter_m, centroid_clearance, gains, scale)
    return positions, velocities, scale, u, around


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
    positions, velocities, scale, _, _ = _advance(
        state.positions, state.velocity_estimates, state.scale, state.step_index,
        _surroundings(world, state.positions)[0], world, graph, disp, gains, target_velocity,
    )
    return SwarmState(positions, velocities, scale, state.step_index + 1)


def crlb_of_positions(positions: np.ndarray, world: World, params: SensingParams):
    """CRLB trace of the target estimate for agents hovering at these planar spots.

    A float for (M, 2) positions; a batch (..., M, 2) gives an array. NaN marks
    a formation without a bound (see :func:`formsense.sensing.crlb`).
    """
    return crlb(positions, world.target, params)


def min_pairwise_distance(positions: np.ndarray):
    """Smallest inter-agent distance of (M, 2) positions.

    A batch of shape (..., M, 2) gives an array of the batch shape.
    """
    positions = np.asarray(positions, dtype=float)
    squared = _squared_distances(positions)
    agents = np.arange(positions.shape[-2])
    squared[..., agents, agents] = math.inf  # an agent's distance to itself does not count
    smallest = np.sqrt(squared.min(axis=(-2, -1)))
    return float(smallest) if positions.ndim == 2 else smallest


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

    mode: str = field(default="constant", metadata={"choices": GUIDANCE_MODES})
    max_speed_mps: float = field(default=1.2, metadata={"interval": POSITIVE})
    gain_per_s: float = field(default=0.5, metadata={"interval": POSITIVE})
    arrival_tolerance_m: float = field(default=0.05, metadata={"interval": POSITIVE})
    leader_offset: np.ndarray = field(default=(0.0, 0.0), metadata={"shape": "(2,)"})
    goal_m: Optional[np.ndarray] = field(default=None, metadata={"shape": "(2,)"})

    def __post_init__(self) -> None:
        check_fields(self)

    def _to_goal(self, positions: np.ndarray, world: World, graph: CommGraph) -> np.ndarray:
        """Vector from the leader's estimate of the formation center to the steering goal.

        The goal is the explicit one if set, else the target's projection. The
        two differ when the formation is planned around an imperfect prior
        target estimate; the swarm can only steer toward what it believes the
        target position to be.
        """
        goal = world.target.position if self.goal_m is None else self.goal_m
        return goal - (positions[graph.leader_index] - self.leader_offset)

    def center_error_m(self, positions: np.ndarray, world: World, graph: CommGraph) -> float:
        """Distance from the leader's center estimate to the goal; 0 in constant mode."""
        if self.mode == "constant":
            return 0.0
        return float(np.linalg.norm(self._to_goal(positions, world, graph)))

    def commanded_velocity(
        self, positions: np.ndarray, world: World, graph: CommGraph, disp: DisplacementSet
    ) -> np.ndarray:
        """Reference velocity for (M, 2) positions."""
        if self.mode == "constant":
            return disp.global_velocity
        v = self.gain_per_s * self._to_goal(positions, world, graph)
        speed = float(np.linalg.norm(v))
        if speed > self.max_speed_mps:
            v = v * (self.max_speed_mps / speed)
        return v


@dataclass(frozen=True)
class EpisodeTrace:
    """Full record of one simulated episode, as read-only columns indexed by step.

    Row k describes step k, contiguous from zero: ``time_s`` (k + 1) * dt,
    ``positions`` (steps, M, 2) after the step, the scale ``eta`` and the
    step's metrics. ``crlb_m2`` is NaN where the geometry is singular or an
    agent hovers directly above the target (None in :meth:`summary` and in
    the artifacts). A run with ``max_steps = 0`` has no rows and counts as
    not converged.
    """

    # The per-step columns, the six that trace.csv plots first. True marks the two where
    # a non-finite value means none: NaN without a CRLB, inf without an obstacle.
    COLUMNS: ClassVar[dict[str, bool]] = {
        "time_s": False, "crlb_m2": True, "total_cost": False, "eta": False,
        "min_clearance_m": True, "min_pairwise_m": False,
        "positions": False, "max_control_m": False, "displacement_error_m2": False,
    }

    time_s: np.ndarray
    positions: np.ndarray
    eta: np.ndarray
    crlb_m2: np.ndarray
    total_cost: np.ndarray
    min_clearance_m: np.ndarray
    min_pairwise_m: np.ndarray
    max_control_m: np.ndarray
    displacement_error_m2: np.ndarray
    safety_events: tuple[tuple[int, int], ...]
    converged: bool
    final_state: SwarmState

    def __post_init__(self) -> None:
        for name in self.COLUMNS:
            getattr(self, name).setflags(write=False)

    @property
    def steps(self) -> int:
        return len(self.eta)

    def summary(self) -> dict:
        """Plain-data digest of the episode for serialization."""

        def final(column: np.ndarray):
            return column[-1].item() if len(column) else None

        crlb = final(self.crlb_m2)
        return {
            "converged": self.converged,
            "steps": self.steps,
            "safety_violations": [list(e) for e in self.safety_events],
            "final_crlb_m2": None if crlb is None or math.isnan(crlb) else crlb,
            "final_cost": final(self.total_cost),
            "final_eta": final(self.eta),
            "final_displacement_error_m2": final(self.displacement_error_m2),
            "final_positions": self.final_state.positions.tolist(),
        }


def _chunk_columns(
    first_step: int,
    q: np.ndarray,
    u: np.ndarray,
    v_cmd: np.ndarray,
    error: np.ndarray,
    clearance: np.ndarray,
    eta: np.ndarray,
    world: World,
    graph: CommGraph,
    disp: DisplacementSet,
    params: SensingParams,
) -> tuple[dict, list[tuple[int, int]]]:
    """Columns and safety events of the n steps recorded in one chunk, from batched calls.

    ``q`` (n + 1, M, 2) holds the positions before the chunk's first step and
    after each of its steps; ``u``, ``v_cmd``, ``error``, ``clearance`` (per
    agent) and ``eta`` hold the loop's values per step. Raises a ValueError
    naming the first step whose positions or metrics are not finite; the
    clearance and eta of that step need not be set.
    """
    after = q[1:]
    # Summed strictly left to right over the agents, on every Python version.
    cost = np.cumsum(local_cost(q[:-1], graph, disp, world.dt, after, v_cmd), axis=-1)[:, -1]
    max_control = np.linalg.norm(u, axis=-1).max(axis=-1)
    min_pairwise = min_pairwise_distance(after)
    finite = {
        "positions": np.isfinite(after).all(axis=(1, 2)),
        "total_cost": np.isfinite(cost),
        "displacement_error_m2": np.isfinite(error),
        "max_control_m": np.isfinite(max_control),
        "min_pairwise_m": np.isfinite(min_pairwise),
    }
    ok = np.logical_and.reduce(list(finite.values()))
    if not ok.all():
        row = int(ok.argmin())
        bad = ", ".join(name for name, column in finite.items() if not column[row])
        raise ValueError(f"run_episode: diverged at step {first_step + row}: {bad} not finite")
    steps = np.arange(first_step + 1, first_step + len(after) + 1)
    columns = {
        "time_s": steps * world.dt,
        "positions": after,
        "eta": eta,
        "crlb_m2": crlb_of_positions(after, world, params),
        "total_cost": cost,
        "min_clearance_m": clearance.min(axis=1),
        "min_pairwise_m": min_pairwise,
        "max_control_m": max_control,
        "displacement_error_m2": error,
    }
    events = [(first_step + k, m) for k, m in np.argwhere(clearance <= 0.0).tolist()]
    return columns, events


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

    The loop carries positions, velocity estimates and the scale as arrays
    through the same :func:`_advance` as :func:`step`, and builds one
    :class:`SwarmState`, the final state. It computes what the dynamics and
    the stop rule need, with one :meth:`World.min_clearance` call per step on
    the new positions and their centroid; the next step's control input
    reuses its per-agent rows. Every chunk of C = max(1, min(256, 2**16 //
    M**2)) steps is then measured in batched calls, whose temporaries hold at
    most max(2**16, M**2) pairwise distances; a diverged run stops within one
    chunk. Columns grow chunk by chunk, never from ``max_steps``.
    """
    if max_steps < 0:
        raise ValueError(f"run_episode: max_steps must be >= 0, got {max_steps!r}")
    if guidance is None:
        guidance = Guidance(mode="constant")
    agents = len(initial.positions)
    chunk_steps = max(1, min(256, 2**16 // agents**2))
    chunks: list[dict] = []
    events: list[tuple[int, int]] = []
    positions, velocities, scale = initial.positions, initial.velocity_estimates, initial.scale
    first_step, converged = 0, False
    # Overflow shows up as a non-finite metric, which the chunk's divergence check names.
    with np.errstate(over="ignore", invalid="ignore"):
        around = _surroundings(world, positions)[0]
        while first_step < max_steps and not converged:
            size = min(chunk_steps, max_steps - first_step)
            q = np.empty((size + 1, agents, 2))
            q[0] = positions
            u, v_cmd = np.empty((size, agents, 2)), np.empty((size, 2))
            clearance, eta, error = np.empty((size, agents)), np.empty(size), np.empty(size)
            for i in range(size):
                v = guidance.commanded_velocity(positions, world, graph, disp)
                positions, velocities, scale, u[i], around = _advance(
                    positions, velocities, scale, initial.step_index + first_step + i, around,
                    world, graph, disp, gains, v,
                )
                q[i + 1], v_cmd[i], clearance[i], eta[i] = positions, v, around[0], scale
                error[i] = displacement_error(positions, graph, disp)
                if not np.isfinite(positions).all():
                    size = i + 1  # the chunk's divergence check raises for this step
                    break
                if (
                    error[i] < stop_tolerance
                    and scale >= 0.999
                    and guidance.center_error_m(positions, world, graph) <= guidance.arrival_tolerance_m
                ):
                    size, converged = i + 1, True
                    break
            columns, chunk_events = _chunk_columns(
                first_step, q[: size + 1], u[:size], v_cmd[:size], error[:size],
                clearance[:size], eta[:size], world, graph, disp, params,
            )
            chunks.append(columns)
            events.extend(chunk_events)
            first_step += size
    names = EpisodeTrace.COLUMNS
    if not chunks:
        chunks.append({name: np.empty((0, agents, 2) if name == "positions" else 0) for name in names})
    return EpisodeTrace(
        **{name: np.concatenate([c[name] for c in chunks]) for name in names},
        safety_events=tuple(events),
        converged=converged,
        final_state=SwarmState(positions, velocities, scale, initial.step_index + first_step)
        if first_step else initial,
    )
