"""Environment model and episode driver for the formation simulation.

The world owns the target, the rectangular obstacles (one (K, 4) table), and the motion noise;
the stepper advances the discrete dynamics

    q[k+1] = q[k] + u[k] + g[k] * dt + n[k]

where u is the control input, g the consensus velocity estimate, and n
zero-mean Gaussian noise. Step k's noise is row k mod 16 of block k // 16,
drawn by a fresh Philox generator keyed by the world's seed with the block as
its counter: a pure function of (seed, k), so an episode is reproducible bit
for bit and a world holds no generator state. The step loop carries positions,
velocity estimates and the scale as arrays, which the control laws take.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from numbers import Integral
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
from .errors import NON_NEGATIVE, POSITIVE, check_fields, check_interval, frozen_array
from .formation import DisplacementSet
from .sensing import SensingParams, TargetEstimate, crlb

GUIDANCE_MODES = ("constant", "goal")  # how Guidance produces the reference velocity


# Outward unit normals of a rectangle's faces, in the order x_min, x_max, y_min, y_max.
_FACE_NORMALS = np.array([[-1.0, 0.0], [1.0, 0.0], [0.0, -1.0], [0.0, 1.0]])
# Steps per stop test, so a settled run discards at most 15, and steps per motion noise block:
# changing it changes the noise stream, so every noisy artifact and its golden digest.
_STOP_STEPS = 16


@dataclass(frozen=True, eq=False)
class World:
    """Target, obstacles, noise level, and time base of a scenario.

    ``obstacles`` holds a row (x_min, x_max, y_min, y_max) in meters per axis-aligned no-fly
    rectangle: a read-only (K, 4) float copy, checked here; (), [] and a (0, 4) array mean none.
    """

    target: TargetEstimate
    obstacles: np.ndarray = ()
    motion_noise_std: float = field(default=0.0, metadata={"interval": NON_NEGATIVE})
    # A step must advance time. A control period over 1000 s is no longer a
    # control loop, and near 1e300 s the first step overflows.
    dt: float = field(default=0.1, metadata={"interval": "(0, 1000]"})
    rng_seed: int = field(default=0, metadata={"interval": "[0, 2^64)"})  # the Philox key
    # Rectangle corners (2, 2, K) over the K obstacles: low (x_min, y_min), then high (x_max, y_max).
    _bounds: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        check_fields(self)
        rows = self.obstacles
        absent = rows.shape in ((0,), (0, 4)) if isinstance(rows, np.ndarray) else rows in ((), [])
        rows = np.empty((0, 4)) if absent else frozen_array("World.obstacles", rows, "(K, 4)", {})
        rows.setflags(write=False)
        empty = np.flatnonzero((rows[:, 0] >= rows[:, 1]) | (rows[:, 2] >= rows[:, 3]))  # the bounds are finite
        if empty.size:
            k = empty[0]
            raise ValueError(f"World.obstacles[{k}]: need x_min < x_max and y_min < y_max, got {rows[k].tolist()}")
        object.__setattr__(self, "obstacles", rows)
        object.__setattr__(self, "_bounds", rows.reshape(-1, 2, 2).transpose(2, 1, 0).copy())

    def _motion_noise(self, first_step: int, shape: tuple[int, int, int]) -> np.ndarray:
        """Motion noise (C, M, 2) of the C steps from ``first_step`` on; zeros without noise.

        Step k's draws are row k mod 16 of block b = k // 16: the (16, M, 2) ziggurat
        normals of a fresh Philox generator keyed by ``rng_seed`` at counter (0, b mod 2**192),
        b in the three upper words, times ``motion_noise_std``. So they are a pure function of
        (seed, k), whichever chunk or thread draws them. The blocks are drawn in place from the
        first row of the first one up to the last row the call needs: the draws are sequential,
        so that prefix holds the rows of the whole block.
        """
        if self.motion_noise_std == 0.0:
            return np.zeros(shape)
        first, skip = divmod(first_step, _STOP_STEPS)
        noise = np.empty((skip + shape[0], *shape[1:]))
        for block, start in enumerate(range(0, len(noise), _STOP_STEPS), first):
            bits = np.random.Philox(counter=(block & (2**192 - 1)) << 64, key=self.rng_seed)
            np.random.Generator(bits).standard_normal(out=noise[start : start + _STOP_STEPS])
        noise *= self.motion_noise_std
        return noise[skip:]

    def min_clearance(self, points: np.ndarray, within: float = math.inf) -> tuple[np.ndarray, np.ndarray | None]:
        """Clearance (...) and way out (..., 2) of points (..., 2): what repulsion reads.

        One (N, K) table of the hypot of the per-axis gaps max(x_min - x, x - x_max, 0) of all
        points to all rectangles; the closest rectangle wins, the first one on ties. Outside
        every rectangle the way out is the point's offset from its nearest point of that
        rectangle, so its hypot is the clearance bit for bit. In contact it is the outward unit
        normal of that rectangle's nearest face (x_min, x_max, y_min, y_max, the first on ties).
        Only the rows whose clearance is below ``within`` (all by default) get a way out, the
        others NaN; with a finite ``within`` and no such row it is None, and nothing is looked up.
        Without obstacles the clearance is inf.
        """
        points = np.asarray(points, dtype=float)
        shape = points.shape[:-1]
        if not len(self.obstacles):
            return np.full(shape, math.inf), np.full(points.shape, math.nan) if within == math.inf else None
        p = points.reshape(-1, 2)
        (low, high), column = self._bounds, p[:, :, None]  # (2, K) corners by axis; (N, 2, 1) points
        gaps = np.maximum(np.maximum(low - column, column - high), 0.0)
        dist = np.hypot(gaps[:, 0], gaps[:, 1])
        clearance, rows = dist.min(axis=1), np.arange(len(p))  # a NaN row's minimum is NaN, as its argmin
        if within < math.inf:
            rows = (clearance < within).nonzero()[0]
            if not rows.size:
                return clearance.reshape(shape), None
        way_out, p, closest = np.full(p.shape, math.nan), p[rows], dist[rows].argmin(axis=1)
        low, high = low[:, closest].T, high[:, closest].T  # (n, 2) corners of the looked-up rows
        way_out[rows] = p - np.minimum(np.maximum(p, low), high)
        contact = np.flatnonzero(clearance[rows] <= 0.0)
        if contact.size:
            inside = p[contact]
            gaps = np.stack((inside - low[contact], high[contact] - inside), axis=-1).reshape(-1, 4)
            way_out[rows[contact]] = _FACE_NORMALS[gaps.argmin(axis=1)]
        return clearance.reshape(shape), way_out.reshape(points.shape)


def _surroundings(world: World, positions: np.ndarray, within: float) -> tuple[tuple, float]:
    """Clearance (M,) and ways out (M, 2) of (M, 2) positions, and their centroid's clearance.

    The ways out are those of :meth:`World.min_clearance` below ``within``: None if none is.
    """
    centroid = positions.sum(axis=0, keepdims=True) / len(positions)  # the double of mean
    clearance, way_out = world.min_clearance(np.concatenate((positions, centroid)), within)
    return (clearance[:-1], way_out if way_out is None else way_out[:-1]), float(clearance[-1])


def _advance(
    positions: np.ndarray,
    velocities: np.ndarray,
    scale: float,
    noise: np.ndarray,
    around: tuple,
    world: World,
    graph: CommGraph,
    disp: DisplacementSet,
    gains: ControlGains,
    target_velocity: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, float, np.ndarray, tuple]:
    """Next positions, velocity estimates, scale, control input u and surroundings of one period.

    ``noise`` (M, 2) is the period's motion noise and ``around`` the surroundings of
    ``positions`` as :func:`_surroundings` gives them; the returned ones are those of the
    next positions, from the step's one obstacle query.
    """
    velocities = consensus_velocity_step(velocities, graph, target_velocity, gains)
    u = control_input(positions, scale, graph, disp, gains, *around)
    positions = positions + u + velocities * world.dt + noise
    around, centroid_clearance = _surroundings(world, positions, gains.safety_radius_m)
    scale = scale_factor(disp.nominal_diameter_m, centroid_clearance, gains, scale)
    return positions, velocities, scale, u, around


def step(
    state: SwarmState,
    world: World,
    graph: CommGraph,
    disp: DisplacementSet,
    gains: ControlGains,
    guidance: Optional[Guidance] = None,
) -> SwarmState:
    """Advance the swarm by one control period: the library's one-step entry point.

    :func:`run_episode` does not call it; both run :func:`_advance`. Takes the
    reference velocity from ``guidance`` as :func:`run_episode` does (constant
    zero if None; in goal mode, toward the leader's slot of the reference), runs
    velocity consensus, applies the combined control input at the current
    formation scale, adds motion noise, then updates the scale from the new
    centroid's obstacle clearance. It queries the obstacles once for the agents
    and their centroid before the move and once after it. The noise is a pure
    function of (world seed, step index), so the successor state is a pure
    function of its inputs. A noisy step builds the generator of its whole
    noise block to draw its one row.
    """
    guidance = Guidance() if guidance is None else guidance
    velocity = guidance.commanded_velocity(state.positions, graph, disp)
    positions, velocities, scale, _, _ = _advance(
        state.positions, state.velocity_estimates, state.scale,
        world._motion_noise(state.step_index, (1, *state.positions.shape))[0],
        _surroundings(world, state.positions, gains.safety_radius_m)[0], world, graph, disp, gains, velocity,
    )
    return SwarmState(positions, velocities, scale, state.step_index + 1)


def crlb_of_positions(positions: np.ndarray, world: World, params: SensingParams):
    """CRLB trace of the target estimate for agents hovering at these planar spots.

    A float for (M, 2) positions; a batch (..., M, 2) gives an array. NaN marks
    a formation without a bound (see :func:`formsense.sensing.crlb`).
    """
    return crlb(positions, world.target, params)


def min_pairwise_distance(positions: np.ndarray):
    """Smallest inter-agent distance of (M, 2) positions; a batch (..., M, 2) gives an array.

    Sorted by x, each agent is compared with the one s places on, s = 1, 2, ..., until no
    row's smallest squared x gap is below its best (Hinrichs, Nievergelt & Schorn, IPL 1988).
    A pair is dx*dx + dy*dy, so the minimum is the same double as over all M^2 pairs.
    """
    positions = np.asarray(positions, dtype=float)
    x, y = np.moveaxis(np.take_along_axis(positions, positions[..., :1].argsort(axis=-2), axis=-2), -1, 0)
    best = np.full(x.shape[:-1], math.inf)
    for s in range(1, x.shape[-1]):
        dx, dy = x[..., s:] - x[..., :-s], y[..., s:] - y[..., :-s]
        best = np.minimum(best, (dx * dx + dy * dy).min(axis=-1))  # a NaN pair keeps its row NaN
        if not (dx.min(axis=-1) ** 2 < best).any():
            break
    # Equal infinite x sit side by side in the order, so the sweep sees their NaN pair; infinite y may not.
    clash = ((y == math.inf).sum(axis=-1) > 1) | ((y == -math.inf).sum(axis=-1) > 1)
    smallest = np.sqrt(np.where(clash, math.nan, best))
    return float(smallest) if positions.ndim == 2 else smallest


@dataclass(frozen=True, eq=False)
class Guidance:
    """How the reference velocity is produced during an episode; the config's ``guidance`` section.

    In ``constant`` mode the reference is ``velocity_mps`` for the whole run.
    In ``goal`` mode the leader steers onto its slot of the reference ring,
    which is planned around the (believed) target: it commands a saturated
    proportional velocity toward the slot, and the episode's stop rule gains
    an arrival condition, the leader within ``arrival_tolerance_m`` of it.
    """

    mode: str = field(default="constant", metadata={"choices": GUIDANCE_MODES})
    velocity_mps: np.ndarray = field(default=(0.0, 0.0), metadata={"shape": "(2,)"})
    max_speed_mps: float = field(default=1.2, metadata={"interval": POSITIVE})
    gain_per_s: float = field(default=0.5, metadata={"interval": POSITIVE})
    arrival_tolerance_m: float = field(default=0.05, metadata={"interval": POSITIVE})

    def __post_init__(self) -> None:
        check_fields(self)

    def _to_goal(self, positions: np.ndarray, graph: CommGraph, disp: DisplacementSet) -> np.ndarray:
        """Vector (..., 2) from the leader to its slot of the reference, for positions (..., M, 2)."""
        return disp.reference[graph.leader_index] - positions[..., graph.leader_index, :]

    def center_error_m(
        self, positions: np.ndarray, graph: CommGraph, disp: DisplacementSet
    ) -> float | np.ndarray:
        """Distance from the leader to its slot of the reference; 0 in constant mode.

        (M, 2) positions give an np.float64 (a float); a batch (..., M, 2) gives an array (...).
        """
        if self.mode == "constant":
            return np.zeros(np.shape(positions)[:-2])[()]  # [()] makes a 0-d result a scalar
        return np.linalg.norm(self._to_goal(positions, graph, disp), axis=-1)

    def commanded_velocity(
        self, positions: np.ndarray, graph: CommGraph, disp: DisplacementSet
    ) -> np.ndarray:
        """Reference velocity (2,) for (M, 2) positions."""
        if self.mode == "constant":
            return self.velocity_mps
        v = self.gain_per_s * self._to_goal(positions, graph, disp)
        speed = math.sqrt(v[0] * v[0] + v[1] * v[1])  # not v.dot(v): BLAS kernels round it differently
        if speed > self.max_speed_mps:
            v = v * (self.max_speed_mps / speed)
        return v


@dataclass(frozen=True, eq=False)
class EpisodeTrace:
    """Full record of one simulated episode: a table of read-only columns indexed by step.

    ``columns`` maps each name of :attr:`COLUMNS` to an array of ``steps`` rows.
    Row k describes step k, contiguous from zero: ``time_s`` (k + 1) * dt,
    ``positions`` (steps, M, 2) after the step, the scale ``eta`` and the
    step's metrics. ``crlb_m2`` is NaN where the geometry is singular or an
    agent hovers directly above the target (None in :meth:`summary` and in
    the artifacts). A run with ``max_steps = 0`` has no rows and counts as
    not converged. Construction raises a ValueError naming a column that is
    missing, unknown or of another length than ``time_s``.
    """

    # The names of the per-step columns. True marks the two where a non-finite value
    # means none: NaN without a CRLB, inf without an obstacle.
    COLUMNS: ClassVar[dict[str, bool]] = {
        "time_s": False, "positions": False, "eta": False, "crlb_m2": True, "total_cost": False,
        "min_clearance_m": True, "min_pairwise_m": False, "max_control_m": False, "displacement_error_m2": False,
    }

    columns: dict[str, np.ndarray]
    safety_events: tuple[tuple[int, int], ...]
    converged: bool
    final_state: SwarmState

    def __post_init__(self) -> None:
        missing, unknown = sorted(self.COLUMNS.keys() - self.columns), sorted(self.columns.keys() - self.COLUMNS)
        if missing or unknown:
            raise ValueError(f"EpisodeTrace.columns: missing {missing}, unknown {unknown}")
        columns = {name: np.asarray(self.columns[name]).view() for name in self.COLUMNS}
        time_s = columns["time_s"]
        for name, column in columns.items():
            if not column.shape or column.shape[:1] != time_s.shape[:1]:
                raise ValueError(f"EpisodeTrace.columns: {name!r} has shape {column.shape}, time_s {time_s.shape}")
            column.flags.writeable = False  # a read-only view: the caller's array stays writable
        vars(self)["columns"] = columns

    @property
    def steps(self) -> int:
        return len(self.columns["time_s"])

    def summary(self) -> dict:
        """Plain-data digest of the episode for serialization."""

        def final(name: str):
            return self.columns[name][-1].item() if self.steps else None

        crlb = final("crlb_m2")
        return {
            "converged": self.converged,
            "steps": self.steps,
            "safety_violations": [list(e) for e in self.safety_events],
            "final_crlb_m2": None if crlb is None or not math.isfinite(crlb) else crlb,
            "final_cost": final("total_cost"),
            "final_eta": final("eta"),
            "final_displacement_error_m2": final("displacement_error_m2"),
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
    naming the first step whose positions or metrics are not finite.
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
    columns = {
        "time_s": np.arange(first_step + 1, first_step + len(after) + 1) * world.dt,
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
    guidance additionally requires the leader to be within the arrival
    tolerance of its slot of the reference. Non-convergence is reported in
    the trace, not raised; a run whose positions or metrics stop being finite
    raises a ValueError naming the step.

    The loop carries positions, velocity estimates and the scale as arrays
    through the same :func:`_advance` as :func:`step` and builds one
    :class:`SwarmState`, the final one. Each step makes one obstacle query,
    :meth:`World.min_clearance` on the new positions and their centroid.
    A chunk of C steps records only the dynamics per step, in blocks of 16
    steps that draw their motion noise before their first step. After each
    block, batched calls give its displacement errors and arrival distances
    and the stop rule cuts the chunk after the first settled step, so a
    converged run computes at most 15 steps it discards. The other columns
    are computed after the chunk in batched calls on (C, M, 2) and (C, E, 2)
    arrays for E directed edges; C = min(256, max(1, 2**18 // E)) keeps a
    dense graph's temporaries near 4 MB. Positions are not tested per step;
    the chunk's check names the step, so a diverged run stops within one
    chunk. Columns grow chunk by chunk, never from ``max_steps``.
    """
    check_interval("run_episode.max_steps", max_steps, NON_NEGATIVE, number=Integral)
    guidance = Guidance() if guidance is None else guidance
    agents = len(initial.positions)
    chunk_steps = max(1, min(256, 2**18 // graph.links.shape[1]))
    chunks: list[dict] = []
    events: list[tuple[int, int]] = []
    positions, velocities, scale = initial.positions, initial.velocity_estimates, initial.scale
    first_step, converged = 0, False
    # Overflow shows up as a non-finite metric, which the chunk's divergence check names.
    with np.errstate(over="ignore", invalid="ignore"):
        around = _surroundings(world, positions, gains.safety_radius_m)[0]
        while first_step < max_steps and not converged:
            size = min(chunk_steps, max_steps - first_step)
            q, g = np.empty((size + 1, agents, 2)), np.empty((size, agents, 2))  # positions, velocities
            q[0] = positions
            u, v_cmd = np.empty((size, agents, 2)), np.empty((size, 2))
            clearance, eta, error = np.empty((size, agents)), np.empty(size), np.empty(size)
            for start in range(0, size, _STOP_STEPS):
                end = min(start + _STOP_STEPS, size)
                step_index = initial.step_index + first_step + start
                noise = world._motion_noise(step_index, (end - start, agents, 2))
                for i, n in zip(range(start, end), noise):  # n: step i's motion noise
                    v_cmd[i] = v = guidance.commanded_velocity(positions, graph, disp)
                    positions, velocities, scale, u[i], around = _advance(
                        positions, velocities, scale, n, around, world, graph, disp, gains, v,
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
