"""Environment model and episode driver for the formation simulation.

The world owns the target, the rectangular obstacles (one (K, 4) table), and the motion noise;
the stepper advances the discrete dynamics

    q[k+1] = q[k] + u[k] + g[k] * dt + n[k]

where u is the control input, g the consensus velocity estimate, and n
zero-mean Gaussian noise. Step k's noise is row k mod 16 of block k // 16,
drawn by a Philox generator set to its fresh state for the world's seed as key
and the block as counter: a pure function of (seed, k), so an episode is
reproducible bit for bit and a world holds no generator state. The step loop
carries positions, velocity estimates and the scale as arrays, which the
control laws take, and runs in stretches of steps that assume free field and
share one obstacle query, which checks them afterwards.
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
    _raw_scale,
    _step_laws,
    displacement_error,
    local_cost,
    scale_factor,
)
from .control import consensus_velocity_step, control_input  # noqa: F401  perfbench probes them here (ROADMAP item 1a)
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
        normals of a Philox generator in its fresh state for key ``rng_seed`` and counter
        (0, b mod 2**192), b in the three upper words, times ``motion_noise_std``. So they are
        a pure function of (seed, k), whichever chunk or thread draws them. The blocks are drawn in place from the
        first row of the first one up to the last row the call needs: the draws are sequential,
        so that prefix holds the rows of the whole block.
        """
        if self.motion_noise_std == 0.0:
            return np.zeros(shape)
        first, skip = divmod(first_step, _STOP_STEPS)
        noise = np.empty((skip + shape[0], *shape[1:]))
        bits = np.random.Philox(0)  # a fixed seed draws no OS entropy; each block sets the whole state
        generator = np.random.Generator(bits)
        for block, start in enumerate(range(0, len(noise), _STOP_STEPS), first):
            counter = [0, *((block >> shift) & (2**64 - 1) for shift in (0, 64, 128))]
            bits.state = {  # the fresh state: empty buffer, no cached half-word
                "bit_generator": "Philox",
                "state": {"counter": counter, "key": [self.rng_seed, 0]},
                "buffer": [0] * 4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
            }
            generator.standard_normal(out=noise[start : start + _STOP_STEPS])
        noise *= self.motion_noise_std
        return noise[skip:]

    def min_clearance(self, points: np.ndarray, within: float = math.inf) -> tuple[np.ndarray, np.ndarray | None]:
        """Clearance (...) and way out (..., 2) of points (..., 2): what repulsion reads.

        One (N, 2, K) table of the gaps p - min(max(p, low), high), each point's offset from
        its nearest point of each rectangle, and one (N, K) table of their hypot, which ignores
        signs (C99 F.10.4.3); the closest rectangle wins, the first one on ties. Outside every
        rectangle the way out is the gap at the closest one, so its hypot is the clearance bit
        for bit. In contact it is the outward unit normal of that rectangle's nearest face
        (x_min, x_max, y_min, y_max, the first on ties).
        Only the rows whose clearance is below ``within`` (all by default) get a way out, the
        others NaN; with a finite ``within`` and no such row it is None, and nothing is looked up.
        Without obstacles the clearance is inf.
        """
        points = np.asarray(points, dtype=float)
        if points.shape[-1:] != (2,):
            raise ValueError(f"World.min_clearance.points: expected shape (..., 2), got {points.shape}")
        shape = points.shape[:-1]
        if not len(self.obstacles):
            return np.full(shape, math.inf), np.full(points.shape, math.nan) if within == math.inf else None
        p = points.reshape(-1, 2)
        (low, high), column = self._bounds, p[:, :, None]  # (2, K) corners by axis; (N, 2, 1) points
        gaps = column - np.minimum(np.maximum(column, low), high)
        dist = np.hypot(gaps[:, 0], gaps[:, 1])
        clearance = dist.min(axis=1)  # a NaN row's minimum is NaN, as its argmin
        if within == math.inf:
            rows = np.arange(len(p))
        else:
            rows = (clearance < within).nonzero()[0]
            if not rows.size:
                return clearance.reshape(shape), None
        way_out, closest = np.full(p.shape, math.nan), dist[rows].argmin(axis=1)
        way_out[rows] = gaps[rows, :, closest]
        contact = np.flatnonzero(clearance[rows] <= 0.0)
        if contact.size:
            inside, k = p[rows[contact]], closest[contact]
            faces = np.stack((inside - low[:, k].T, high[:, k].T - inside), axis=-1).reshape(-1, 4)
            way_out[rows[contact]] = _FACE_NORMALS[faces.argmin(axis=1)]
        return clearance.reshape(shape), way_out.reshape(points.shape)


def _buffers(n: int, agents: int) -> tuple[np.ndarray, ...]:
    """Positions (n + 1, M, 2), estimates and inputs (n, M, 2), commands (n, 2), scales, clearances (n, M)."""
    return (
        np.empty((n + 1, agents, 2)), np.empty((n, agents, 2)), np.empty((n, agents, 2)),
        np.empty((n, 2)), np.empty(n), np.empty((n, agents)),
    )


def _advance(
    first: int, steps: int, rows: tuple[np.ndarray, ...], noise: np.ndarray, velocities: np.ndarray, scale: float,
    around: tuple, world: World, graph: CommGraph, disp: DisplacementSet, gains: ControlGains, guidance: Guidance,
) -> tuple[int, bool, np.ndarray, float, tuple]:
    """Run steps ``first`` to ``first + steps - 1`` of ``rows`` (see :func:`_buffers`) as one stretch.

    ``rows[0][first]`` holds the positions before the stretch, ``noise`` the motion noise of
    each row, and ``around`` the clearance (M,) and ways out of those positions below the
    safety radius, as :meth:`World.min_clearance` gives them. The first step reads ``around``;
    each later one assumes no agent inside the radius, and every step the raw scale factor
    clamped at 1, :func:`scale_factor` of an infinite clearance. One obstacle query then
    measures each step's positions and their centroid, sum / M (the double of ``mean``).
    The stretch stands up to its first step with an agent inside the radius or another raw
    factor: that step's inputs held, so it keeps its move and takes its exact scale, and the
    steps after it are dropped. Returns the steps that stand, whether the last one held, and
    the velocity estimates, scale and surroundings after it.
    """
    q, g, u, v_cmd, eta, clearance = rows
    end, diameter, start_scale = first + steps, disp.nominal_diameter_m, scale
    positions = q[first]
    for k in range(first, end):
        v_cmd[k] = v = guidance.commanded_velocity(positions, graph, disp)
        u[k], velocities = _step_laws(positions, velocities, scale, graph, disp, gains, v, *around)
        positions = positions + u[k]
        positions += velocities * world.dt
        positions += noise[k]
        q[k + 1], g[k], around = positions, velocities, (None, None)
        eta[k] = scale = scale_factor(diameter, math.inf, gains, scale)
    moved = q[first + 1 : end + 1]
    points = np.concatenate((moved, moved.sum(axis=1, keepdims=True) / moved.shape[1]), axis=1)
    measured, way_out = world.min_clearance(points, gains.safety_radius_m)
    clearance[first:end] = measured[:, :-1]
    free = (measured[:, :-1] >= gains.safety_radius_m).all(axis=1)
    free &= _raw_scale(diameter, measured[:, -1], gains) >= 1.0
    last = steps - 1 if free.all() else int(free.argmin())
    if not free[last]:
        previous = float(eta[first + last - 1]) if last else start_scale
        eta[first + last] = scale = scale_factor(diameter, float(measured[last, -1]), gains, previous)
    way_out = way_out if way_out is None else way_out[last, :-1]
    return last + 1, bool(free[last]), g[first + last], scale, (measured[last, :-1], way_out)


def step(
    state: SwarmState,
    world: World,
    graph: CommGraph,
    disp: DisplacementSet,
    gains: ControlGains,
    guidance: Optional[Guidance] = None,
) -> SwarmState:
    """Advance the swarm by one control period: the library's one-step entry point.

    A stretch of one step of :func:`_advance`, as :func:`run_episode` runs them near
    obstacles. Takes the reference velocity from ``guidance`` as :func:`run_episode` does
    (constant zero if None; in goal mode, toward the leader's slot of the reference), runs
    velocity consensus, applies the combined control input at the current
    formation scale, adds motion noise, then updates the scale from the new
    centroid's obstacle clearance. It queries the obstacles once for the agents
    before the move and once for them and their centroid after it. The noise is a pure
    function of (world seed, step index), so the successor state is a pure
    function of its inputs. A noisy step builds the generator of its whole
    noise block to draw its one row.
    """
    rows = _buffers(1, len(state.positions))
    rows[0][0] = state.positions
    _, _, velocities, scale, _ = _advance(
        0, 1, rows, world._motion_noise(state.step_index, rows[1].shape), state.velocity_estimates, state.scale,
        world.min_clearance(state.positions, gains.safety_radius_m), world, graph, disp, gains,
        Guidance() if guidance is None else guidance,
    )
    return SwarmState(rows[0][1], velocities, scale, state.step_index + 1)


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
    if positions.shape[-1:] != (2,) or positions.ndim < 2:
        raise ValueError(f"min_pairwise_distance.positions: expected shape (..., M, 2), got {positions.shape}")
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

    def center_error_m(
        self, positions: np.ndarray, graph: CommGraph, disp: DisplacementSet
    ) -> float | np.ndarray:
        """Distance from the leader to its slot of the reference; 0 in constant mode.

        (M, 2) positions give an np.float64 (a float); a batch (..., M, 2) gives an array (...).
        """
        if self.mode == "constant":
            return np.zeros(np.shape(positions)[:-2])[()]  # [()] makes a 0-d result a scalar
        return np.linalg.norm(disp.reference[graph.leader_index] - positions[..., graph.leader_index, :], axis=-1)

    def commanded_velocity(
        self, positions: np.ndarray, graph: CommGraph, disp: DisplacementSet
    ) -> np.ndarray:
        """Reference velocity (2,) for (M, 2) positions, steered on Python floats."""
        if self.mode == "constant":
            return self.velocity_mps
        (x, y), (goal_x, goal_y) = positions[graph.leader_index].tolist(), disp.reference[graph.leader_index].tolist()
        vx, vy = self.gain_per_s * (goal_x - x), self.gain_per_s * (goal_y - y)
        speed = math.sqrt(vx * vx + vy * vy)  # not a dot product: BLAS kernels round it differently
        if speed > self.max_speed_mps:
            shrink = self.max_speed_mps / speed
            vx, vy = vx * shrink, vy * shrink
        return np.array((vx, vy))


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
    :class:`SwarmState`, the final one. Each step makes one edge pass for both
    control laws. Steps run in stretches that share one obstacle query on their
    positions and centroids (see :func:`_advance`), and every value is the
    double of a query per step. A stretch that held is followed by one twice as
    long, up to the end of its block of 16 steps, any other by one step: near
    obstacles each step makes its own query, and the dropped steps never
    outnumber the kept ones. A chunk of C steps draws its motion noise in one
    call before its first step and records only the dynamics per step, in
    blocks of 16 steps. After each block, batched calls give its displacement
    errors and arrival distances and the stop rule cuts the chunk after the
    first settled step, so a converged run computes at most 15 steps it
    discards. The other columns are computed after the chunk in batched calls
    on (C, M, 2) and (C, E, 2) arrays for E directed edges;
    C = min(256, max(1, 2**18 // E)) keeps a dense graph's temporaries near
    4 MB. Positions are not tested per step; the chunk's check names the step,
    so a diverged run stops within one chunk. Columns grow chunk by chunk,
    never from ``max_steps``.
    """
    check_interval("run_episode.max_steps", max_steps, NON_NEGATIVE, number=Integral)
    guidance = Guidance() if guidance is None else guidance
    agents = len(initial.positions)
    chunk_steps = max(1, min(256, 2**18 // graph.links.shape[1]))
    chunks: list[dict] = []
    events: list[tuple[int, int]] = []
    positions, velocities, scale = initial.positions, initial.velocity_estimates, initial.scale
    first_step, converged, stretch = 0, False, 1
    # Overflow shows up as a non-finite metric, which the chunk's divergence check names.
    with np.errstate(over="ignore", invalid="ignore"):
        around = world.min_clearance(positions, gains.safety_radius_m)
        while first_step < max_steps and not converged:
            size = min(chunk_steps, max_steps - first_step)
            rows = q, g, u, v_cmd, eta, clearance = _buffers(size, agents)
            q[0], error = positions, np.empty(size)
            noise = world._motion_noise(initial.step_index + first_step, (size, agents, 2))
            for start in range(0, size, _STOP_STEPS):
                i, end = start, min(start + _STOP_STEPS, size)
                while i < end:
                    steps = min(stretch, end - i)
                    stand, held, velocities, scale, around = _advance(
                        i, steps, rows, noise, velocities, scale, around, world, graph, disp, gains, guidance,
                    )
                    i += stand
                    stretch = min(2 * stretch, _STOP_STEPS) if held else 1
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
