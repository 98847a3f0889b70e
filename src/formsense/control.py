"""Distributed formation control over a communication graph.

Four cooperating pieces: leader-pinned velocity consensus (every follower
averages toward its neighbors, the leader broadcasts the reference), a
displacement law that is a gradient step on each agent's local formation
error, obstacle repulsion from an inverse-distance potential, and a global
scale factor that shrinks the whole target formation through narrow gaps.
Every law is a pure function of arrays: (M, 2) positions or velocity
estimates and the scale factor. The laws gather per-edge differences over the
graph's directed edges (m, p) and sum them back onto agent m: O(M + E) time
and memory. The stepper in :mod:`formsense.world` owns state advancement.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from numbers import Integral

import numpy as np

from .errors import FRACTION, NON_NEGATIVE, POSITIVE, check_fields, check_interval, frozen_array
from .formation import DisplacementSet


@dataclass(frozen=True, eq=False)
class CommGraph:
    """Undirected communication topology with a designated leader.

    Attributes:
        links: (2, E) read-only ints: each link as the edges (m, p) and (p, m), sorted by
            m, then p, as ``np.nonzero`` lists an adjacency matrix; the laws sum in this
            order. Given (2, L) integer links, in either direction or both, the constructor
            stores this form. The agents are 0 to M - 1, M - 1 the largest index named.
        leader_index: The agent that knows the reference velocity.
        agent_count: M, stored once by the constructor.
    """

    links: np.ndarray
    leader_index: int = 0
    agent_count: int = field(init=False)
    _xy_bins: np.ndarray = field(init=False, repr=False)  # 2m, 2m + 1 per edge

    def __post_init__(self) -> None:
        links, leader = np.asarray(self.links), self.leader_index
        indices = links.ndim == 2 and len(links) == 2 and links.dtype.kind in "iu" and links.size
        if not indices or links.min() < 0:
            got = " ".join(repr(self.links).split())
            raise ValueError(f"CommGraph.links: expected a (2, L) array of agent indices >= 0, got {got}")
        agents = int(links.max()) + 1
        if agents - 1 > links.shape[1]:  # fewer links than a spanning tree needs
            raise ValueError("CommGraph.links: graph must be connected")
        m, p = links.astype(np.int64)
        if np.any(m == p):
            raise ValueError(f"CommGraph.links: self link at agent {m[m == p][0]}")
        check_interval("CommGraph.leader_index", leader, f"[0, {agents - 1}]", number=Integral)
        key = np.sort(np.concatenate((m * agents + p, p * agents + m)))  # both directions, sorted
        m, p = np.divmod(key[np.concatenate(([True], key[1:] != key[:-1]))], agents)  # each once
        start = np.searchsorted(m, np.arange(agents + 1)).tolist()  # agent a's edges: start[a] to start[a+1]
        seen, stack = [True] + [False] * (agents - 1), [0]
        while stack:  # depth-first walk from agent 0, reading each edge once
            a = stack.pop()
            for b in p[start[a] : start[a + 1]].tolist():
                if not seen[b]:
                    seen[b] = True
                    stack.append(b)
        if not all(seen):
            raise ValueError("CommGraph.links: graph must be connected")
        object.__setattr__(self, "links", np.stack((m, p)))
        self.links.setflags(write=False)
        object.__setattr__(self, "agent_count", agents)
        object.__setattr__(self, "_xy_bins", (2 * m[:, None] + (0, 1)).ravel())

    @property
    def degrees(self) -> np.ndarray:
        return np.bincount(self.links[0])

    @property
    def max_degree(self) -> int:
        return int(self.degrees.max())

    @property
    def max_follower_degree(self) -> int:
        """Largest degree among non-leader agents (the ones that run consensus)."""
        return int(np.delete(self.degrees, self.leader_index).max())

    @classmethod
    def from_adjacency(cls, adjacency, leader_index: int = 0) -> "CommGraph":
        """The graph of an (M, M) symmetric 0/1 adjacency matrix with a zero diagonal."""
        adj = frozen_array("CommGraph.adjacency", adjacency, "(M, M)", {})
        if adj.shape[0] < 2:
            raise ValueError(f"CommGraph.adjacency: need at least 2 agents, got {adj.shape[0]}")
        if not np.array_equal(adj, adj.T):
            raise ValueError("CommGraph.adjacency: must be symmetric")
        if np.any(np.diag(adj) != 0):
            raise ValueError("CommGraph.adjacency: diagonal must be zero")
        if not np.all(np.isin(adj, (0.0, 1.0))):
            raise ValueError("CommGraph.adjacency: entries must be 0 or 1")
        if not adj[-1].any():  # the links alone would not name the last agent
            raise ValueError("CommGraph.adjacency: graph must be connected")
        return cls(np.stack(np.nonzero(adj)), leader_index)

    @classmethod
    def ring(cls, agent_count: int, leader_index: int = 0) -> "CommGraph":
        """Plain cycle over all agents."""
        if agent_count < 3:
            raise ValueError(f"CommGraph.ring: need at least 3 agents, got {agent_count}")
        return cls((np.arange(agent_count) + [[0], [1]]) % agent_count, leader_index)  # m to m + 1 mod M

    @classmethod
    def ring_with_leader(cls, agent_count: int, leader_index: int = 0) -> "CommGraph":
        """Cycle over all agents plus chords from the leader to everyone."""
        ring = cls.ring(agent_count, leader_index).links
        others = np.delete(np.arange(agent_count), leader_index)
        return cls(np.hstack((ring, [np.full_like(others, leader_index), others])), leader_index)

    @classmethod
    def complete(cls, agent_count: int, leader_index: int = 0) -> "CommGraph":
        if agent_count < 2:
            raise ValueError(f"CommGraph.complete: need at least 2 agents, got {agent_count}")
        m, p = np.divmod(np.arange(agent_count**2), agent_count)
        return cls(np.stack((m[m != p], p[m != p])), leader_index)


@dataclass(frozen=True, eq=False)
class SwarmState:
    """Planar positions, velocity estimates, and formation scale at one step."""

    positions: np.ndarray = field(metadata={"shape": "(M, 2)"})
    velocity_estimates: np.ndarray = field(metadata={"shape": "(M, 2)"})
    scale: float = field(default=1.0, metadata={"interval": FRACTION})
    step_index: int = field(default=0, metadata={"interval": NON_NEGATIVE})

    def __post_init__(self) -> None:
        check_fields(self)


@dataclass(frozen=True)
class ControlGains:
    """Tuning constants of the control stack.

    Attributes:
        epsilon: Displacement-law step gain.
        consensus_gain: Velocity-consensus step gain.
        repulsion_gain: Strength of the obstacle potential.
        safety_radius_m: Distance below which repulsion activates.
        repulsion_cap: Upper limit on the repulsion magnitude per step, m.
        eta_min: Lower clamp for the formation scale factor.
    """

    epsilon: float = field(default=0.01, metadata={"interval": POSITIVE})
    consensus_gain: float = field(default=0.2, metadata={"interval": POSITIVE})
    repulsion_gain: float = field(default=5.0, metadata={"interval": NON_NEGATIVE})
    safety_radius_m: float = field(default=5.0, metadata={"interval": POSITIVE})
    repulsion_cap: float = field(default=5.0, metadata={"interval": POSITIVE})
    eta_min: float = field(default=0.2, metadata={"interval": FRACTION})

    def __post_init__(self) -> None:
        check_fields(self)


def check_stability(gains: ControlGains, graph: CommGraph) -> None:
    """Reject gain/topology pairs outside the linear stability region.

    The displacement law contracts when epsilon keeps every Laplacian
    eigenvalue step inside the unit interval; 2 * max degree bounds the
    spectrum. Consensus runs only on the followers, so its gain is checked
    against the largest follower degree (the leader never updates and its
    degree is irrelevant).
    """
    if gains.epsilon * 2.0 * graph.max_degree >= 1.0:
        raise ValueError(
            f"gains.epsilon: {gains.epsilon} is unstable for max degree "
            f"{graph.max_degree} (need epsilon * 2 * max_degree < 1)"
        )
    limit = graph.max_follower_degree + 1
    if gains.consensus_gain * limit >= 1.0:
        raise ValueError(
            f"gains.consensus_gain: {gains.consensus_gain} is unstable for max follower "
            f"degree {graph.max_follower_degree} (need gain * (degree + 1) < 1)"
        )


def consensus_velocity_step(
    velocities: np.ndarray,
    graph: CommGraph,
    target_velocity: np.ndarray,
    gains: ControlGains,
) -> np.ndarray:
    """One round of leader-pinned velocity consensus.

    The leader's estimate is the reference itself; every follower moves its
    estimate toward the average of what it hears from its neighbors. On a
    connected graph the iteration contracts all estimates to the reference.
    ``velocities`` (M, 2) are the current estimates; they are not modified.
    """
    target_velocity = np.asarray(target_velocity, dtype=float)
    velocities = np.array(velocities, dtype=float)
    velocities[graph.leader_index] = target_velocity
    m, p = graph.links
    correction = _edge_sum(graph, velocities.take(m, axis=0) - velocities.take(p, axis=0))
    updated = velocities - gains.consensus_gain * correction
    updated[graph.leader_index] = target_velocity
    return updated


def _edge_sum(graph: CommGraph, values: np.ndarray) -> np.ndarray:
    """Sum per-edge values (..., E, D) onto agent m of each edge (m, p), giving (..., M, D).

    Every leading row and component has its own bins, so each agent adds its
    edges in edge order (increasing p) and rows never mix.
    """
    *lead, _, width = values.shape
    rows = math.prod(lead)
    if rows == 1 and width == 2:
        bins = graph._xy_bins
    else:
        agent_rows = graph.agent_count * np.arange(rows)[:, None] + graph.links[0]
        bins = (width * agent_rows[..., None] + np.arange(width)).ravel()
    summed = np.bincount(bins, values.ravel(), rows * graph.agent_count * width)
    return summed.reshape(*lead, graph.agent_count, width)


@functools.lru_cache(maxsize=1)
def _reference_offsets(graph: CommGraph, disp: DisplacementSet) -> np.ndarray:
    """(E, 2) desired offsets r_m - r_p on every directed edge (m, p), held for the last pair asked.

    Both objects are frozen with read-only arrays; an episode asks for one pair on every step.
    """
    (m, p), r = graph.links, disp.reference
    offsets = r.take(m, axis=0) - r.take(p, axis=0)
    offsets.setflags(write=False)
    return offsets


def _deviation(q: np.ndarray, graph: CommGraph, disp: DisplacementSet, scale=1.0) -> np.ndarray:
    """(..., E, 2) deviation q_m - q_p - scale * (r_m - r_p) on every directed edge (m, p).

    ``q`` is (..., M, 2): one set of positions, or a batch along the leading axes.
    """
    (m, p), r = graph.links, disp.reference
    if not q.shape[-2] == len(r) == graph.agent_count:
        raise ValueError(
            f"expected {graph.agent_count} agents, got {q.shape[-2]} positions and {len(r)} reference rows"
        )
    return q.take(m, axis=-2) - q.take(p, axis=-2) - scale * _reference_offsets(graph, disp)


def local_cost(
    positions: np.ndarray,
    graph: CommGraph,
    disp: DisplacementSet,
    dt: float,
    next_positions: np.ndarray,
    target_velocity: np.ndarray,
) -> np.ndarray:
    """Formation error as seen by each agent, shape (M,).

    Agent m's cost sums the squared deviations from the desired full-size
    offsets to each neighbor, plus the squared mismatch between its realized
    velocity (next_positions[m] - positions[m]) / dt and the reference
    velocity.

    ``positions`` are those before the move. Positions (..., M, 2) with next
    positions of the same shape and reference velocities (..., 2) give the
    costs (..., M) of a batch of steps.
    """
    if dt <= 0:
        raise ValueError(f"local_cost: dt must be > 0, got {dt!r}")
    q = np.asarray(positions, dtype=float)
    squared = (_deviation(q, graph, disp) ** 2).sum(axis=-1)
    displacement_term = _edge_sum(graph, squared[..., None])[..., 0]
    realized = (np.asarray(next_positions, dtype=float) - q) / dt
    mismatch = realized - np.asarray(target_velocity, dtype=float)[..., None, :]
    return displacement_term + (mismatch**2).sum(axis=-1)


def displacement_error(
    positions: np.ndarray, graph: CommGraph, disp: DisplacementSet
) -> float | np.ndarray:
    """Total squared deviation from the full-size desired offsets, over graph edges.

    Each undirected edge is counted once; the summand is symmetric in the
    edge's endpoints because both the position difference and the desired
    offset flip sign together. (M, 2) positions give an np.float64 (a
    float); a batch (..., M, 2) gives an array (...).
    """
    per_edge = (_deviation(positions, graph, disp) ** 2).sum(axis=-1)
    return per_edge.sum(axis=-1) / 2.0


def displacement_control(
    positions: np.ndarray,
    graph: CommGraph,
    disp: DisplacementSet,
    gains: ControlGains,
    scale: float,
) -> np.ndarray:
    """Gradient step of each agent onto the scaled desired offsets.

    u_m = -epsilon * sum_p a_mp (q_m - q_p - scale * (r_m - r_p)) with r the
    reference, which is -epsilon/2 times the gradient of agent m's own
    displacement error. The offsets enter scaled so the tracked formation
    can shrink near obstacles without changing shape.
    """
    if not 0.0 < scale <= 1.0:
        raise ValueError(f"displacement_control: scale must lie in (0, 1], got {scale!r}")
    deviation = _deviation(np.asarray(positions, dtype=float), graph, disp, scale)
    return -gains.epsilon * _edge_sum(graph, deviation)


def repulsion(distance: float, way_out: np.ndarray, gains: ControlGains) -> np.ndarray:
    """Pushback (2,) of an agent ``distance`` from its closest obstacle; zero from the safety radius on.

    The magnitude is the gradient of the potential
    0.5 * E_r * (1/l - 1/l_safe)^2, i.e. E_r * (1/l - 1/l_safe) / l^2,
    capped, and directed along ``way_out``, the agent's offset from its
    nearest obstacle point. Where l^2 is 0, in contact (distance zero, the
    way out the unit normal of the face to leave by) or below about
    1.5e-162 m where it underflows, a positive gain gives the cap and a zero
    gain nothing; the caller logs a contact as a safety violation. Both
    values come from :meth:`formsense.world.World.min_clearance`.
    """
    if distance >= gains.safety_radius_m:
        return np.zeros(2)
    if distance**2 == 0.0:  # any positive gain is past the cap
        push = gains.repulsion_cap if gains.repulsion_gain > 0 else 0.0
        return push * (way_out if distance == 0.0 else way_out / distance)
    magnitude = gains.repulsion_gain * (1.0 / distance - 1.0 / gains.safety_radius_m) / distance**2
    return min(magnitude, gains.repulsion_cap) * (way_out / distance)


def scale_factor(
    nominal_diameter_m: float,
    world_clearance_m: float,
    gains: ControlGains,
    previous_scale: float,
) -> float:
    """Smoothed shrink factor for the tracked formation near obstacles.

    The raw factor asks that the formation fit inside the available
    clearance with the safety margin subtracted, clamped to
    [eta_min, 1]. A first-order low-pass (0.9 old, 0.1 raw) keeps the
    tracked offsets from jumping when clearance changes abruptly.
    """
    if nominal_diameter_m <= 0:
        raise ValueError(
            f"scale_factor: nominal_diameter_m must be > 0, got {nominal_diameter_m!r}"
        )
    if world_clearance_m < 0:
        raise ValueError(f"scale_factor: clearance must be >= 0, got {world_clearance_m!r}")
    raw = 2.0 * (world_clearance_m - gains.safety_radius_m) / nominal_diameter_m
    raw = min(1.0, max(gains.eta_min, raw))
    return 0.9 * previous_scale + 0.1 * raw


def control_input(
    positions: np.ndarray,
    scale: float,
    graph: CommGraph,
    disp: DisplacementSet,
    gains: ControlGains,
    clearance: np.ndarray,
    way_out: np.ndarray,
) -> np.ndarray:
    """Total per-agent control of (M, 2) positions: displacement tracking at ``scale`` plus repulsion.

    ``clearance`` (M,) and ``way_out`` (M, 2) describe each agent's closest
    obstacle as :meth:`formsense.world.World.min_clearance` returns them.
    Repulsion is evaluated only for the agents inside the safety radius.
    """
    u = displacement_control(positions, graph, disp, gains, scale)
    for m in np.flatnonzero(clearance < gains.safety_radius_m):
        u[m] += repulsion(clearance[m], way_out[m], gains)
    return u
