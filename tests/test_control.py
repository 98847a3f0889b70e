"""Tests for the communication graph, consensus, and control laws.

The gradient laws are checked against central finite differences of the
potentials they claim to descend; the consensus and displacement iterations
are checked for contraction on randomly generated connected topologies.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from formsense import (
    CommGraph,
    ControlGains,
    DisplacementSet,
    SwarmState,
    World,
    build_formation,
    check_stability,
    consensus_velocity_step,
    control_input,
    displacement_control,
    displacement_error,
    local_cost,
    min_pairwise_distance,
    repulsion,
    scale_factor,
)
from formsense.control import _step_laws
from oracle import (
    adjacency,
    agent_cost,
    dense_consensus,
    dense_displacement_control,
    dense_displacement_error,
    dense_local_cost,
    dense_topology,
)


def random_connected_graph(rng: np.random.Generator, max_agents: int = 8) -> CommGraph:
    """Random spanning tree plus extra edges; connected by construction."""
    n = int(rng.integers(3, max_agents + 1))
    adj = np.zeros((n, n))
    order = rng.permutation(n)
    for i in range(1, n):
        parent = order[int(rng.integers(0, i))]
        child = order[i]
        adj[parent, child] = adj[child, parent] = 1.0
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.3:
                adj[i, j] = adj[j, i] = 1.0
    return CommGraph.from_adjacency(adj, leader_index=int(rng.integers(0, n)))


NOT_INDICES = r"expected a \(2, L\) array of agent indices >= 0"


def two_agent_graph() -> CommGraph:
    return CommGraph.from_adjacency(np.array([[0.0, 1.0], [1.0, 0.0]]), leader_index=0)


class TestCommGraph:
    def test_ring_degrees(self):
        graph = CommGraph.ring(6)
        np.testing.assert_array_equal(graph.degrees, np.full(6, 2.0))

    def test_ring_with_leader_degrees(self):
        graph = CommGraph.ring_with_leader(6)
        np.testing.assert_array_equal(graph.degrees, [5.0, 2.0, 3.0, 3.0, 3.0, 2.0])
        assert graph.max_degree == 5
        assert graph.max_follower_degree == 3

    def test_complete_degrees(self):
        graph = CommGraph.complete(5)
        np.testing.assert_array_equal(graph.degrees, np.full(5, 4.0))

    def test_follower_degree_ignores_leader(self):
        graph = CommGraph.ring_with_leader(6, leader_index=2)
        assert graph.max_follower_degree == 3

    def test_rejects_asymmetric(self):
        adj = np.zeros((3, 3))
        adj[0, 1] = 1.0
        with pytest.raises(ValueError, match="symmetric"):
            CommGraph.from_adjacency(adj)

    def test_rejects_self_loop(self):
        adj = np.array([[1.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
        with pytest.raises(ValueError, match="diagonal"):
            CommGraph.from_adjacency(adj)

    def test_rejects_weighted_edges(self):
        adj = np.array([[0.0, 0.5, 0.0], [0.5, 0.0, 1.0], [0.0, 1.0, 0.0]])
        with pytest.raises(ValueError, match="0 or 1"):
            CommGraph.from_adjacency(adj)

    def test_rejects_disconnected(self):
        adj = np.zeros((4, 4))
        adj[0, 1] = adj[1, 0] = 1.0
        adj[2, 3] = adj[3, 2] = 1.0
        with pytest.raises(ValueError, match="connected"):
            CommGraph.from_adjacency(adj)

    def test_rejects_a_single_agent(self):
        with pytest.raises(ValueError, match=r"^CommGraph.adjacency: need at least 2 agents, got 1$"):
            CommGraph.from_adjacency(np.zeros((1, 1)))

    def test_rejects_bad_leader_index(self):
        with pytest.raises(ValueError, match="leader_index"):
            CommGraph.ring(4, leader_index=4)
        for leader in (1.5, 1.0, -1, "1", True):
            with pytest.raises(ValueError) as raised:
                CommGraph(np.array([[0, 1, 2, 3], [1, 2, 3, 0]]), leader)
            assert str(raised.value) == f"CommGraph.leader_index: must lie in [0, 3], got {leader!r}"

    @pytest.mark.parametrize(
        "make, count, interval",
        [
            (CommGraph.ring, 6.5, "[3, inf)"), (CommGraph.ring_with_leader, 6.5, "[3, inf)"),
            (CommGraph.complete, 4.5, "[2, inf)"), (CommGraph.ring, True, "[3, inf)"),
            (CommGraph.ring, 2, "[3, inf)"), (CommGraph.complete, 1, "[2, inf)"),
        ],
    )
    def test_rejects_an_agent_count_that_is_not_a_count(self, make, count, interval):
        """A fractional count once failed with a message about the links that did not name it."""
        name = "complete" if make == CommGraph.complete else "ring"  # ring_with_leader builds a ring
        with pytest.raises(ValueError) as raised:
            make(count)
        assert str(raised.value) == f"CommGraph.{name}.agent_count: must lie in {interval}, got {count!r}"

    def test_accepts_a_numpy_int_leader(self):
        assert CommGraph.ring(4, leader_index=np.int64(3)).leader_index == 3

    def test_random_graphs_accepted(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            graph = random_connected_graph(rng)
            assert graph.agent_count >= 3
            np.testing.assert_array_equal(CommGraph(graph.links[:, ::-1]).links, graph.links)

    def test_rejects_an_isolated_last_agent(self):
        adj = np.zeros((3, 3))
        adj[0, 1] = adj[1, 0] = 1.0
        with pytest.raises(ValueError, match=r"^CommGraph.adjacency: graph must be connected$"):
            CommGraph.from_adjacency(adj)

    @pytest.mark.parametrize(
        "links, message",
        [
            (np.array([[0.0, 1.5], [1.0, 2.0]]), NOT_INDICES),
            (np.array([[0.0, 1.0], [1.0, 2.0]]), NOT_INDICES),
            ([[True, False], [False, True]], NOT_INDICES),
            ([[0, 1, 2]], NOT_INDICES),
            (np.zeros((2, 0), dtype=int), NOT_INDICES),
            ([[0, 1], [1, -1]], NOT_INDICES + r", got \[\[0, 1\], \[1, -1\]\]$"),
            ([[0, 1, 2], [1, 2, 2]], r"self link at agent 2$"),
            ([[0], [2**40]], r"graph must be connected$"),
            ([[0, 2], [1, 3]], r"graph must be connected$"),
        ],
        ids=[
            "fraction", "float", "bool", "one row", "no links", "negative", "self link", "huge index", "two parts",
        ],
    )
    def test_links_are_checked_as_outside_input(self, links, message):
        with pytest.raises(ValueError, match=f"^CommGraph.links: {message}"):
            CommGraph(links)

    def test_links_are_deduplicated_and_sorted(self):
        graph = CommGraph([[2, 1, 0, 1], [0, 2, 1, 0]], leader_index=2)
        np.testing.assert_array_equal(graph.links, [[0, 0, 1, 1, 2, 2], [1, 2, 0, 2, 0, 1]])
        assert graph.agent_count == 3 and graph.leader_index == 2
        assert not graph.links.flags.writeable

    @pytest.mark.parametrize("name", ["ring", "ring_with_leader", "complete"])
    def test_named_topologies_match_the_dense_oracle(self, name):
        """The edge order np.nonzero gives fixes the laws' summation order."""
        for agents in range(2 if name == "complete" else 3, 41):
            for leader in range(agents):
                graph = getattr(CommGraph, name)(agents, leader)
                dense = dense_topology(name, agents, leader)
                assert graph.agent_count == agents and graph.leader_index == leader
                np.testing.assert_array_equal(graph.links, np.nonzero(dense))
                np.testing.assert_array_equal(CommGraph.from_adjacency(dense, leader).links, graph.links)
                np.testing.assert_array_equal(graph.degrees, dense.sum(axis=1))


class TestCheckStability:
    def test_default_gains_pass(self):
        check_stability(ControlGains(), CommGraph.ring_with_leader(6))

    def test_leader_degree_not_held_against_consensus(self):
        # The leader in a 6-ring-with-chords has degree 5; consensus stability
        # only depends on follower degrees (here 3), so gain 0.2 is fine.
        check_stability(
            ControlGains(consensus_gain=0.2), CommGraph.ring_with_leader(6)
        )

    def test_displacement_gain_limit(self):
        with pytest.raises(ValueError, match="gains.epsilon"):
            check_stability(ControlGains(epsilon=0.1), CommGraph.ring_with_leader(6))

    def test_consensus_gain_limit(self):
        with pytest.raises(ValueError, match="gains.consensus_gain"):
            check_stability(ControlGains(consensus_gain=0.25), CommGraph.ring_with_leader(6))

    def test_limits_are_strict(self):
        # epsilon * 2 * max_degree == 1 exactly is already out.
        with pytest.raises(ValueError, match="gains.epsilon"):
            check_stability(ControlGains(epsilon=0.25), CommGraph.ring(3))


class TestConsensusVelocityStep:
    def _state(self, velocities, positions=None):
        velocities = np.asarray(velocities, dtype=float)
        if positions is None:
            positions = np.zeros_like(velocities)
        return SwarmState(positions=positions, velocity_estimates=velocities)

    def test_fixed_point(self):
        graph = CommGraph.ring(5)
        v_star = np.array([1.0, -2.0])
        state = self._state(np.tile(v_star, (5, 1)))
        out = consensus_velocity_step(state.velocity_estimates, graph, v_star, ControlGains())
        np.testing.assert_array_equal(out, np.tile(v_star, (5, 1)))

    def test_leader_is_pinned(self):
        graph = CommGraph.ring(4)
        v = np.array([[9.0, 9.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
        out = consensus_velocity_step(
            self._state(v).velocity_estimates, graph, np.array([1.0, 0.5]), ControlGains()
        )
        np.testing.assert_array_equal(out[0], [1.0, 0.5])

    def test_two_agents_halve_the_error(self):
        graph = two_agent_graph()
        v = np.array([[0.0, 0.0], [4.0, -2.0]])
        gains = ControlGains(consensus_gain=0.5)
        out = consensus_velocity_step(self._state(v).velocity_estimates, graph, np.zeros(2), gains)
        np.testing.assert_allclose(out[1], [2.0, -1.0], rtol=1e-12)

    def test_ring_converges_within_500_rounds(self):
        graph = CommGraph.ring(6)
        gains = ControlGains(consensus_gain=0.2)
        v_star = np.array([0.8, -0.3])
        rng = np.random.default_rng(50)
        v = rng.uniform(-5.0, 5.0, size=(6, 2))
        for _ in range(500):
            v = consensus_velocity_step(self._state(v).velocity_estimates, graph, v_star, gains)
        assert np.abs(v - v_star).max() < 1e-6

    def test_contracts_on_random_graphs(self):
        rng = np.random.default_rng(51)
        for _ in range(100):
            graph = random_connected_graph(rng)
            gamma = 0.9 / (graph.max_follower_degree + 1)
            gains = ControlGains(consensus_gain=gamma)
            v_star = rng.uniform(-2.0, 2.0, size=2)
            v = rng.uniform(-5.0, 5.0, size=(graph.agent_count, 2))
            v[graph.leader_index] = v_star
            initial = float(np.linalg.norm(v - v_star))
            err = initial
            for _ in range(100):
                v = consensus_velocity_step(self._state(v).velocity_estimates, graph, v_star, gains)
                new_err = float(np.linalg.norm(v - v_star))
                assert new_err <= err * (1.0 + 1e-12)
                err = new_err
            assert err < 0.9 * initial


class TestDisplacementControl:
    def test_zero_at_full_size_embedding(self, default_params, target):
        formation = build_formation(default_params, target, 6)
        disp = DisplacementSet(formation.planar_positions)
        state = SwarmState(
            positions=formation.planar_positions,
            velocity_estimates=np.zeros((6, 2)),
        )
        u = displacement_control(state.positions, CommGraph.ring_with_leader(6), disp, ControlGains(), 1.0)
        np.testing.assert_array_equal(u, np.zeros((6, 2)))

    def test_zero_at_shrunk_embedding(self, default_params, target):
        formation = build_formation(default_params, target, 5)
        disp = DisplacementSet(formation.planar_positions)
        center = formation.planar_positions.mean(axis=0)
        shrunk = center + 0.5 * (formation.planar_positions - center)
        state = SwarmState(positions=shrunk, velocity_estimates=np.zeros((5, 2)))
        u = displacement_control(state.positions, CommGraph.ring(5), disp, ControlGains(), 0.5)
        assert np.abs(u).max() < 1e-12

    def test_pair_pushes_are_opposite(self):
        from formsense import DisplacementSet

        # Desired offset from agent 1 to agent 0: [4, 0].
        disp = DisplacementSet(reference=[[4.0, 0.0], [0.0, 0.0]])
        state = SwarmState(
            positions=np.array([[0.0, 0.0], [1.0, 1.0]]),
            velocity_estimates=np.zeros((2, 2)),
        )
        u = displacement_control(state.positions, two_agent_graph(), disp, ControlGains(), 1.0)
        np.testing.assert_allclose(u[0], -u[1], rtol=1e-12)

    def test_total_momentum_conserved(self, default_params, target):
        rng = np.random.default_rng(77)
        disp = DisplacementSet(build_formation(default_params, target, 6).planar_positions)
        for _ in range(50):
            state = SwarmState(
                positions=rng.uniform(-50.0, 50.0, size=(6, 2)),
                velocity_estimates=np.zeros((6, 2)),
            )
            u = displacement_control(
                state.positions, CommGraph.ring_with_leader(6), disp, ControlGains(), 1.0
            )
            drift = np.abs(u.sum(axis=0)).max()
            assert drift <= 1e-12 * max(1.0, np.abs(u).max())

    def test_matches_gradient_of_local_cost(self, default_params, target):
        """u_m must equal -eps/2 times the local displacement-cost gradient."""
        rng = np.random.default_rng(78)
        graph = CommGraph.ring_with_leader(6)
        disp = DisplacementSet(build_formation(default_params, target, 6).planar_positions)
        gains = ControlGains()
        h = 1e-5
        for _ in range(20):
            q = rng.uniform(-40.0, 40.0, size=(6, 2))
            state = SwarmState(positions=q, velocity_estimates=np.zeros((6, 2)))
            u = displacement_control(state.positions, graph, disp, gains, 1.0)
            m = int(rng.integers(0, 6))

            def disp_cost(point):
                deviation = point - q - (disp.reference[m] - disp.reference)
                return float((adjacency(graph)[m] * (deviation**2).sum(axis=1)).sum())

            grad = np.zeros(2)
            for axis in range(2):
                e = np.zeros(2)
                e[axis] = h
                grad[axis] = (disp_cost(q[m] + e) - disp_cost(q[m] - e)) / (2.0 * h)
            np.testing.assert_allclose(u[m], -0.5 * gains.epsilon * grad, rtol=1e-6, atol=1e-10)

    def test_agent_count_mismatch_rejected(self, default_params, target):
        seven = DisplacementSet(build_formation(default_params, target, 7).planar_positions)
        six = DisplacementSet(build_formation(default_params, target, 6).planar_positions)
        state = SwarmState(positions=np.zeros((6, 2)), velocity_estimates=np.zeros((6, 2)))
        with pytest.raises(ValueError, match="expected 6 agents, got 6 positions and 7 reference"):
            displacement_control(state.positions, CommGraph.ring(6), seven, ControlGains(), 1.0)
        with pytest.raises(ValueError, match="expected 6 agents, got 5 positions"):
            displacement_error(np.zeros((5, 2)), CommGraph.ring(6), six)

    def test_bad_scale_rejected(self, default_params, target):
        disp = DisplacementSet(build_formation(default_params, target, 3).planar_positions)
        state = SwarmState(positions=np.zeros((3, 2)), velocity_estimates=np.zeros((3, 2)))
        for scale in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError, match="scale"):
                displacement_control(state.positions, CommGraph.ring(3), disp, ControlGains(), scale)

    def test_consensus_and_cost_name_an_agent_count_mismatch(self, default_params, target):
        graph, gains = CommGraph.ring(6), ControlGains()
        with pytest.raises(ValueError, match=r"consensus_velocity_step: expected 6 agents, got .* \(5, 2\)"):
            consensus_velocity_step(np.zeros((5, 2)), graph, np.zeros(2), gains)
        disp = DisplacementSet(build_formation(default_params, target, 6).planar_positions)
        with pytest.raises(ValueError, match=r"local_cost.next_positions: expected shape \(6, 2\), got \(5, 2\)"):
            local_cost(np.zeros((6, 2)), graph, disp, 0.1, np.zeros((5, 2)), np.zeros(2))

    def test_bad_scale_message_names_no_law(self, default_params, target):
        """Every law that scales the offsets shares the check, so its message names the value only."""
        graph, gains = CommGraph.ring(3), ControlGains()
        disp = DisplacementSet(build_formation(default_params, target, 3).planar_positions)
        q, none = np.zeros((3, 2)), (np.full(3, np.inf), None)
        for law in (
            lambda: displacement_control(q, graph, disp, gains, 1.5),
            lambda: control_input(q, 1.5, graph, disp, gains, *none),
            lambda: _step_laws(q, q, 1.5, graph, disp, gains, np.zeros(2), *none),
        ):
            with pytest.raises(ValueError, match=r"^scale must lie in \(0, 1\], got 1.5$"):
                law()

    def test_closed_loop_error_contracts_on_random_graphs(self, default_params, target):
        rng = np.random.default_rng(79)
        from formsense import displacement_error

        for _ in range(100):
            graph = random_connected_graph(rng)
            n = graph.agent_count
            formation = build_formation(default_params, target, n)
            disp = DisplacementSet(formation.planar_positions)
            gains = ControlGains(epsilon=0.9 / (2.0 * graph.max_degree))
            q = target.position + rng.uniform(-30.0, 30.0, size=(n, 2))
            err = displacement_error(q, graph, disp)
            initial = err
            for _ in range(200):
                state = SwarmState(positions=q, velocity_estimates=np.zeros((n, 2)))
                q = q + displacement_control(state.positions, graph, disp, gains, 1.0)
                new_err = displacement_error(q, graph, disp)
                assert new_err <= err * (1.0 + 1e-12) + 1e-15
                err = new_err
            assert err <= 0.05 * initial


class TestLocalCost:
    def test_zero_at_embedding_with_matched_velocity(self, default_params, target):
        formation = build_formation(default_params, target, 4)
        disp = DisplacementSet(formation.planar_positions)
        q = formation.planar_positions
        state = SwarmState(positions=q, velocity_estimates=np.zeros((4, 2)))
        dt, v = 0.1, np.array([1.0, 0.0])
        cost = local_cost(state.positions, CommGraph.ring(4), disp, dt, q + dt * v, v)
        assert cost.shape == (4,)
        np.testing.assert_allclose(cost, 0.0, atol=1e-18)

    def test_velocity_term_isolated(self, default_params, target):
        formation = build_formation(default_params, target, 4)
        disp = DisplacementSet(formation.planar_positions)
        q = formation.planar_positions
        state = SwarmState(positions=q, velocity_estimates=np.zeros((4, 2)))
        realized = np.array([0.3, -0.4])
        cost = local_cost(state.positions, CommGraph.ring(4), disp, 0.5, q + 0.5 * realized, np.zeros(2))
        np.testing.assert_allclose(cost, 0.25, rtol=1e-9)

    def test_displacement_term_matches_manual_sum(self, default_params, target):
        rng = np.random.default_rng(90)
        graph = CommGraph.ring_with_leader(5)
        disp = DisplacementSet(build_formation(default_params, target, 5).planar_positions)
        q = rng.uniform(-20.0, 20.0, size=(5, 2))
        state = SwarmState(positions=q, velocity_estimates=np.zeros((5, 2)))
        got = local_cost(state.positions, graph, disp, 0.1, q, np.zeros(2))  # realized velocity 0
        for agent in range(5):
            expected = 0.0
            for p in range(5):
                if adjacency(graph)[agent, p]:
                    expected += float(
                        ((q[agent] - q[p] - (disp.reference[agent] - disp.reference[p])) ** 2).sum()
                    )
            assert got[agent] == pytest.approx(expected, rel=1e-12)

    def test_matches_per_agent_loop_bit_for_bit(self, default_params, target):
        rng = np.random.default_rng(91)
        for agents in (3, 7, 8, 9, 40, 130):
            graph = random_connected_graph(rng, max_agents=agents)
            m = graph.agent_count
            formation = build_formation(default_params, target, m)
            disp, v_ref = DisplacementSet(formation.planar_positions), np.array([0.4, -0.2])
            q = target.position + rng.uniform(-30.0, 30.0, size=(m, 2))
            nxt = q + rng.normal(0.0, 0.5, size=(m, 2))
            state = SwarmState(positions=q, velocity_estimates=np.zeros((m, 2)))
            got = local_cost(state.positions, graph, disp, 0.1, nxt, v_ref)
            want = [
                agent_cost(q, adjacency(graph), disp.reference, a, 0.1, nxt[a], v_ref)
                for a in range(m)
            ]
            assert got.tolist() == want

    def test_bad_dt_rejected(self, default_params, target):
        disp = DisplacementSet(build_formation(default_params, target, 3).planar_positions)
        state = SwarmState(positions=np.zeros((3, 2)), velocity_estimates=np.zeros((3, 2)))
        with pytest.raises(ValueError, match="dt"):
            local_cost(state.positions, CommGraph.ring(3), disp, 0.0, np.zeros((3, 2)), np.zeros(2))


class TestRepulsion:
    def test_zero_outside_safety_radius(self):
        gains = ControlGains(repulsion_gain=1.0, safety_radius_m=5.0)
        out = repulsion(10.0, np.array([10.0, 0.0]), gains)
        np.testing.assert_array_equal(out, np.zeros(2))

    def test_zero_exactly_at_safety_radius(self):
        gains = ControlGains(repulsion_gain=1.0, safety_radius_m=5.0)
        out = repulsion(5.0, np.array([5.0, 0.0]), gains)
        np.testing.assert_array_equal(out, np.zeros(2))

    def test_halfway_magnitude(self):
        # (1/2.5 - 1/5) / 2.5^2 = 0.032 with unit gain.
        gains = ControlGains(repulsion_gain=1.0, safety_radius_m=5.0)
        out = repulsion(2.5, np.array([2.5, 0.0]), gains)
        np.testing.assert_allclose(out, [0.032, 0.0], rtol=1e-12)

    def test_points_away_from_obstacle(self):
        gains = ControlGains(repulsion_gain=1.0, safety_radius_m=5.0)
        position = np.array([1.0, 2.0])
        nearest = np.array([0.0, 0.0])
        out = repulsion(float(np.hypot(*(position - nearest))), position - nearest, gains)
        direction = out / np.linalg.norm(out)
        np.testing.assert_allclose(direction, position / np.linalg.norm(position), rtol=1e-12)

    def test_capped_close_in(self):
        gains = ControlGains(repulsion_gain=5.0, safety_radius_m=5.0, repulsion_cap=5.0)
        out = repulsion(1e-6, np.array([1e-6, 0.0]), gains)
        assert np.linalg.norm(out) == pytest.approx(5.0, rel=1e-12)

    @pytest.mark.parametrize("gain, expected", [(5.0, [0.0, -3.0]), (0.0, [0.0, 0.0])])
    def test_contact_gives_the_cap_along_the_normal_or_nothing(self, gain, expected):
        """A zero gain is a zero potential, so it pushes nothing, in contact too."""
        gains = ControlGains(repulsion_gain=gain, repulsion_cap=3.0)
        np.testing.assert_array_equal(repulsion(0.0, np.array([0.0, -1.0]), gains), expected)

    @pytest.mark.parametrize("gain, expected", [(5.0, [-3.0, 0.0]), (0.0, [0.0, 0.0])])
    def test_underflowing_distance_gives_the_cap_or_nothing(self, target, gain, expected):
        """At 1e-200 m the squared distance underflows to 0; the law divides by neither it nor 0/0."""
        world = World(target=target, obstacles=((0.0, 1.0, 0.0, 1.0),))
        clearance, way_out = world.min_clearance([[-1e-200, 0.5]])
        assert clearance[0] == 1e-200
        gains = ControlGains(repulsion_gain=gain, repulsion_cap=3.0)
        np.testing.assert_array_equal(repulsion(clearance[0], way_out[0], gains), expected)

    def test_matches_potential_gradient(self):
        """Force equals minus the central-difference gradient of the potential."""
        rng = np.random.default_rng(91)
        gains = ControlGains(repulsion_gain=2.0, safety_radius_m=5.0, repulsion_cap=1e9)
        nearest = np.array([3.0, -1.0])
        h = 1e-6

        def potential(pos):
            dist = float(np.linalg.norm(pos - nearest))
            if dist >= gains.safety_radius_m:
                return 0.0
            return 0.5 * gains.repulsion_gain * (1.0 / dist - 1.0 / gains.safety_radius_m) ** 2

        for _ in range(100):
            direction = rng.normal(size=2)
            direction /= np.linalg.norm(direction)
            dist = float(rng.uniform(0.5, 4.99))
            pos = nearest + dist * direction
            force = repulsion(float(np.hypot(*(pos - nearest))), pos - nearest, gains)
            grad = np.zeros(2)
            for axis in range(2):
                e = np.zeros(2)
                e[axis] = h
                grad[axis] = (potential(pos + e) - potential(pos - e)) / (2.0 * h)
            np.testing.assert_allclose(force, -grad, rtol=1e-5, atol=1e-9)


class TestScaleFactor:
    def test_smoothed_step_toward_raw(self):
        gains = ControlGains(safety_radius_m=5.0, eta_min=0.2)
        # raw = 2 * (10 - 5) / 20 = 0.5, low-passed from 1.0.
        out = scale_factor(20.0, 10.0, gains, previous_scale=1.0)
        assert out == pytest.approx(0.95, rel=1e-12)

    def test_full_size_is_a_fixed_point(self):
        gains = ControlGains()
        assert scale_factor(20.0, 1000.0, gains, previous_scale=1.0) == 1.0

    def test_infinite_clearance(self):
        gains = ControlGains()
        assert scale_factor(28.0, math.inf, gains, previous_scale=1.0) == 1.0

    def test_floor_is_a_fixed_point(self):
        gains = ControlGains(eta_min=0.2)
        out = scale_factor(20.0, 0.0, gains, previous_scale=0.2)
        assert out == pytest.approx(0.2, rel=1e-12)

    def test_monotone_in_clearance(self):
        gains = ControlGains()
        clearances = np.linspace(0.0, 30.0, 40)
        outs = [scale_factor(25.0, float(c), gains, previous_scale=0.6) for c in clearances]
        assert np.all(np.diff(outs) >= -1e-15)

    def test_moves_a_tenth_of_the_way(self):
        gains = ControlGains(safety_radius_m=5.0)
        prev = 0.8
        raw = 2.0 * (12.0 - 5.0) / 20.0  # 0.7
        out = scale_factor(20.0, 12.0, gains, previous_scale=prev)
        assert out == pytest.approx(0.9 * prev + 0.1 * raw, rel=1e-12)

    def test_bad_inputs_rejected(self):
        with pytest.raises(ValueError, match="nominal_diameter_m"):
            scale_factor(0.0, 5.0, ControlGains(), 1.0)
        with pytest.raises(ValueError, match="clearance"):
            scale_factor(10.0, -1.0, ControlGains(), 1.0)


class TestControlInput:
    def test_reduces_to_displacement_law_in_open_space(self, default_params, target):
        rng = np.random.default_rng(92)
        graph = CommGraph.ring_with_leader(6)
        disp = DisplacementSet(build_formation(default_params, target, 6).planar_positions)
        gains = ControlGains()
        state = SwarmState(
            positions=rng.uniform(-30.0, 30.0, size=(6, 2)),
            velocity_estimates=np.zeros((6, 2)),
        )
        open_space = World(target=target).min_clearance(state.positions)
        u = control_input(state.positions, state.scale, graph, disp, gains, *open_space)
        expected = displacement_control(state.positions, graph, disp, gains, state.scale)
        np.testing.assert_array_equal(u, expected)

    def test_adds_repulsion_for_threatened_agent_only(self, default_params, target):
        graph = CommGraph.ring(4)
        disp = DisplacementSet(build_formation(default_params, target, 4).planar_positions)
        gains = ControlGains(repulsion_gain=1.0, safety_radius_m=5.0)
        positions = np.array([[0.0, 0.0], [40.0, 0.0], [40.0, 40.0], [0.0, 40.0]])
        state = SwarmState(positions=positions, velocity_estimates=np.zeros((4, 2)))
        post = (-4.0, -2.5, -1.0, 1.0)
        world = World(target=target, obstacles=(post,))
        nearest = np.array([-2.5, 0.0])

        base = displacement_control(state.positions, graph, disp, gains, 1.0)
        u = control_input(state.positions, state.scale, graph, disp, gains, *world.min_clearance(positions))
        np.testing.assert_allclose(
            u[0] - base[0], repulsion(2.5, positions[0] - nearest, gains), rtol=1e-12
        )
        np.testing.assert_array_equal(u[1:], base[1:])

    def test_respects_current_scale(self, default_params, target):
        formation = build_formation(default_params, target, 4)
        disp = DisplacementSet(formation.planar_positions)
        center = formation.planar_positions.mean(axis=0)
        shrunk = center + 0.37 * (formation.planar_positions - center)
        state = SwarmState(
            positions=shrunk, velocity_estimates=np.zeros((4, 2)), scale=0.37
        )
        open_space = World(target=target).min_clearance(state.positions)
        u = control_input(state.positions, state.scale, CommGraph.ring(4), disp, ControlGains(), *open_space)
        assert np.abs(u).max() < 1e-12


class TestSwarmState:
    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="velocity_estimates"):
            SwarmState(positions=np.zeros((3, 2)), velocity_estimates=np.zeros((4, 2)))

    def test_rejects_bad_scale(self):
        for scale in (0.0, 1.2, -0.5):
            with pytest.raises(ValueError, match="scale"):
                SwarmState(
                    positions=np.zeros((3, 2)),
                    velocity_estimates=np.zeros((3, 2)),
                    scale=scale,
                )

    def test_rejects_nonfinite(self):
        positions = np.zeros((3, 2))
        positions[1, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            SwarmState(positions=positions, velocity_estimates=np.zeros((3, 2)))

    def test_arrays_frozen(self):
        state = SwarmState(positions=np.zeros((3, 2)), velocity_estimates=np.zeros((3, 2)))
        with pytest.raises(ValueError):
            state.positions[0, 0] = 1.0


@st.composite
def swarms(draw):
    """A random connected graph of 3-100 agents with positions, velocities, a reference and its velocity.

    Half the draws snap coordinates to a half-metre grid, so that equal
    positions and exactly cancelling differences occur.
    """
    agents = draw(st.integers(3, 100))
    density = draw(st.floats(0.0, 1.0))
    spread = 10.0 ** draw(st.floats(-2.0, 3.0))
    snap = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    adj = np.zeros((agents, agents))
    order = rng.permutation(agents)
    for i in range(1, agents):  # a random spanning tree keeps the graph connected
        parent, child = order[int(rng.integers(0, i))], order[i]
        adj[parent, child] = adj[child, parent] = 1.0
    extra = np.triu(rng.random((agents, agents)) < density, 1)
    adj[extra | extra.T] = 1.0
    graph = CommGraph.from_adjacency(adj, leader_index=int(rng.integers(0, agents)))

    def points():
        q = spread * rng.uniform(-1.0, 1.0, size=(agents, 2))
        return np.round(2.0 * q) / 2.0 if snap else q

    reference, v_ref = points(), rng.normal(size=2)
    state = SwarmState(positions=points(), velocity_estimates=rng.normal(size=(agents, 2)))
    return graph, DisplacementSet(reference), v_ref, state, points()


class TestEdgeListMatchesDense:
    """The edge-list laws against the dense formulas over all M^2 pairs."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(swarms(), st.floats(0.0, 1.0, exclude_min=True))
    def test_laws_match_dense_oracle(self, swarm, scale):
        graph, disp, v_ref, state, nxt = swarm
        adj, r, q = adjacency(graph), disp.reference, state.positions
        gains = ControlGains(epsilon=0.003, consensus_gain=0.004)

        got = consensus_velocity_step(state.velocity_estimates, graph, v_ref, gains)
        want = dense_consensus(state.velocity_estimates, adj, graph.leader_index, v_ref, 0.004)
        assert got.tobytes() == want.tobytes()

        got = displacement_control(state.positions, graph, disp, gains, scale)
        want = dense_displacement_control(q, adj, r, 0.003, scale)
        assert got.tobytes() == want.tobytes()

        got = local_cost(state.positions, graph, disp, 0.1, nxt, v_ref)
        want = dense_local_cost(q, adj, r, 0.1, nxt, v_ref)
        assert got.tobytes() == want.tobytes()

        got = displacement_error(q, graph, disp)
        want = dense_displacement_error(q, adj, r)
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)

        # The step's one pass over both laws gives their doubles, with estimates of either signed zero too.
        v = state.velocity_estimates
        for velocities in (v, np.trunc(v)):
            u, estimates = _step_laws(q, velocities, scale, graph, disp, gains, v_ref, None, None)
            assert u.tobytes() == displacement_control(q, graph, disp, gains, scale).tobytes()
            assert estimates.tobytes() == consensus_velocity_step(velocities, graph, v_ref, gains).tobytes()

    def test_laws_allocate_linear_memory(self):
        """At M=2048 one dense (M, M, 2) array alone would take 67 MB, and a dense
        (M, M) adjacency 34 MB; at M=4096 one (M, M) array of distances takes 134 MB."""
        agents = 2048
        rng = np.random.default_rng(92)
        graph = CommGraph.ring(agents)
        disp = DisplacementSet(reference=rng.uniform(-50.0, 50.0, size=(agents, 2)))
        state = SwarmState(
            positions=rng.uniform(-50.0, 50.0, size=(agents, 2)),
            velocity_estimates=rng.normal(size=(agents, 2)),
        )
        gains = ControlGains()
        wide = rng.uniform(-50.0, 50.0, size=(1, 2 * agents, 2))
        calls = {  # name: (call, bound on its peak in MB)
            "consensus": (
                lambda: consensus_velocity_step(state.velocity_estimates, graph, np.zeros(2), gains), 16
            ),
            "displacement": (lambda: displacement_control(state.positions, graph, disp, gains, 0.5), 16),
            "local_cost": (
                lambda: local_cost(state.positions, graph, disp, 0.1, state.positions, np.zeros(2)), 16
            ),
            "displacement_error": (lambda: displacement_error(state.positions, graph, disp), 16),
            "ring": (lambda: CommGraph.ring(agents), 2),
            "ring_with_leader": (lambda: CommGraph.ring_with_leader(agents), 2),
            "min_pairwise_distance": (lambda: min_pairwise_distance(wide), 1),
            "DisplacementSet": (lambda: DisplacementSet(wide[0]), 4),
        }
        for name, (call, bound_mb) in calls.items():
            tracemalloc.start()
            try:
                call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < bound_mb * 2**20, f"{name}: peak {peak / 2**20:.2f} MB"
