"""Tests for obstacles, the stepper, guidance, and the episode driver."""

import dataclasses
import functools
import math
import operator
import os
import random
import re
import subprocess
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from formsense import (
    CommGraph,
    ControlGains,
    DisplacementSet,
    Guidance,
    SensingParams,
    SwarmState,
    TargetEstimate,
    World,
    build_formation,
    check_stability,
    consensus_velocity_step,
    displacement_error,
    local_cost,
    min_pairwise_distance,
    repulsion,
    run_episode,
    step,
    theoretical_lower_bound,
)
from formsense import world as world_module
from formsense.config import build_config, load_config
from formsense.control import control_input
from formsense.world import GUIDANCE_MODES, crlb_of_positions
from oracle import (
    StepRecord,
    clearance_of_point,
    consensus_rate,
    dense_min_pairwise_distance,
    displacement_rate,
    escape_direction,
    laplacian,
    max_gap_clearance,
    nearest_point,
    noise_floor,
    per_step_episode,
    point_repulsion,
    rect_distance,
    stepwise_episode,
)
from test_control import random_connected_graph

BOX = (-5.0, 5.0, -5.0, 5.0)
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def count_calls(monkeypatch, owner, name, calls):
    """Count the calls of ``owner.name`` in ``calls[name]`` for the rest of the test."""
    fn = getattr(owner, name)
    calls[name] = 0

    def counted(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


def embedding_state(formation, velocity=None, scale=1.0):
    m = formation.agent_count
    v = np.zeros((m, 2)) if velocity is None else np.tile(velocity, (m, 1))
    return SwarmState(
        positions=formation.planar_positions, velocity_estimates=v, scale=scale
    )


def clearance(obstacles, points, within=math.inf):
    """World.min_clearance of a target-free world with these obstacles."""
    return World(target=TargetEstimate(np.zeros(2)), obstacles=obstacles).min_clearance(points, within)


class TestRectObstacle:
    """One rectangle, a row (x_min, x_max, y_min, y_max) of World.obstacles: queries through
    World.min_clearance and the oracle."""

    @pytest.mark.parametrize(
        "position, expected",
        [
            ([10.0, 3.0], [5.0, 3.0]),
            ([8.0, 9.0], [5.0, 5.0]),
            ([-7.0, -12.0], [-5.0, -5.0]),
            ([1.0, 2.0], [1.0, 2.0]),
            ([0.0, 8.0], [0.0, 5.0]),
        ],
    )
    def test_nearest_point_clamps(self, position, expected):
        position = np.array(position)
        np.testing.assert_array_equal(nearest_point(BOX, position), expected)
        distance, way_out = clearance((BOX,), position)
        if distance > 0.0:  # outside, the way out is the offset from the clamped point
            np.testing.assert_array_equal(way_out, position - expected)
        else:  # inside, the clamp is the point itself and the way out a face normal
            np.testing.assert_array_equal(position, expected)
            assert np.abs(way_out).tolist() in ([1.0, 0.0], [0.0, 1.0])

    def test_batched_rows_match_single_points(self):
        points = np.array([[12.0, -1.0], [0.0, 0.0], [5.0, 5.0], [-9.0, 7.0], [3.0, -5.0], [1.0, 1.0]])
        batch = clearance((BOX,), points.reshape(2, 3, 2))
        assert batch[0].shape == (2, 3) and batch[1].shape == (2, 3, 2)
        for got, point in zip(zip(*(a.reshape(6, *a.shape[2:]) for a in batch)), points):
            for g, single in zip(got, clearance((BOX,), point)):
                np.testing.assert_array_equal(g, single)

    @pytest.mark.parametrize(
        "position, expected",
        [
            ([10.0, 3.0], 5.0),
            ([8.0, 9.0], 5.0),
            ([1.0, 2.0], 0.0),
            ([5.0, 0.0], 0.0),
        ],
    )
    def test_distance(self, position, expected):
        assert clearance((BOX,), np.array(position))[0] == pytest.approx(expected, rel=1e-12)
        assert rect_distance(BOX, np.array(position)) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize(
        "position, expected",
        [
            ([-4.5, 0.0], [-1.0, 0.0]),
            ([4.9, 0.0], [1.0, 0.0]),
            ([0.0, -4.0], [0.0, -1.0]),
            ([0.0, 4.8], [0.0, 1.0]),
        ],
    )
    def test_escape_direction(self, position, expected):
        np.testing.assert_array_equal(clearance((BOX,), np.array(position))[1], expected)
        np.testing.assert_array_equal(escape_direction(BOX, np.array(position)), expected)

    @pytest.mark.parametrize(
        "bounds", [(5.0, -5.0, 0.0, 1.0), (0.0, 0.0, 0.0, 1.0), (0.0, 1.0, 2.0, 2.0)]
    )
    def test_rejects_empty_rectangles(self, bounds):
        with pytest.raises(ValueError, match=r"^World\.obstacles\[1\]: need x_min < x_max and y_min < y_max"):
            World(target=TargetEstimate(np.zeros(2)), obstacles=(BOX, bounds, bounds))


class TestObstacleTable:
    """World.obstacles: a read-only (K, 4) float copy, checked once at construction."""

    @pytest.mark.parametrize(
        "obstacles",
        [
            [(0.0, math.nan, 0.0, 1.0)],
            [(0.0, 1.0, -math.inf, 1.0)],
            [(0.0, math.inf, 0.0, 1.0)],
            [(0.0, 1.0, 0.0)],
            [(0.0, 1.0, 0.0, 1.0, 2.0)],
            [(0.0, 1.0, 0.0, 1.0), (0.0, 1.0, 0.0)],
            (0.0, 1.0, 0.0, 1.0),
            1.0,
            None,
            [[]],
            "box",
        ],
    )
    def test_rejects_what_is_not_a_finite_k_by_4_table(self, obstacles):
        with pytest.raises(ValueError, match=r"^World\.obstacles: expected a finite \(K, 4\) array"):
            World(target=TargetEstimate(np.zeros(2)), obstacles=obstacles)

    @pytest.mark.parametrize("obstacles", [(), [], np.empty((0, 4)), np.empty(0)])
    def test_empty_forms_mean_no_obstacles(self, obstacles):
        world = World(target=TargetEstimate(np.zeros(2)), obstacles=obstacles)
        assert world.obstacles.shape == (0, 4) and not world.obstacles.flags.writeable
        clearance, way_out = world.min_clearance(np.zeros((3, 2)))
        assert clearance.tolist() == [math.inf] * 3 and np.isnan(way_out).all()

    def test_table_is_a_read_only_copy(self):
        rows = np.array([BOX, (6.0, 7.0, -1.0, 1.0)])
        world = World(target=TargetEstimate(np.zeros(2)), obstacles=rows)
        assert world.obstacles.dtype == float and not world.obstacles.flags.writeable
        assert not np.shares_memory(world.obstacles, rows)
        rows[0] = (100.0, 101.0, 100.0, 101.0)  # the caller's array stays its own
        assert world.obstacles[0].tolist() == list(BOX)
        assert world.min_clearance(np.array([6.5, 3.0]))[0] == 1.5
        with pytest.raises(ValueError):
            world.obstacles[0, 0] = 0.0

    @pytest.mark.parametrize("obstacles", [(), (BOX, (6.0, 7.0, -1.0, 1.0))])
    def test_replace_round_trips(self, obstacles):
        world = World(target=TargetEstimate(np.zeros(2)), obstacles=obstacles, motion_noise_std=0.1)
        varied = dataclasses.replace(world, dt=0.2)
        assert varied.dt == 0.2 and varied.obstacles.tobytes() == world.obstacles.tobytes()
        assert varied.obstacles.shape == (len(obstacles), 4)
        points = np.array([[0.0, 0.0], [6.5, 3.0], [9.0, -9.0]])
        for got, want in zip(varied.min_clearance(points), world.min_clearance(points)):
            assert got.tobytes() == want.tobytes()


# Coordinates on a half-metre grid put points on edges and corners, inside
# rectangles, and at equal distance from several of them.
GRID = st.integers(-24, 24).map(lambda i: i / 2.0)
# The ends of the doubles: huge, tiny, signed zeros, the smallest subnormal, infinite and NaN.
EXTREMES = [1e300, -1e300, 1e-300, -1e-300, 0.0, -0.0, 5e-324, -5e-324, math.inf, -math.inf, math.nan]
HUGE_RECTANGLES = [(-1e300, 1e300, -1e-300, 1e-300), (1e-300, 1e300, -1e300, -1e-300), (-1e300, -1.0, 2.0, 1e300)]


@st.composite
def rectangles(draw):
    x0, y0 = draw(GRID), draw(GRID)
    width, height = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    return (x0, x0 + width / 2.0, y0, y0 + height / 2.0)


class TestMinClearanceOracle:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        st.lists(rectangles(), min_size=1, max_size=6),
        st.lists(st.tuples(GRID | st.floats(-15.0, 15.0), GRID), min_size=1, max_size=20),
    )
    def test_matches_per_rectangle_oracle_bit_for_bit(self, obstacles, points):
        points = np.array(points, dtype=float)
        got_clearance, got_way_out = clearance(tuple(obstacles), points)
        for i, point in enumerate(points):
            want_clearance, want_nearest, want_outward = clearance_of_point(obstacles, point)
            assert got_clearance[i] == want_clearance
            if want_outward is None:  # outside every rectangle
                np.testing.assert_array_equal(got_way_out[i], point - want_nearest)
                assert np.hypot(*got_way_out[i]) == got_clearance[i]
            else:
                np.testing.assert_array_equal(got_way_out[i], want_outward)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        st.lists(rectangles(), min_size=1, max_size=6),
        st.lists(st.tuples(GRID, GRID), min_size=1, max_size=20),
        st.floats(0.0, 20.0),
        st.floats(0.1, 30.0),
        st.floats(0.01, 20.0),
    )
    def test_repulsion_matches_point_law_bit_for_bit(self, obstacles, points, gain, radius, cap):
        """The law on (clearance, way out) gives the point-based law's doubles on every row."""
        gains = ControlGains(repulsion_gain=gain, safety_radius_m=radius, repulsion_cap=cap)
        points = np.array(points, dtype=float)
        distances, ways_out = clearance(tuple(obstacles), points)
        for point, distance, way_out in zip(points, distances, ways_out):
            _, nearest, outward = clearance_of_point(obstacles, point)
            want = point_repulsion(point, nearest, gains, fallback_direction=outward)
            assert repulsion(distance, way_out, gains).tobytes() == want.tobytes()

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        st.lists(rectangles(), max_size=6),
        st.lists(st.tuples(GRID | st.floats(-15.0, 15.0), GRID), min_size=1, max_size=20),
        GRID.map(abs) | st.floats(0.0, 20.0),  # on the grid, a radius can equal a clearance
    )
    def test_a_radius_looks_up_the_rows_below_it_only(self, obstacles, points, within):
        """Every clearance is the default's double, and so is the way out of every row below ``within``."""
        points = np.array(points, dtype=float)
        every_clearance, every_way_out = clearance(tuple(obstacles), points)
        got_clearance, got_way_out = World(
            target=TargetEstimate(np.zeros(2)), obstacles=tuple(obstacles)
        ).min_clearance(points, within)
        assert got_clearance.tobytes() == every_clearance.tobytes()
        below = every_clearance < within
        if not below.any():
            assert got_way_out is None
        else:
            assert got_way_out[below].tobytes() == every_way_out[below].tobytes()
            assert np.isnan(got_way_out[~below]).all()

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        st.lists(rectangles(), max_size=6),
        st.lists(st.tuples(GRID, GRID), min_size=3, max_size=12),
        st.integers(1, 24).map(lambda i: i / 2.0) | st.floats(0.01, 20.0),
    )
    def test_control_input_reads_no_row_at_or_beyond_the_radius(self, obstacles, points, radius):
        """The step's query gives the control the doubles a query of every row gives it."""

        class RowsInside:
            """A way out whose rows at or beyond the radius fail the test when read."""

            def __init__(self, way_out, inside):
                self.way_out, self.inside = way_out, inside

            def __getitem__(self, row):
                assert self.inside[row], f"row {row} is read, at or beyond the radius"
                return self.way_out[row]

        points = np.array(points, dtype=float)
        agents = len(points)
        graph, gains = CommGraph.ring(agents), ControlGains(safety_radius_m=radius)
        disp = DisplacementSet(np.c_[np.cos(np.arange(agents)), np.sin(np.arange(agents))])
        world = World(target=TargetEstimate(np.zeros(2)), obstacles=tuple(obstacles))
        want = control_input(points, 1.0, graph, disp, gains, *world.min_clearance(points))
        near, way_out = world.min_clearance(points, radius)
        guarded = None if way_out is None else RowsInside(way_out, near < radius)
        assert control_input(points, 1.0, graph, disp, gains, near, guarded).tobytes() == want.tobytes()

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(st.data())
    def test_clamp_form_matches_max_gap_form_by_bytes(self, data):
        """Gaps p - min(max(p, low), high) give the old gaps' clearance and way out, byte for byte.

        Coordinates at the extremes of the doubles, infinite or NaN, and points on the faces
        and corners of the rectangles; bounds up to 1e300 in size.
        """
        obstacles = data.draw(st.lists(rectangles() | st.sampled_from(HUGE_RECTANGLES), min_size=1, max_size=4))
        on_edges = st.sampled_from(sorted({v for rect in obstacles for v in rect}))  # faces and corners
        coordinate = GRID | st.sampled_from(EXTREMES) | on_edges
        points = np.array(data.draw(st.lists(st.tuples(coordinate, coordinate), min_size=1, max_size=12)))
        within = data.draw(st.sampled_from([math.inf, 5.0, 0.0, 1e-300, 1e300]) | GRID.map(abs))
        got = clearance(tuple(obstacles), points, within)
        want = max_gap_clearance(obstacles, points, within)
        assert got[0].tobytes() == want[0].tobytes()
        assert (got[1] is None) == (want[1] is None)
        if want[1] is not None:
            assert got[1].tobytes() == want[1].tobytes()

    def test_ties_go_to_the_first_rectangle(self):
        left = (-3.0, -1.0, -1.0, 1.0)
        right = (1.0, 3.0, -1.0, 1.0)
        assert clearance((left, right), np.zeros(2))[1].tolist() == [1.0, 0.0]  # away from x = -1
        assert clearance((right, left), np.zeros(2))[1].tolist() == [-1.0, 0.0]  # away from x = 1
        # A point inside two overlapping rectangles leaves through the first one's face.
        wide = (-10.0, 10.0, -0.5, 0.5)
        tall = (-0.5, 0.5, -10.0, 10.0)
        point = np.array([0.1, 0.0])
        assert clearance((wide, tall), point)[1].tolist() == [0.0, -1.0]
        assert clearance((tall, wide), point)[1].tolist() == [1.0, 0.0]


class TestWorld:
    def test_no_obstacles_infinite_clearance(self, target):
        world = World(target=target)
        clearance, way_out = world.min_clearance(np.array([0.0, 0.0]))
        assert clearance == math.inf
        assert way_out.shape == (2,) and np.isnan(way_out).all()
        assert world.min_clearance(np.zeros((4, 2)))[0].tolist() == [math.inf] * 4
        np.testing.assert_array_equal(repulsion(clearance, way_out, ControlGains()), np.zeros(2))

    def test_single_obstacle_clearance(self, target):
        world = World(target=target, obstacles=(BOX,))
        clearance, way_out = world.min_clearance(np.array([9.0, 0.0]))
        assert clearance == pytest.approx(4.0, rel=1e-12)
        np.testing.assert_array_equal(way_out, [4.0, 0.0])  # from the nearest point (5, 0)

    def test_picks_nearest_of_several(self, target):
        far = (100.0, 110.0, 0.0, 10.0)
        world = World(target=target, obstacles=(far, BOX))
        clearance, way_out = world.min_clearance(np.array([9.0, 0.0]))
        assert clearance == pytest.approx(4.0, rel=1e-12)
        np.testing.assert_array_equal(way_out, [4.0, 0.0])  # from BOX's (5, 0), not far's (100, 0)

    def test_clearance_matches_boundary_sampling(self, target):
        """Oracle: dense sampling of the obstacle boundaries."""
        obstacles = (
            (5.0, 33.0, 51.0, 79.0),
            (47.0, 75.0, 11.0, 39.0),
        )
        world = World(target=target, obstacles=obstacles)
        rng = np.random.default_rng(13)
        boundary = []
        for x_min, x_max, y_min, y_max in obstacles:
            s = np.linspace(0.0, 1.0, 2000)
            boundary.append(np.c_[x_min + s * (x_max - x_min), np.full_like(s, y_min)])
            boundary.append(np.c_[x_min + s * (x_max - x_min), np.full_like(s, y_max)])
            boundary.append(np.c_[np.full_like(s, x_min), y_min + s * (y_max - y_min)])
            boundary.append(np.c_[np.full_like(s, x_max), y_min + s * (y_max - y_min)])
        boundary = np.vstack(boundary)
        for _ in range(50):
            p = rng.uniform(-20.0, 100.0, size=2)
            if min(rect_distance(ob, p) for ob in obstacles) == 0.0:
                continue  # sampling oracle only valid outside
            clearance, _ = world.min_clearance(p)
            sampled = float(np.hypot(*(boundary - p).T).min())
            assert clearance == pytest.approx(sampled, abs=1e-2)
            assert clearance <= sampled + 1e-12

    def test_contact_direction(self, target):
        world = World(target=target, obstacles=(BOX,))
        clearance, way_out = world.min_clearance(np.array([4.0, 0.0]))
        assert clearance == 0.0
        np.testing.assert_array_equal(way_out, [1.0, 0.0])

    def test_free_space_way_out_is_the_offset(self, target):
        world = World(target=target, obstacles=(BOX,))
        clearance, way_out = world.min_clearance(np.array([8.0, 9.0]))
        assert clearance == 5.0
        np.testing.assert_array_equal(way_out, [3.0, 4.0])  # from the corner (5, 5)
        assert np.hypot(*way_out) == clearance

    @pytest.mark.parametrize("points", [np.zeros((4, 3)), np.float64(1.0), np.zeros(3)])
    @pytest.mark.parametrize("obstacles", [(), [(0.0, 1.0, 0.0, 1.0)]])
    def test_shape_error_names_the_points(self, points, obstacles, target):
        world = World(target=target, obstacles=obstacles)
        with pytest.raises(ValueError, match=r"World.min_clearance.points: expected shape \(\.\.\., 2\), got"):
            world.min_clearance(points)

    def test_validation(self, target):
        with pytest.raises(ValueError, match="dt"):
            World(target=target, dt=0.0)
        with pytest.raises(ValueError, match="noise"):
            World(target=target, motion_noise_std=-0.1)
        with pytest.raises(ValueError, match="rng_seed"):
            World(target=target, rng_seed=-1)

    @pytest.mark.parametrize("seed", [1.5, 7.0, "7", None, 2**64, np.int64(-1)])
    def test_rng_seed_must_be_a_64_bit_unsigned_int(self, target, seed):
        message = f"World.rng_seed: must lie in [0, 2^64), got {seed!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            World(target=target, rng_seed=seed, motion_noise_std=0.1)

    def test_the_largest_rng_seed_is_valid(self, target):
        """Compared as a float, 2^64 - 1 would round up to 2^64, outside the interval."""
        world = World(target=target, rng_seed=np.uint64(2**64 - 1), motion_noise_std=0.1)
        assert world._motion_noise(0, (1, 3, 2)).shape == (1, 3, 2)


class TestStep:
    def test_fixed_point(self, default_params, target):
        formation = build_formation(default_params, target, 6)
        disp = DisplacementSet(formation.planar_positions)
        world = World(target=target)
        state = embedding_state(formation)
        after = step(state, world, CommGraph.ring_with_leader(6), disp, ControlGains())
        assert np.array_equal(after.positions, state.positions)
        assert np.array_equal(after.velocity_estimates, state.velocity_estimates)
        assert after.scale == 1.0
        assert after.step_index == 1

    def test_uniform_translation(self, default_params, target):
        v_star = np.array([1.0, 0.0])
        formation = build_formation(default_params, target, 6)
        disp = DisplacementSet(formation.planar_positions)
        world = World(target=target, dt=0.1)
        graph = CommGraph.ring_with_leader(6)
        state = embedding_state(formation, velocity=v_star)
        for _ in range(5):
            after = step(state, world, graph, disp, ControlGains(), Guidance(velocity_mps=v_star))
            np.testing.assert_allclose(
                after.positions - state.positions, np.tile([0.1, 0.0], (6, 1)), atol=1e-12
            )
            state = after
        assert displacement_error(state.positions, graph, disp) < 1e-20

    def test_noise_is_a_function_of_seed_and_step(self, default_params, target):
        formation = build_formation(default_params, target, 4)
        disp = DisplacementSet(formation.planar_positions)
        graph = CommGraph.ring(4)
        world = World(target=target, motion_noise_std=0.05, rng_seed=7)
        state = embedding_state(formation)
        once = step(state, world, graph, disp, ControlGains())
        twice = step(state, world, graph, disp, ControlGains())
        assert np.array_equal(once.positions, twice.positions)

    def test_noise_differs_across_steps(self, default_params, target):
        formation = build_formation(default_params, target, 4)
        disp = DisplacementSet(formation.planar_positions)
        graph = CommGraph.ring(4)
        world = World(target=target, motion_noise_std=0.05, rng_seed=7)
        s0 = embedding_state(formation)
        s1 = SwarmState(
            positions=s0.positions,
            velocity_estimates=s0.velocity_estimates,
            scale=s0.scale,
            step_index=1,
        )
        a = step(s0, world, graph, disp, ControlGains())
        b = step(s1, world, graph, disp, ControlGains())
        assert not np.array_equal(a.positions - s0.positions, b.positions - s1.positions)

    def test_scale_shrinks_near_obstacle(self, default_params, target):
        formation = build_formation(default_params, target, 6)
        disp = DisplacementSet(formation.planar_positions)
        # Wall 6 m from the formation center: clearance - safety margin is
        # small against the 28 m formation diameter, so the scale drops.
        x, y = target.position
        wall = (x + 6.0, x + 20.0, y - 40.0, y + 40.0)
        world = World(target=target, obstacles=(wall,))
        state = embedding_state(formation)
        after = step(state, world, CommGraph.ring_with_leader(6), disp, ControlGains())
        assert after.scale < 1.0


# A 300-step noisy corridor episode, hashed over every column; run in this process and in children.
CORRIDOR_DIGEST = f"""
import hashlib
from formsense import run_episode
from formsense.config import load_config
config = load_config({str(CONFIGS / "corridor.yaml")!r})
assert config.world.motion_noise_std > 0.0
trace = run_episode(
    config.initial_state(), config.world, config.graph, config.displacement_set(), config.gains,
    config.params, 300, 0.0, config.guidance,
)
digest = hashlib.sha256(b"".join(trace.columns[name].tobytes() for name in trace.COLUMNS)).hexdigest()
"""


def unit_noise(seed: int, first_step: int, steps: int, agents: int = 6) -> np.ndarray:
    """Motion noise (steps, agents, 2) of a world with unit standard deviation."""
    world = World(target=TargetEstimate(np.zeros(2)), motion_noise_std=1.0, rng_seed=seed)
    return world._motion_noise(first_step, (steps, agents, 2))


def block_rows(seed: int, block: int, agents: int) -> np.ndarray:
    """The 16 rows (16, agents, 2) of a unit noise block, drawn whole from Philox counter (0, block)."""
    bits = np.random.Philox(counter=(block % 2**192) * 2**64, key=seed)
    return np.random.Generator(bits).normal(0.0, 1.0, (16, agents, 2))


class TestMotionNoise:
    """The counter-keyed noise stream: step k's draws are a function of (seed, k) alone."""

    @pytest.mark.parametrize("first_step", [0, 37, 2**64 - 3, 2**64 + 5, 2**130 + 1, 2**200])
    def test_chunk_draws_equal_single_steps(self, first_step):
        chunk = unit_noise(3, first_step, 7)
        last_first = [unit_noise(3, first_step + i, 1)[0] for i in reversed(range(7))]
        assert chunk.tobytes() == np.stack(last_first[::-1]).tobytes()
        # A chunk that starts mid-stream holds the same rows as one started earlier.
        assert chunk[2:].tobytes() == unit_noise(3, first_step + 2, 5).tobytes()

    def test_words_of_the_step_index_all_count(self):
        steps = [16 * b for b in (0, 1, 2**64, 2**128, 2**64 + 1)]
        draws = [unit_noise(3, k, 1).tobytes() for k in steps]
        assert len(set(draws)) == len(steps)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        base=st.sampled_from([0, 2**64, 16 * 2**192]),
        offset=st.integers(-40, 40),
        steps=st.integers(1, 48),
        cuts=st.lists(st.integers(1, 47), max_size=5),
    )
    def test_any_split_of_a_run_of_steps_draws_its_block_rows(self, base, offset, steps, cuts):
        """Step k is row k mod 16 of block k // 16, however [k0, k0 + n) is split into draws.

        The block index wraps after 2**192 blocks, so a run near 16 * 2**192 crosses back to block 0.
        """
        k0 = max(base + offset, 0)
        whole = unit_noise(3, k0, steps, agents=2)
        bounds = sorted({0, steps, *(c for c in cuts if c < steps)})
        parts = [unit_noise(3, k0 + a, b - a, agents=2) for a, b in zip(bounds, bounds[1:])]
        assert np.concatenate(parts).tobytes() == whole.tobytes()
        blocks = range(k0 // 16, (k0 + steps - 1) // 16 + 1)
        rows = np.concatenate([block_rows(3, b, 2) for b in blocks])[k0 % 16 :][:steps]
        assert rows.tobytes() == whole.tobytes()
        assert unit_noise(3, k0 + 16 * 2**192, steps, agents=2).tobytes() == whole.tobytes()

    def test_threads_sharing_a_world_draw_the_serial_noise(self):
        """Four threads draw disjoint steps from one world, switching as often as the interpreter can."""
        world = World(target=TargetEstimate(np.zeros(2)), motion_noise_std=1.0, rng_seed=3)
        serial = [world._motion_noise(k, (1, 6, 2)).tobytes() for k in range(1000)]
        drawn = [b""] * 1000

        def draw(first: int) -> None:
            for k in range(first, 1000, 4):
                drawn[k] = world._motion_noise(k, (1, 6, 2)).tobytes()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=draw, args=(first,)) for first in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert sum(a != b for a, b in zip(drawn, serial)) == 0

    def test_standard_deviation_scales_the_unit_draws(self, target):
        world = World(target=target, motion_noise_std=0.01, rng_seed=3)
        assert np.array_equal(world._motion_noise(11, (4, 6, 2)), 0.01 * unit_noise(3, 11, 4))
        assert not World(target=target, rng_seed=3)._motion_noise(11, (4, 6, 2)).any()

    def test_noisy_steps_draw_no_os_entropy(self, default_params, target, monkeypatch):
        """Each block sets the generator's whole state, so no OS entropy is drawn for a key it drops."""

        def refuse(size):
            raise AssertionError(f"drew {size} bytes of OS entropy")

        monkeypatch.setattr(random, "_urandom", refuse)
        formation = build_formation(default_params, target, 6)
        args = (CommGraph.ring_with_leader(6), DisplacementSet(formation.planar_positions), ControlGains())
        world = World(target=target, motion_noise_std=0.01, rng_seed=3)
        state = embedding_state(formation)
        assert not np.array_equal(step(state, world, *args).positions, state.positions)
        trace = run_episode(state, world, *args, default_params, max_steps=40, stop_tolerance=0.0)
        assert trace.steps == 40

    @pytest.mark.parametrize("seed", [0, 1, 2**63 + 5])
    def test_mean_and_variance(self, seed):
        z = unit_noise(seed, 1000, 4000).ravel()
        bound = 4.0 / math.sqrt(z.size)
        assert abs(z.mean()) < bound
        assert abs(z.var() - 1.0) < bound * math.sqrt(2.0)

    @pytest.mark.parametrize("seed", [0, 7])
    def test_kolmogorov_smirnov_against_standard_normal(self, seed):
        z = np.sort(unit_noise(seed, 0, 4000).ravel())
        cdf = np.array([0.5 * (1.0 + math.erf(x / math.sqrt(2.0))) for x in z.tolist()])
        n = z.size
        statistic = max((np.arange(1, n + 1) / n - cdf).max(), (cdf - np.arange(n) / n).max())
        assert statistic < 1.95 / math.sqrt(n)  # the 0.1 % critical value

    def test_no_correlation_between_neighbouring_steps_agents_or_seeds(self):
        z = unit_noise(5, 0, 4000).reshape(4000, 12)  # each step's 6 agents x 2 axes
        bound = 5.0 / math.sqrt(len(z))
        steps = np.corrcoef(z[:-1], z[1:], rowvar=False)[:12, 12:]  # every draw of k against every draw of k + 1
        draws = np.corrcoef(z, rowvar=False)[~np.eye(12, dtype=bool)]  # agents and axes within a step
        seeds = np.corrcoef(z, unit_noise(6, 0, 4000).reshape(4000, 12), rowvar=False)[:12, 12:]
        assert np.abs(steps).max() < bound
        assert np.abs(draws).max() < bound
        assert np.abs(seeds).max() < bound

    def test_episode_bytes_do_not_depend_on_simd_dispatch(self):
        """A child with every dispatched CPU feature of numpy disabled hashes the same episode."""
        multiarray = (np._core if hasattr(np, "_core") else np.core)._multiarray_umath  # numpy 2 or 1
        namespace = {}
        exec(CORRIDOR_DIGEST, namespace)
        report = (
            f"\nfrom {multiarray.__name__} import __cpu_dispatch__, __cpu_features__"
            "\nprint([name for name in __cpu_dispatch__ if __cpu_features__[name]])"
            "\nprint(digest)"
        )
        env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(multiarray.__cpu_dispatch__))
        env.pop("NPY_ENABLE_CPU_FEATURES", None)  # numpy refuses both at once
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(CONFIGS.parent / "src"), env.get("PYTHONPATH"))))
        child = subprocess.run(
            [sys.executable, "-c", CORRIDOR_DIGEST + report], env=env, capture_output=True, text=True, check=True
        )
        enabled, digest = child.stdout.splitlines()
        assert enabled == "[]"  # the child ran on numpy's baseline kernels
        assert digest == namespace["digest"]


class TestMetrics:
    def test_crlb_of_positions_at_optimum(self, default_params, target):
        formation = build_formation(default_params, target, 6)
        world = World(target=target)
        crlb = crlb_of_positions(formation.planar_positions, world, default_params)
        assert crlb == pytest.approx(theoretical_lower_bound(default_params, 6), rel=1e-9)

    def test_crlb_of_positions_never_beats_bound(self, default_params, target):
        world = World(target=target)
        bound = theoretical_lower_bound(default_params, 5)
        rng = np.random.default_rng(23)
        for _ in range(100):
            positions = target.position + rng.uniform(-60.0, 60.0, size=(5, 2))
            assert crlb_of_positions(positions, world, default_params) >= bound * (1 - 1e-12)

    def test_displacement_error_zero_at_embedding(self, default_params, target):
        formation = build_formation(default_params, target, 6)
        disp = DisplacementSet(formation.planar_positions)
        err = displacement_error(formation.planar_positions, CommGraph.ring_with_leader(6), disp)
        assert err == 0.0

    def test_displacement_error_counts_each_edge_once(self, default_params, target):
        formation = build_formation(default_params, target, 3)
        disp = DisplacementSet(formation.planar_positions)
        graph = CommGraph.ring(3)  # triangle: edges (0,1), (1,2), (0,2)
        positions = formation.planar_positions.copy()
        positions[0] += [1.0, 0.0]
        # Agent 0 deviates by 1 m on each of its two edges.
        assert displacement_error(positions, graph, disp) == pytest.approx(2.0, rel=1e-12)

    def test_min_pairwise_matches_brute_force(self):
        rng = np.random.default_rng(37)
        for _ in range(20):
            positions = rng.uniform(-50.0, 50.0, size=(7, 2))
            brute = min(
                float(np.linalg.norm(positions[i] - positions[j]))
                for i in range(7)
                for j in range(i + 1, 7)
            )
            assert min_pairwise_distance(positions) == pytest.approx(brute, rel=1e-12)


@st.composite
def formations(draw):
    """(B, M, 2) positions, M in [2, 64], on a grid coarse enough for equal x, ties and coincident agents.

    Some draws put NaN or +-inf into a row.
    """
    agents = draw(st.integers(2, 64))
    batch = draw(st.integers(1, 4))
    grid = draw(st.sampled_from([0.5, 1.0, 7.0, 1e-3]))
    cells = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    positions = grid * rng.integers(-cells, cells + 1, size=(batch, agents, 2)).astype(float)
    for _ in range(draw(st.integers(0, 3))):
        index = tuple(rng.integers((batch, agents, 2)))
        positions[index] = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    return positions


class TestMinPairwiseSweep:
    """The sorted sweep against the minimum over all M^2 pairs."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(formations())
    def test_matches_dense_oracle_bit_for_bit(self, positions):
        with np.errstate(invalid="ignore", over="ignore"):
            got, want = min_pairwise_distance(positions), dense_min_pairwise_distance(positions)
            single = [min_pairwise_distance(row) for row in positions]
        assert got.shape == want.shape == positions.shape[:1]
        assert np.isfinite(got).tolist() == np.isfinite(want).tolist()
        finite = np.isfinite(want)
        assert got[finite].tobytes() == want[finite].tobytes()
        assert np.array_equal(got, single, equal_nan=True)

    @pytest.mark.parametrize("positions", [np.zeros(3), np.float64(1.0), np.zeros((4, 3)), np.zeros(2)])
    def test_shape_error_names_the_positions(self, positions):
        with pytest.raises(ValueError, match=r"min_pairwise_distance.positions: expected shape \(\.\.\., M, 2\)"):
            min_pairwise_distance(positions)

    def test_same_infinite_y_out_of_x_order_is_not_finite(self):
        positions = np.array([[0.0, math.inf], [1.0, 0.0], [2.0, 0.0], [9.0, math.inf]])
        with np.errstate(invalid="ignore"):
            assert math.isnan(dense_min_pairwise_distance(positions))
            assert math.isnan(min_pairwise_distance(positions))

    @pytest.mark.parametrize("far_y", [0.0, math.inf])
    def test_divergence_names_min_pairwise_where_the_oracle_is_not_finite(self, default_params, target, far_y):
        """One agent at infinite y leaves a finite pairwise minimum; two make it NaN."""
        formation = build_formation(default_params, target, 3)
        q = np.array([[0.0, math.inf], [1.0, 0.0], [9.0, far_y]])
        with np.errstate(invalid="ignore"):
            oracle_finite = math.isfinite(dense_min_pairwise_distance(q))
        with np.errstate(invalid="ignore", over="ignore"), pytest.raises(ValueError) as raised:
            world_module._chunk_columns(
                4, np.stack([q, q]), np.zeros((1, 3, 2)), np.zeros((1, 2)), np.zeros(1),
                np.zeros((1, 3)), np.ones(1), World(target=target), CommGraph.ring(3),
                DisplacementSet(formation.planar_positions), default_params,
            )
        assert str(raised.value).startswith("run_episode: diverged at step 4: positions")
        assert ("min_pairwise_m" in str(raised.value)) == (not oracle_finite) == (far_y == math.inf)


class TestBatchedMetrics:
    """A batch (B, M, 2) gives the doubles of B single calls, NaN and infinite rows included."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(formations(), st.integers(0, 2**32 - 1))
    def test_displacement_error_and_arrival_distance(self, positions, seed):
        agents = positions.shape[1]
        rng = np.random.default_rng(seed)
        graph = CommGraph.complete(agents, leader_index=int(rng.integers(agents)))
        disp = DisplacementSet(rng.uniform(-20.0, 20.0, size=(agents, 2)))
        metrics = [lambda q: displacement_error(q, graph, disp)] + [
            functools.partial(Guidance(mode=mode).center_error_m, graph=graph, disp=disp)
            for mode in GUIDANCE_MODES
        ]
        with np.errstate(invalid="ignore", over="ignore"):
            for metric in metrics:
                got, single = metric(positions), [metric(q) for q in positions]
                assert all(isinstance(value, float) for value in single)
                assert got.shape == positions.shape[:1]
                assert got.tobytes() == np.array(single).tobytes()


class TestGuidance:
    def test_constant_mode_returns_reference(self, default_params, target):
        formation = build_formation(default_params, target, 4)
        disp = DisplacementSet(formation.planar_positions)
        state = embedding_state(formation)
        guidance = Guidance(mode="constant", velocity_mps=(0.7, -0.1))
        np.testing.assert_array_equal(
            guidance.commanded_velocity(state.positions, CommGraph.ring(4), disp), [0.7, -0.1]
        )
        assert guidance.center_error_m(state.positions, CommGraph.ring(4), disp) == 0.0

    def test_goal_mode_stops_at_goal(self, default_params, target):
        formation = build_formation(default_params, target, 4)
        disp = DisplacementSet(formation.planar_positions)
        graph = CommGraph.ring(4)
        guidance = Guidance(mode="goal")
        state = embedding_state(formation)  # every agent on its slot
        assert guidance.center_error_m(state.positions, graph, disp) == 0.0
        assert np.array_equal(guidance.commanded_velocity(state.positions, graph, disp), [0.0, 0.0])

    def test_goal_mode_proportional_when_close(self, target):
        graph = CommGraph.ring(3)
        positions = np.tile(target.position + np.array([1.0, 0.0]), (3, 1))
        state = SwarmState(positions=positions, velocity_estimates=np.zeros((3, 2)))
        guidance = Guidance(mode="goal", gain_per_s=0.5, max_speed_mps=1.2)
        disp = DisplacementSet(reference=np.tile(target.position, (3, 1)))
        v = guidance.commanded_velocity(state.positions, graph, disp)
        np.testing.assert_allclose(v, [-0.5, 0.0], rtol=1e-12)

    def test_goal_mode_saturates_when_far(self, target):
        graph = CommGraph.ring(3)
        positions = np.tile(target.position + np.array([100.0, 0.0]), (3, 1))
        state = SwarmState(positions=positions, velocity_estimates=np.zeros((3, 2)))
        guidance = Guidance(mode="goal", gain_per_s=0.5, max_speed_mps=1.2)
        disp = DisplacementSet(reference=np.tile(target.position, (3, 1)))
        v = guidance.commanded_velocity(state.positions, graph, disp)
        assert np.linalg.norm(v) == pytest.approx(1.2, rel=1e-12)
        np.testing.assert_allclose(v / np.linalg.norm(v), [-1.0, 0.0], rtol=1e-12)

    def test_goal_is_the_leaders_slot(self, default_params, target):
        formation = build_formation(default_params, target, 3)
        disp = DisplacementSet(formation.planar_positions)
        graph = CommGraph.ring(3, leader_index=2)
        positions = np.tile(target.position, (3, 1))  # the ring's center, not the leader's slot
        guidance = Guidance(mode="goal", gain_per_s=0.5, max_speed_mps=1e3)
        to_slot = formation.planar_positions[2] - target.position
        assert guidance.center_error_m(positions, graph, disp) == pytest.approx(
            formation.ring_radius_m, rel=1e-12
        )
        np.testing.assert_array_equal(guidance.commanded_velocity(positions, graph, disp), 0.5 * to_slot)

    def test_validation(self):
        with pytest.raises(ValueError, match="mode"):
            Guidance(mode="chase")
        with pytest.raises(ValueError, match="max_speed"):
            Guidance(max_speed_mps=0.0)
        with pytest.raises(ValueError, match="arrival"):
            Guidance(arrival_tolerance_m=-1.0)


class TestRunEpisode:
    def test_immediate_convergence_at_embedding(self, default_params, target):
        formation = build_formation(default_params, target, 6)
        disp = DisplacementSet(formation.planar_positions)
        world = World(target=target)
        trace = run_episode(
            embedding_state(formation),
            world,
            CommGraph.ring_with_leader(6),
            disp,
            ControlGains(),
            default_params,
            max_steps=100,
        )
        assert trace.converged
        assert trace.steps == 1
        assert trace.columns["time_s"][0] == pytest.approx(0.1, rel=1e-12)
        assert trace.columns["displacement_error_m2"][0] == 0.0
        assert trace.columns["max_control_m"][0] == 0.0
        at_slots = crlb_of_positions(formation.planar_positions, world, default_params)
        assert trace.columns["crlb_m2"][0] == pytest.approx(at_slots, rel=1e-9)

    def test_goal_mode_settles_only_once_the_leader_has_arrived(self, default_params, target):
        """A settled shape 2 m off its reference stops at once in constant mode, later in goal mode."""
        formation = build_formation(default_params, target, 6)
        disp = DisplacementSet(formation.planar_positions)
        graph = CommGraph.ring_with_leader(6)
        shifted = SwarmState(
            positions=formation.planar_positions + np.array([2.0, 0.0]),
            velocity_estimates=np.zeros((6, 2)),
        )
        args = (shifted, World(target=target), graph, disp, ControlGains(), default_params)
        assert run_episode(*args, max_steps=400).steps == 1
        guidance = Guidance(mode="goal")
        trace = run_episode(*args, max_steps=400, guidance=guidance)
        assert trace.converged
        assert trace.steps > 1
        final = trace.final_state.positions
        assert guidance.center_error_m(final, graph, disp) <= guidance.arrival_tolerance_m
        assert guidance.center_error_m(trace.columns["positions"][0], graph, disp) > guidance.arrival_tolerance_m

    def test_zero_step_budget(self, default_params, target):
        formation = build_formation(default_params, target, 6)
        disp = DisplacementSet(formation.planar_positions)
        world = World(target=target)
        initial = embedding_state(formation)
        trace = run_episode(
            initial, world, CommGraph.ring_with_leader(6), disp, ControlGains(),
            default_params, max_steps=0,
        )
        assert trace.columns["positions"].shape == (0, 6, 2)
        assert not trace.converged
        assert trace.final_state is initial
        summary = trace.summary()
        assert summary["steps"] == 0
        assert summary["final_crlb_m2"] is None

    @pytest.mark.parametrize("budget", [-1, 2.5, 2.0, True])
    def test_a_budget_that_is_not_a_count_is_rejected(self, default_params, target, budget):
        """A fractional budget once failed with a TypeError from inside the step loop."""
        formation = build_formation(default_params, target, 3)
        message = f"run_episode.max_steps: must lie in [0, inf), got {budget!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            run_episode(
                embedding_state(formation),
                World(target=target),
                CommGraph.ring(3),
                DisplacementSet(formation.planar_positions),
                ControlGains(),
                default_params,
                max_steps=budget,
            )

    def test_noisy_episode_is_reproducible(self, default_params, target):
        formation = build_formation(default_params, target, 4)
        disp = DisplacementSet(formation.planar_positions)
        world = World(target=target, motion_noise_std=0.02, rng_seed=99)
        graph = CommGraph.ring(4)
        rng = np.random.default_rng(3)
        initial = SwarmState(
            positions=target.position + rng.uniform(-20.0, 20.0, size=(4, 2)),
            velocity_estimates=np.zeros((4, 2)),
        )
        kwargs = dict(gains=ControlGains(), params=default_params, max_steps=50)
        a = run_episode(initial, world, graph, disp, **kwargs)
        b = run_episode(initial, world, graph, disp, **kwargs)
        assert a.steps == b.steps
        assert np.array_equal(a.columns["positions"], b.columns["positions"])
        assert a.summary() == b.summary()

    def test_cost_non_increasing_once_velocities_lock(self, default_params, target):
        """With estimates already at the reference, the total cost is a
        Lyapunov function of the noise-free closed loop."""
        v_star = np.array([0.6, 0.0])
        formation = build_formation(default_params, target, 6)
        disp = DisplacementSet(formation.planar_positions)
        world = World(target=target)
        graph = CommGraph.ring_with_leader(6)
        rng = np.random.default_rng(8)
        initial = SwarmState(
            positions=target.position + rng.uniform(-25.0, 25.0, size=(6, 2)),
            velocity_estimates=np.tile(v_star, (6, 1)),
        )
        trace = run_episode(
            initial, world, graph, disp, ControlGains(), default_params,
            max_steps=400, stop_tolerance=0.0, guidance=Guidance(velocity_mps=v_star),
        )
        costs = trace.columns["total_cost"]
        errors = trace.columns["displacement_error_m2"]
        assert np.all(np.diff(costs) <= 1e-9 * np.maximum(1.0, costs[:-1]))
        assert np.all(np.diff(errors) <= 1e-12 * np.maximum(1.0, errors[:-1]))

    def test_safety_events_logged_for_contact(self, default_params, target):
        formation = build_formation(default_params, target, 3)
        disp = DisplacementSet(formation.planar_positions)
        block = (-100.0, 300.0, -100.0, 300.0)
        world = World(target=target, obstacles=(block,))
        state = embedding_state(formation)  # everyone inside the block
        trace = run_episode(
            state, world, CommGraph.ring(3), disp, ControlGains(), default_params,
            max_steps=3,
        )
        assert len(trace.safety_events) > 0
        assert all(s >= 0 and 0 <= m < 3 for s, m in trace.safety_events)
        assert trace.columns["min_clearance_m"][0] == 0.0

    def test_crlb_is_none_for_singular_geometry(self, default_params):
        target = TargetEstimate(np.array([0.0, 0.0]))
        positions = np.array([[10.0, 0.0], [20.0, 0.0], [30.0, 0.0]])
        disp = DisplacementSet(reference=positions)
        world = World(target=target)
        state = SwarmState(positions=positions, velocity_estimates=np.zeros((3, 2)))
        trace = run_episode(
            state, world, CommGraph.ring(3), disp, ControlGains(), default_params,
            max_steps=2,
        )
        assert trace.converged  # collinear but perfectly in formation
        assert np.isnan(trace.columns["crlb_m2"][0])
        assert trace.summary()["final_crlb_m2"] is None

    @pytest.mark.parametrize("agents", [6, 24])
    def test_one_control_and_cost_call_per_step(self, default_params, target, monkeypatch, agents):
        calls = {}
        for name in ("_step_laws", "local_cost", "crlb_of_positions", "displacement_error"):
            count_calls(monkeypatch, world_module, name, calls)
        count_calls(monkeypatch, World, "min_clearance", calls)
        formation = build_formation(default_params, target, agents)
        x, y = formation.planar_positions[0] + 1.0
        wall = (x + 2.0, x + 12.0, y - 5.0, y + 5.0)  # beside agent 0
        world, gains = World(target=target, obstacles=(wall,)), ControlGains()
        state = embedding_state(formation)
        initial = SwarmState(state.positions + 1.0, state.velocity_estimates)
        steps = 300
        trace = run_episode(
            initial,
            world,
            CommGraph.ring(agents),
            DisplacementSet(formation.planar_positions),
            gains,
            default_params,
            max_steps=steps,
            stop_tolerance=0.0,
            guidance=Guidance(velocity_mps=(0.0, 1.0)),  # the swarm flies past the wall
        )
        assert trace.steps == steps
        chunks = math.ceil(steps / 256)
        assert chunks == 2
        # Beside the wall each step is a stretch of its own: all 300 at M=24. At M=6 steps 0-158
        # are, then the free-field stretches of 1, 2, 4, 8 and 2 steps to the end of their block,
        # one per block of 16 up to step 287, and 12 steps: 1 + 159 + 13 queries. No step is dropped.
        queries = {6: 173, 24: 301}[agents]
        assert calls == {
            "_step_laws": steps,  # the step's one evaluation of both control laws
            "local_cost": chunks,
            "crlb_of_positions": chunks,
            "displacement_error": 256 // 16 + math.ceil((steps - 256) / 16),  # one per stop test
            "min_clearance": queries,  # one obstacle query per stretch, and one before the first
        }
        starts = np.concatenate((initial.positions[None], trace.columns["positions"][:-1]))
        repelled = (world.min_clearance(starts)[0] < gains.safety_radius_m).any(axis=1)
        assert 0 < repelled.sum() < steps

    @pytest.mark.parametrize("wall", ["far", "at_radius"])
    def test_free_field_makes_one_query_per_stretch(self, default_params, target, monkeypatch, wall):
        """Stretches of 1, 2, 4, 8 and 1 steps fill the first block of 16, then one stretch per
        block. ``far`` flies a ring past a wall 100 m away; ``at_radius`` holds a triangle at rest
        on its reference with agent 0 exactly at the safety radius of a wall, which exerts no
        repulsion and so leaves every step free field."""
        far = wall == "far"
        formation = build_formation(default_params, target, 6 if far else 3)
        x, y = formation.planar_positions[0]
        gap, velocity = (100.0, (0.0, 1.0)) if far else (5.0, (0.0, 0.0))
        world = World(target=target, obstacles=((x + gap, x + gap + 10.0, y - 5.0, y + 5.0),))
        radius = 5.0 if far else float(world.min_clearance(formation.planar_positions[0])[0])
        calls, steps = {}, 300
        count_calls(monkeypatch, world_module, "_step_laws", calls)
        count_calls(monkeypatch, World, "min_clearance", calls)
        trace = run_episode(
            embedding_state(formation, velocity),
            world,
            CommGraph.ring(formation.agent_count),
            DisplacementSet(formation.planar_positions),
            ControlGains(safety_radius_m=radius),
            default_params,
            max_steps=steps,
            stop_tolerance=0.0,
            guidance=Guidance(velocity_mps=velocity),
        )
        assert trace.steps == steps and (trace.columns["eta"] == 1.0).all()
        if not far:
            assert (trace.columns["min_clearance_m"] == radius).all()
        assert calls == {"_step_laws": steps, "min_clearance": 1 + 5 + (math.ceil(steps / 16) - 1)}

    @pytest.mark.parametrize("steps", [1, 300])
    def test_builds_one_swarm_state(self, default_params, target, monkeypatch, steps):
        formation = build_formation(default_params, target, 6)
        initial = embedding_state(formation)
        calls = {}
        count_calls(monkeypatch, SwarmState, "__post_init__", calls)
        trace = run_episode(
            initial,
            World(target=target, motion_noise_std=0.05, rng_seed=1),
            CommGraph.ring(6),
            DisplacementSet(formation.planar_positions),
            ControlGains(),
            default_params,
            max_steps=steps,
            stop_tolerance=0.0,
        )
        assert trace.steps == steps
        assert calls["__post_init__"] == 1

    @pytest.mark.parametrize("settle_at", [1, 16, 17, 100, 256, 257])
    def test_settled_chunk_is_cut_at_the_public_steps(self, default_params, target, settle_at):
        """An episode that settles on its first step, at the end or start of a stop block,
        mid-block, on a chunk's last step or on the next chunk's first gives that many step()
        calls' state bit for bit."""
        formation = build_formation(default_params, target, 6)
        x, y = formation.planar_positions.max(axis=0) + 100.0  # too far to shrink the formation
        world = World(target, ((x, x + 5.0, y, y + 5.0),), motion_noise_std=1e-4, rng_seed=5)
        graph, disp = CommGraph.ring_with_leader(6), DisplacementSet(formation.planar_positions)
        gains, rng = ControlGains(), np.random.default_rng(6)
        state = SwarmState(
            positions=formation.planar_positions + rng.uniform(-2.0, 2.0, size=(6, 2)),
            velocity_estimates=rng.normal(0.0, 0.1, size=(6, 2)),
            step_index=9,
        )
        args = (state, world, graph, disp, gains, default_params)
        errors = run_episode(*args, max_steps=300, stop_tolerance=0.0).columns["displacement_error_m2"]
        tolerance = np.nextafter(errors[settle_at - 1], math.inf)
        assert errors[: settle_at - 1].min(initial=math.inf) >= tolerance  # the first settled step
        trace = run_episode(*args, max_steps=300, stop_tolerance=tolerance)
        assert trace.converged and trace.steps == settle_at
        for _ in range(settle_at):
            state = step(state, world, graph, disp, gains)
        final = trace.final_state
        assert final.positions.tobytes() == state.positions.tobytes()
        assert final.velocity_estimates.tobytes() == state.velocity_estimates.tobytes()
        assert (final.scale, final.step_index) == (state.scale, state.step_index)
        assert state.step_index == 9 + settle_at

    @pytest.mark.parametrize(
        "guidance", [Guidance(velocity_mps=(0.3, -0.1)), Guidance(mode="goal")], ids=["constant", "goal"]
    )
    def test_public_step_matches_episode(self, default_params, target, guidance):
        """k calls of step() give the episode's positions and final state bit for bit."""
        formation = build_formation(default_params, target, 6)
        x, y = formation.planar_positions[0]
        world = World(
            target=target,
            obstacles=((x - 20.0, x + 20.0, y - 20.0, y + 20.0), BOX),
            motion_noise_std=0.05,
            rng_seed=11,
        )
        graph = CommGraph.ring_with_leader(6)
        disp = DisplacementSet(formation.planar_positions)
        gains = ControlGains()
        rng = np.random.default_rng(4)
        state = SwarmState(
            positions=formation.planar_positions + rng.uniform(-3.0, 3.0, size=(6, 2)),
            velocity_estimates=rng.normal(0.0, 0.1, size=(6, 2)),
            scale=0.8,
            step_index=4,
        )
        steps = 40
        trace = run_episode(
            state, world, graph, disp, gains, default_params, max_steps=steps, stop_tolerance=0.0,
            guidance=guidance,
        )
        assert trace.steps == steps and trace.safety_events and trace.columns["eta"].min() < 0.8
        for k in range(steps):
            state = step(state, world, graph, disp, gains, guidance)
            assert state.positions.tobytes() == trace.columns["positions"][k].tobytes(), k
        final = trace.final_state
        assert final.positions.tobytes() == state.positions.tobytes()
        assert final.velocity_estimates.tobytes() == state.velocity_estimates.tobytes()
        assert (final.scale, final.step_index) == (state.scale, state.step_index)
        assert state.step_index == 4 + steps

    def test_diverged_run_names_the_step(self, default_params, target):
        formation = build_formation(default_params, target, 3)
        block = (-100.0, 300.0, -100.0, 300.0)
        gains = ControlGains(repulsion_gain=1e300, repulsion_cap=1e300, safety_radius_m=1e6)
        with pytest.raises(ValueError, match="diverged at step 0: total_cost, "):
            run_episode(
                embedding_state(formation),
                World(target=target, obstacles=(block,)),
                CommGraph.ring(3),
                DisplacementSet(formation.planar_positions),
                gains,
                default_params,
                max_steps=5,
            )

    def test_diverged_run_stops_within_one_chunk(self, default_params, target, monkeypatch):
        """The cost overflows at step 0 while the positions stay finite for a while."""
        calls = {}
        count_calls(monkeypatch, world_module, "_step_laws", calls)
        formation = build_formation(default_params, target, 3)
        block = (-100.0, 300.0, -100.0, 300.0)
        gains = ControlGains(repulsion_gain=1e300, repulsion_cap=1e300, safety_radius_m=1e6)
        with pytest.raises(ValueError, match="diverged at step 0: total_cost, "):
            run_episode(
                embedding_state(formation),
                World(target=target, obstacles=(block,)),
                CommGraph.ring(3),
                DisplacementSet(formation.planar_positions),
                gains,
                default_params,
                max_steps=10**9,
            )
        assert 0 < calls["_step_laws"] <= 256

    def test_diverged_positions_mid_chunk_name_the_step(self, monkeypatch):
        """An infinite draw at step 300, in the second chunk, makes that step's positions diverge."""
        draws = World._motion_noise

        def noise(world, first_step, shape):
            out = draws(world, first_step, shape)
            if first_step <= 300 < first_step + shape[0]:
                out[300 - first_step, 2, 1] = math.inf
            return out

        monkeypatch.setattr(World, "_motion_noise", noise)
        config = load_config(CONFIGS / "corridor.yaml")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as raised:
                run_episode(
                    config.initial_state(), config.world, config.graph, config.displacement_set(),
                    config.gains, config.params, 400, 0.0, config.guidance,
                )
        assert str(raised.value) == (
            "run_episode: diverged at step 300: positions, total_cost, displacement_error_m2 not finite"
        )

    def test_nan_positions_name_the_step(self, monkeypatch):
        """A NaN draw at step 300 gives NaN positions, clearances and centroid. Neither the
        scale factor nor the laws raise on them, so the chunk check names the step."""
        draws = World._motion_noise

        def noise(world, first_step, shape):
            out = draws(world, first_step, shape)
            if first_step <= 300 < first_step + shape[0]:
                out[300 - first_step, 2, 1] = math.nan
            return out

        monkeypatch.setattr(World, "_motion_noise", noise)
        config = load_config(CONFIGS / "corridor.yaml")
        with pytest.raises(ValueError) as raised:
            run_episode(
                config.initial_state(), config.world, config.graph, config.displacement_set(),
                config.gains, config.params, 400, 0.0, config.guidance,
            )
        assert str(raised.value) == (
            "run_episode: diverged at step 300: positions, total_cost, displacement_error_m2, min_pairwise_m not finite"
        )

    def test_budget_is_not_allocated_up_front(self, default_params, target):
        formation = build_formation(default_params, target, 6)
        tracemalloc.start()
        try:
            trace = run_episode(
                embedding_state(formation),
                World(target=target),
                CommGraph.ring_with_leader(6),
                DisplacementSet(formation.planar_positions),
                ControlGains(),
                default_params,
                max_steps=10**12,
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert trace.converged and trace.steps == 1
        assert peak < 2**20

    def test_dense_graph_chunks_stay_small(self, default_params, target):
        """A complete graph of 200 agents has 39 800 directed edges: 64 steps in one chunk
        would hold (64, E, 2) arrays of 41 MB each; the chunk shrinks to 6 steps instead."""
        agents = 200
        rng = np.random.default_rng(5)
        reference = rng.uniform(-50.0, 50.0, size=(agents, 2))
        args = (
            SwarmState(reference + rng.uniform(-5.0, 5.0, size=(agents, 2)), np.zeros((agents, 2))),
            World(target=target),
            CommGraph.complete(agents),
            DisplacementSet(reference),
            ControlGains(epsilon=0.2 / agents, consensus_gain=0.5 / agents),
            default_params,
        )
        tracemalloc.start()
        try:
            trace = run_episode(*args, max_steps=64, stop_tolerance=0.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert trace.steps == 64
        assert peak < 16 * 2**20, f"peak {peak / 2**20:.1f} MB"

    def test_total_cost_sums_agents_left_to_right(self, default_params, target):
        """Builtin sum() of floats is compensated on Python 3.12 and later; the total is not."""
        rng = np.random.default_rng(12)
        for agents in (8, 9, 13):
            formation = build_formation(default_params, target, agents)
            disp, guidance = DisplacementSet(formation.planar_positions), Guidance(velocity_mps=(0.3, -0.1))
            graph = CommGraph.ring_with_leader(agents)
            world = World(target=target, motion_noise_std=0.3, rng_seed=agents)
            state = SwarmState(
                positions=formation.planar_positions + rng.uniform(-9.0, 9.0, size=(agents, 2)),
                velocity_estimates=rng.normal(size=(agents, 2)),
            )
            trace = run_episode(
                state, world, graph, disp, ControlGains(), default_params, max_steps=5, guidance=guidance
            )
            after = trace.columns["positions"]
            before = np.concatenate([state.positions[None], after[:-1]])
            for k in range(trace.steps):
                costs = local_cost(before[k], graph, disp, world.dt, after[k], guidance.velocity_mps)
                assert trace.columns["total_cost"][k] == functools.reduce(operator.add, costs.tolist())


def _assert_matches_oracle(trace, oracle):
    records, events, converged, final = oracle
    assert trace.steps == len(records)
    if records:  # by bytes: np.array_equal takes -0.0 for 0.0
        assert trace.columns["positions"].tobytes() == np.stack([r.positions for r in records]).tobytes()
    for name in ("time_s", "eta", "total_cost", "min_clearance_m", "min_pairwise_m",
                 "max_control_m", "displacement_error_m2"):
        want = np.array([getattr(r, name) for r in records], dtype=float)
        assert trace.columns[name].tobytes() == want.tobytes(), name
    crlb = [None if math.isnan(c) else c for c in trace.columns["crlb_m2"].tolist()]
    assert crlb == [r.crlb_m2 for r in records]
    assert [r.step for r in records] == list(range(trace.steps))
    columns = {f.name for f in dataclasses.fields(StepRecord)} - {"step"}
    assert columns == set(world_module.EpisodeTrace.COLUMNS)  # every record field is compared above
    assert trace.safety_events == events
    assert trace.converged == converged
    assert trace.final_state.positions.tobytes() == final.positions.tobytes()
    assert trace.final_state.velocity_estimates.tobytes() == final.velocity_estimates.tobytes()
    assert (trace.final_state.scale, trace.final_state.step_index) == (final.scale, final.step_index)


_PARAMS = SensingParams(
    transmit_power_w=0.1,
    processing_gain=1.0e3,
    ref_channel_power_m4=1.0e-5,
    kappa=1.0,
    noise_floor_w=1.0e-12,
    altitude_m=20.0,
)


@st.composite
def episodes(draw):
    """run_episode arguments: 3-12 agents, one of five scenarios, noise and guidance.

    ``settle`` starts in formation in open space and converges within a few
    steps; ``open`` starts scattered; ``obstacles`` puts up to three
    rectangles near the target, ``contact`` puts them around agents; ``blow_up``
    starts scattered by 1e140-1e280 m with an unstable gain, so the run diverges.
    """
    agents = draw(st.integers(3, 12))
    graph = getattr(CommGraph, draw(st.sampled_from(["ring", "ring_with_leader", "complete"])))(agents)
    scenario = draw(st.sampled_from(["settle", "open", "obstacles", "contact", "blow_up"]))
    target = TargetEstimate(np.array([80.0, 90.0]))
    formation = build_formation(_PARAMS, target, agents, draw(st.floats(0.0, 6.0)))
    velocity = draw(st.sampled_from([(0.0, 0.0), (0.6, -0.2)]))
    disp = DisplacementSet(formation.planar_positions)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    positions = formation.planar_positions
    if scenario != "settle":
        positions = positions + rng.uniform(-25.0, 25.0, size=(agents, 2))
    obstacles = []
    for _ in range(draw(st.integers(1, 3)) if scenario in ("obstacles", "contact") else 0):
        if scenario == "contact":
            x, y = positions[rng.integers(agents)]
        else:
            x, y = target.position + rng.uniform(-40.0, 40.0, size=2)
        w, h = rng.uniform(1.0, 15.0, size=2)
        obstacles.append((x - w, x + w, y - h, y + h))
    epsilon = 0.01
    if scenario == "blow_up":
        scatter = draw(st.sampled_from([1e140, 1e152, 1e280]))
        positions = positions + scatter * rng.uniform(-1.0, 1.0, size=(agents, 2))
        epsilon = 1.0  # the deviation grows every step
    world = World(
        target=target,
        obstacles=tuple(obstacles),
        motion_noise_std=0.0 if scenario == "settle" else draw(st.sampled_from([0.0, 0.05])),
        rng_seed=draw(st.integers(0, 2**64 - 1)),
    )
    guidance = Guidance(mode="constant" if draw(st.booleans()) else "goal", velocity_mps=velocity)
    gains = ControlGains(epsilon=epsilon, consensus_gain=0.5 / (graph.max_follower_degree + 1))
    initial = SwarmState(positions=positions, velocity_estimates=rng.normal(0.0, 0.02, size=(agents, 2)))
    return dict(
        initial=initial,
        world=world,
        graph=graph,
        disp=disp,
        gains=gains,
        params=_PARAMS,
        max_steps=draw(st.integers(1, 60)),
        stop_tolerance=draw(st.sampled_from([1e-3, 0.5])),
        guidance=guidance,
    )


class TestEpisodeColumns:
    """The columns, events and final state equal the step-by-step oracle bit for bit."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(episodes())
    def test_matches_stepwise_oracle(self, kwargs):
        try:
            oracle = stepwise_episode(**kwargs)
        except ValueError as exc:
            with pytest.raises(ValueError) as raised:
                run_episode(**kwargs)
            assert str(raised.value) == str(exc)
            return
        _assert_matches_oracle(run_episode(**kwargs), oracle)

    @pytest.mark.parametrize("agents, steps", [(6, 300), (24, 300)])
    def test_matches_oracle_across_chunks(self, default_params, target, agents, steps):
        """Chunks of 256 steps: positions, events and step numbers carry across.

        The swarm starts inside a 3 km block and is pushed out at most 5 m per
        step, so contacts continue into the last chunk.
        """
        formation = build_formation(default_params, target, agents)
        rng = np.random.default_rng(agents)
        positions = formation.planar_positions + rng.uniform(-10.0, 10.0, size=(agents, 2))
        x, y = target.position
        kwargs = dict(
            initial=SwarmState(positions=positions, velocity_estimates=np.zeros((agents, 2))),
            world=World(
                target=target,
                obstacles=(BOX, (x - 1500.0, x + 1500.0, y - 1400.0, y + 1500.0)),
                motion_noise_std=0.05,
                rng_seed=3,
            ),
            graph=CommGraph.ring(agents),
            disp=DisplacementSet(formation.planar_positions),
            gains=ControlGains(),
            params=default_params,
            max_steps=steps,
            guidance=Guidance(velocity_mps=(0.05, 0.0)),
        )
        trace = run_episode(**kwargs)
        assert trace.steps == steps and trace.safety_events[-1][0] >= 256
        _assert_matches_oracle(trace, stepwise_episode(**kwargs))

    @pytest.mark.parametrize(
        "positions",
        [
            [[10.0, 0.0], [20.0, 0.0], [30.0, 0.0]],  # collinear: singular information
            [[0.0, 0.0], [20.0, 5.0], [-7.0, 19.0]],  # agent 0 directly above the target
        ],
    )
    def test_missing_crlb_matches_oracle(self, default_params, positions):
        target = TargetEstimate(np.array([0.0, 0.0]))
        positions = np.array(positions)
        kwargs = dict(
            initial=SwarmState(positions=positions, velocity_estimates=np.zeros((3, 2))),
            world=World(target=target),
            graph=CommGraph.ring(3),
            disp=DisplacementSet(reference=positions),
            gains=ControlGains(),
            params=default_params,
            max_steps=4,
        )
        trace = run_episode(**kwargs)
        assert trace.converged and np.isnan(trace.columns["crlb_m2"]).all()
        _assert_matches_oracle(trace, stepwise_episode(**kwargs))

    def test_positions_overflow_mid_chunk_matches_oracle(self, default_params, target):
        """Positions turn non-finite in a later step of the chunk that diverged earlier."""
        formation = build_formation(default_params, target, 6)
        rng = np.random.default_rng(5)
        kwargs = dict(
            initial=SwarmState(
                positions=formation.planar_positions + 1e280 * rng.uniform(-1.0, 1.0, size=(6, 2)),
                velocity_estimates=np.zeros((6, 2)),
            ),
            world=World(target=target),
            graph=CommGraph.complete(6),
            disp=DisplacementSet(formation.planar_positions),
            gains=ControlGains(epsilon=1.0, consensus_gain=0.1),
            params=default_params,
            max_steps=200,
        )
        with pytest.raises(ValueError) as want:
            stepwise_episode(**kwargs)
        with pytest.raises(ValueError) as got:
            run_episode(**kwargs)
        assert str(got.value) == str(want.value)


_STRETCH_SCENARIOS = ("pass", "gap", "goal", "contact", "open", "settle", "blow_up")


@st.composite
def stretch_episodes(draw, scenario):
    """run_episode arguments whose free-field stretches stand whole, break and restart.

    M of 3, 6, 24 or 96 and up to 320 steps. ``pass`` flies the formation at a constant
    reference velocity, from 5-120 steps away, past or into up to two rectangles beside its
    path: agents come within the safety radius of them, or the centroid only within
    r + D/2, or neither. ``gap`` flies it between two, ``goal`` steers it to its slot past
    them, ``contact`` puts rectangles around agents, ``open`` has none, ``settle`` starts
    near the formation in open space without noise, and ``blow_up`` scatters it by
    1e140-1e280 m with an unstable gain, so the run diverges.
    """
    agents = draw(st.sampled_from([3, 6, 24, 96]))
    graph = getattr(CommGraph, draw(st.sampled_from(["ring", "ring_with_leader"])))(agents)
    target = TargetEstimate(np.array([80.0, 90.0]))
    formation = build_formation(_PARAMS, target, agents, draw(st.floats(0.0, 6.0)))
    disp = DisplacementSet(formation.planar_positions)
    gains = ControlGains(
        epsilon=min(0.01, 0.4 / graph.max_degree), consensus_gain=0.5 / (graph.max_follower_degree + 1),
        safety_radius_m=draw(st.sampled_from([5.0, 2.0])),
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    reach = disp.nominal_diameter_m / 2 + gains.safety_radius_m
    speed, arrive = draw(st.floats(1.0, 3.0)), draw(st.integers(5, 120))
    velocity = (speed, 0.0) if scenario in ("pass", "gap") else (0.0, 0.0)
    clear = 4.0 + reach + speed * 0.1 * arrive  # free field for about `arrive` steps
    start = {"pass": (-clear, 0.0), "gap": (-clear, 0.0), "goal": (-40.0, -30.0)}
    scatter = draw(st.sampled_from([1.0, 0.0, 0.01, 0.3])) if scenario == "settle" else 1.0
    positions = formation.planar_positions + start.get(scenario, (0.0, 0.0))
    positions = positions + scatter * rng.uniform(-1.0, 1.0, size=(agents, 2))
    (x, y), obstacles = target.position, []
    if scenario in ("pass", "goal"):
        for side in rng.choice([-1.0, 1.0], size=draw(st.integers(1, 2))):
            near = y + side * reach * draw(st.floats(-0.2, 1.4))  # the rectangle's side facing the path
            obstacles.append((x - 3.0, x + 3.0, *sorted((near, near + side * 4.0))))
    elif scenario == "gap":
        half = reach * draw(st.floats(0.4, 1.1))
        obstacles = [(x - 4.0, x + 4.0, y + half, y + half + 20.0), (x - 4.0, x + 4.0, y - half - 20.0, y - half)]
    elif scenario == "contact":
        for _ in range(draw(st.integers(1, 3))):
            px, py = positions[rng.integers(agents)]
            w, h = rng.uniform(0.5, 8.0, size=2)
            obstacles.append((px - w, px + w, py - h, py + h))
    if scenario == "blow_up":
        positions = positions + draw(st.sampled_from([1e140, 1e280])) * rng.uniform(-1.0, 1.0, size=(agents, 2))
        gains = dataclasses.replace(gains, epsilon=1.0)
    world = World(
        target=target,
        obstacles=tuple(obstacles),
        motion_noise_std=0.0 if scenario == "settle" else draw(st.sampled_from([0.0, 0.05])),
        rng_seed=draw(st.integers(0, 2**64 - 1)),
    )
    velocities = np.tile(velocity, (agents, 1)) + rng.normal(0.0, 0.02, size=(agents, 2))
    steps = arrive + draw(st.integers(0, 200)) if scenario in ("pass", "gap") else draw(st.integers(1, 320))
    return dict(
        initial=SwarmState(positions=positions, velocity_estimates=velocities, step_index=draw(st.integers(0, 40))),
        world=world,
        graph=graph,
        disp=disp,
        gains=gains,
        params=_PARAMS,
        max_steps=steps,
        stop_tolerance=1e-3 if obstacles else draw(st.sampled_from([1e-3, 0.5])),  # no stop before the rectangles
        guidance=Guidance(mode="goal" if scenario == "goal" else "constant", velocity_mps=velocity),
    )


def _assert_same_trace(trace, want):
    """Every column by bytes (-0.0 is not 0.0), the safety events, the outcome and the final state."""
    assert trace.columns.keys() == want.columns.keys()
    for name, column in want.columns.items():
        assert trace.columns[name].shape == column.shape, name
        assert trace.columns[name].tobytes() == column.tobytes(), name
    assert trace.safety_events == want.safety_events
    assert trace.converged == want.converged
    got, final = trace.final_state, want.final_state
    assert got.positions.tobytes() == final.positions.tobytes()
    assert got.velocity_estimates.tobytes() == final.velocity_estimates.tobytes()
    assert (got.scale, got.step_index) == (final.scale, final.step_index)


class TestStretches:
    """Steps run in stretches with one obstacle query each, and give the doubles of a query per step."""

    @pytest.mark.parametrize("scenario", _STRETCH_SCENARIOS)
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_matches_per_step_oracle(self, scenario, data):
        kwargs = data.draw(stretch_episodes(scenario))
        try:
            want = per_step_episode(**kwargs)
        except ValueError as exc:
            with pytest.raises(ValueError) as raised:
                run_episode(**kwargs)
            assert str(raised.value) == str(exc)
            return
        _assert_same_trace(run_episode(**kwargs), want)

    def test_gap_run_rescales_within_stretches(self, monkeypatch):
        """The corridor through its gap, led by agent 3. Past the gap the scale recovers on
        every step of stretches that share one query, so each of their steps derives its
        offsets anew; every column still equals the per-step oracle's."""
        config = load_config(CONFIGS / "corridor.yaml")
        kwargs = dict(
            initial=config.initial_state(), world=config.world, graph=CommGraph.ring_with_leader(6, 3),
            disp=config.displacement_set(), gains=config.gains, params=config.params, max_steps=1200,
            stop_tolerance=0.0, guidance=config.guidance,
        )
        rescaling, advance = [], world_module._advance

        def spy(first, steps, rows, *args):
            result = advance(first, steps, rows, *args)
            eta = rows[4][first : first + result[0]]
            rescaling.append(len(eta) > 1 and bool((np.diff(eta) != 0.0).all()))
            return result

        monkeypatch.setattr(world_module, "_advance", spy)
        trace = run_episode(**kwargs)
        assert trace.columns["eta"].min() < 0.5 and sum(rescaling) >= 10
        _assert_same_trace(trace, per_step_episode(**kwargs))


class TestEpisodeTrace:
    """The trace is a table: four init fields, and columns of one row per step."""

    @staticmethod
    def table(default_params, target):
        formation = build_formation(default_params, target, 4)
        trace = run_episode(
            embedding_state(formation), World(target=target), CommGraph.ring(4),
            DisplacementSet(formation.planar_positions), ControlGains(), default_params, max_steps=3,
            stop_tolerance=0.0,
        )
        return trace, {name: column.copy() for name, column in trace.columns.items()}

    def test_init_fields_are_the_table_and_its_outcome(self):
        fields = [f.name for f in dataclasses.fields(world_module.EpisodeTrace) if f.init]
        assert fields == ["columns", "safety_events", "converged", "final_state"]

    def test_columns_are_read_only_views(self, default_params, target):
        trace, columns = self.table(default_params, target)
        rebuilt = dataclasses.replace(trace, columns=columns)
        assert list(rebuilt.columns) == list(trace.COLUMNS) and rebuilt.steps == 3
        assert not any(column.flags.writeable for column in rebuilt.columns.values())
        assert all(column.flags.writeable for column in columns.values())  # the caller's arrays
        assert not hasattr(rebuilt, "eta")

    @pytest.mark.parametrize(
        "change, message",
        [
            (lambda c: c.pop("eta"), r"missing \['eta'\], unknown \[\]"),
            (lambda c: c.update(speed=c["eta"]), r"missing \[\], unknown \['speed'\]"),
            (lambda c: c.update(eta=c["eta"][:2]), r"'eta' has shape \(2,\), time_s \(3,\)"),
            (lambda c: c.update(time_s=0.1), r"'time_s' has shape \(\), time_s \(\)"),
        ],
        ids=["missing", "unknown", "short", "scalar"],
    )
    def test_construction_names_the_column(self, default_params, target, change, message):
        trace, columns = self.table(default_params, target)
        change(columns)
        with pytest.raises(ValueError, match="EpisodeTrace.columns: " + message):
            dataclasses.replace(trace, columns=columns)


# Isometries of the plane on (..., 2) arrays. Each moves a double to a double exactly.
ISOMETRIES = {
    "mirror_x": lambda p: p * np.array([-1.0, 1.0]),
    "mirror_y": lambda p: p * np.array([1.0, -1.0]),
    "rotate_90": lambda p: p[..., ::-1] * np.array([-1.0, 1.0]),
}


@st.composite
def noise_free_scenes(draw):
    """run_episode arguments of a noise-free scene: 3-6 agents, up to two rectangles, either guidance.

    Corners lie on the integers, agents start at (i + 0.3, j + 0.1) and the target at
    (i + 0.7, j + 0.6): no agent starts equally far from two faces of a rectangle, or above the target.
    """
    agents = draw(st.integers(3, 6))
    spot = st.tuples(st.integers(-12, 12), st.integers(-12, 12))
    spots = st.lists(spot, min_size=agents, max_size=agents, unique=True)
    obstacles = []
    for _ in range(draw(st.integers(0, 2))):
        (x, y), width, height = draw(spot), draw(st.integers(1, 24)), draw(st.integers(1, 24))
        obstacles.append((x, x + width, y, y + height))
    velocity = np.array(draw(st.tuples(st.integers(-5, 5), st.integers(-5, 5)))) / 10.0
    return dict(
        initial=SwarmState(np.array(draw(spots)) + (0.3, 0.1), np.array(draw(spots)) / 100.0),
        world=World(target=TargetEstimate(np.array(draw(spot)) + (0.7, 0.6)), obstacles=tuple(obstacles)),
        graph=CommGraph.ring_with_leader(agents),
        disp=DisplacementSet(np.array(draw(spots)) * 1.5),
        gains=ControlGains(),
        params=_PARAMS,
        max_steps=draw(st.integers(1, 40)),
        stop_tolerance=1e-3,
        guidance=Guidance(mode=draw(st.sampled_from(GUIDANCE_MODES)), velocity_mps=velocity),
    )


def _noise_free_corridor() -> dict:
    config = load_config(CONFIGS / "corridor.yaml", noise_free=True)
    return dict(
        initial=config.initial_state(), world=config.world, graph=config.graph, disp=config.displacement_set(),
        gains=config.gains, params=config.params, max_steps=config.max_steps,
        stop_tolerance=config.stop_tolerance_m2, guidance=config.guidance,
    )


def _moved(scene: dict, move) -> dict:
    """``scene`` with every point and vector moved by ``move``: agents, target, rectangles, slots, guidance."""
    world, initial, guidance = scene["world"], scene["initial"], scene["guidance"]
    obstacles = []
    for x_min, x_max, y_min, y_max in world.obstacles:
        (x_min, y_min), (x_max, y_max) = np.sort(move(np.array([[x_min, y_min], [x_max, y_max]])), axis=0)
        obstacles.append((x_min, x_max, y_min, y_max))
    return {
        **scene,
        "initial": SwarmState(move(initial.positions), move(initial.velocity_estimates)),
        "world": World(target=TargetEstimate(move(world.target.position)), obstacles=tuple(obstacles)),
        "disp": DisplacementSet(move(scene["disp"].reference)),
        "guidance": dataclasses.replace(guidance, velocity_mps=move(guidance.velocity_mps)),
    }


class TestSymmetry:
    """A mirrored or quarter-turned noise-free scene records the mirrored or turned episode."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(noise_free_scenes())
    @example(_noise_free_corridor())
    def test_isometries_move_the_episode(self, scene):
        trace = run_episode(**scene)
        for name, move in ISOMETRIES.items():
            moved = run_episode(**_moved(scene, move))
            assert moved.steps == trace.steps and moved.converged == trace.converged, name
            assert moved.safety_events == trace.safety_events, name
            for column in trace.COLUMNS:
                want, got = trace.columns[column], moved.columns[column]
                if column == "positions":
                    want = move(want)
                if name == "rotate_90" and column == "crlb_m2":
                    # J's cross term sums (w dx) dy on one side and (w dy) dx on the other.
                    np.testing.assert_allclose(got, want, rtol=1e-12, err_msg=name)
                else:
                    assert got.tobytes() == want.tobytes(), (name, column)


class TestNoiseFloor:
    """Motion noise holds the shape error at F, far above the shipped stop tolerance."""

    def test_the_shipped_floor_is_51_tolerances(self):
        config = load_config(CONFIGS / "baseline.yaml")
        floor = noise_floor(config.graph, config.gains, config.world.motion_noise_std)
        assert floor == pytest.approx(0.05092, abs=5e-6)
        assert 50 < floor / config.stop_tolerance_m2 < 52

    def test_a_noisy_run_on_the_ring_holds_its_mean_error_at_the_floor(self):
        """Batch means: the run's mean error lies within 5 standard errors of F.

        The slowest mode relaxes in tau = 1/(epsilon lambda_2) steps, about 72 here, and the
        error, a square of the modes, in tau / 2. So the first 10 tau steps are dropped (the
        transient left is e^-20 of F) and the rest is cut into blocks of 5 tau, long enough
        that neighbouring block means barely correlate. Under the model the statistic
        (mean - F) / (s / sqrt(n)) over n = 53 blocks is Student-t with 52 degrees of
        freedom: |t| > 5 has probability 7e-6. In 4000 runs of the linear model the
        statistic's spread was 1.05 and its largest size 4.6, so with the error's skew the
        false-failure rate stays below about 1e-4.
        """
        config = load_config(CONFIGS / "baseline.yaml")
        assert not len(config.world.obstacles) and config.world.motion_noise_std > 0.0
        disp = config.displacement_set()
        floor = noise_floor(config.graph, config.gains, config.world.motion_noise_std)
        tau = 1.0 / (config.gains.epsilon * np.linalg.eigvalsh(laplacian(config.graph))[1])
        burn_in, block, steps = math.ceil(10.0 * tau), math.ceil(5.0 * tau), 20_000
        start = SwarmState(disp.reference, np.zeros_like(disp.reference))
        trace = run_episode(
            start, config.world, config.graph, disp, config.gains, config.params, steps,
            config.stop_tolerance_m2, Guidance(),
        )
        assert trace.steps == steps and not trace.converged
        blocks = (steps - burn_in) // block
        means = trace.columns["displacement_error_m2"][burn_in : burn_in + blocks * block]
        means = means.reshape(blocks, block).mean(axis=1)
        standard_error = means.std(ddof=1) / math.sqrt(blocks)
        assert abs(means.mean() - floor) <= 5.0 * standard_error, (means.mean(), floor, standard_error)


class TestConvergenceRate:
    """Without noise, obstacles or guidance the displacement law is linear; graph theory gives its rate."""

    @pytest.mark.parametrize("topology", ["ring", "ring_with_leader", "complete"])
    def test_error_ratio_is_the_laplacian_rate(self, topology):
        raw = {"graph": {"topology": topology}, "gains": {"consensus_gain": 0.1}}
        config = build_config(raw, noise_free=True)
        assert config.formation.agent_count == 6 and not len(config.world.obstacles)
        assert config.guidance.mode == "constant" and not config.guidance.velocity_mps.any()
        trace = run_episode(
            config.initial_state(), config.world, config.graph, config.displacement_set(), config.gains,
            config.params, 3000, 0.0, config.guidance,
        )
        error = trace.columns["displacement_error_m2"]
        # The first step below 1e-6 of the start: the slow mode dominates, and round-off does not yet.
        k = int(np.argmax(error < 1e-6 * error[0]))
        assert k > 0
        rate = displacement_rate(config.graph, config.gains.epsilon)
        assert error[k] / error[k - 1] == pytest.approx(rate, abs=1e-4)

    @pytest.mark.parametrize("topology", ["ring", "ring_with_leader", "complete"])
    def test_a_run_settles_when_the_rate_says(self, topology):
        """From a step where the slow mode dominates, the error falls to the tolerance at rate rho^2."""
        config = build_config({"graph": {"topology": topology}, "gains": {"consensus_gain": 0.1}}, noise_free=True)
        run = functools.partial(
            run_episode, config.initial_state(), config.world, config.graph, config.displacement_set(),
            config.gains, config.params, 3000, guidance=config.guidance,
        )
        error = run(stop_tolerance=0.0).columns["displacement_error_m2"]
        k = int(np.argmax(error < 1e-6 * error[0]))
        tolerance = 1e-3 * error[k]
        trace = run(stop_tolerance=tolerance)
        assert trace.converged
        rate = displacement_rate(config.graph, config.gains.epsilon)
        predicted = math.ceil(math.log(tolerance / error[k]) / math.log(rate)) + k
        assert abs(trace.steps - predicted) <= 2, (trace.steps, predicted)

    @pytest.mark.parametrize("topology", ["ring", "ring_with_leader", "complete"])
    def test_consensus_ratio_is_the_grounded_laplacian_rate(self, topology):
        graph, gains = getattr(CommGraph, topology)(6, leader_index=0), ControlGains(consensus_gain=0.1)
        reference = np.array([1.0, -2.0])
        velocities = np.random.default_rng(5).uniform(-3.0, 3.0, size=(6, 2))
        errors = [np.linalg.norm(velocities[1:] - reference)]
        while errors[-1] >= 1e-6 * errors[0] and len(errors) <= 1000:
            velocities = consensus_velocity_step(velocities, graph, reference, gains)
            errors.append(np.linalg.norm(velocities[1:] - reference))
        assert errors[-1] < 1e-6 * errors[0]
        assert errors[-1] / errors[-2] == pytest.approx(consensus_rate(graph, 0.1), abs=1e-4)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.integers(0, 2**32 - 1), st.floats(0.05, 0.95), st.floats(0.05, 0.95))
    def test_every_step_contracts_at_least_at_the_spectral_rate(self, seed, epsilon_share, gain_share):
        """Both errors evolve by a symmetric linear map, so no step shrinks them by less than its rate."""
        rng = np.random.default_rng(seed)
        graph = random_connected_graph(rng)
        gains = ControlGains(
            epsilon=epsilon_share / (2.0 * graph.max_degree),
            consensus_gain=gain_share / (graph.max_follower_degree + 1),
        )
        check_stability(gains, graph)
        agents = graph.agent_count
        world = World(target=TargetEstimate(np.array([80.0, 90.0])))
        params = SensingParams(0.1, 1.0e3, 1.0e-5, 1.0, 1.0e-12, 20.0)
        initial = SwarmState(rng.uniform(-50.0, 50.0, size=(agents, 2)), np.zeros((agents, 2)))
        disp = DisplacementSet(rng.uniform(-20.0, 20.0, size=(agents, 2)))
        error = run_episode(initial, world, graph, disp, gains, params, 200, 0.0).columns["displacement_error_m2"]
        error = np.concatenate(([displacement_error(initial.positions, graph, disp)], error))
        self.assert_bounded(error, displacement_rate(graph, gains.epsilon))

        followers = np.arange(agents) != graph.leader_index
        velocities, consensus = rng.uniform(-3.0, 3.0, size=(agents, 2)), []
        for _ in range(200):
            consensus.append(np.linalg.norm(velocities[followers]))
            velocities = consensus_velocity_step(velocities, graph, np.zeros(2), gains)
        self.assert_bounded(np.array(consensus), consensus_rate(graph, gains.consensus_gain))

    @staticmethod
    def assert_bounded(error, rate):
        """Every per-step ratio is at most ``rate``, up to round-off, while the error is above 1e-12 of its start."""
        live = error[:-1] > 1e-12 * error[0]
        ratios = error[1:][live] / error[:-1][live]
        assert ratios.max(initial=0.0) <= rate * (1.0 + 1e-9), (ratios.max(), rate)
