"""Acceptance gate: ten end-to-end checks with hard tolerances and budgets.

Each test prints one PASS/FAIL line (run pytest with -s or -rP to see them
for passing tests). The checks pin down: the analytic elevation optimum
against a brute-force grid (1, 2), bound attainment and unbeatability
(3, 4), azimuth isotropy (5), benchmark dominance across altitudes (6),
closed-loop convergence in open space (7) and through a corridor (8), the
gradient structure of the control laws (9), and bitwise reproducibility of
the CLI (10).
"""

import json
import math
import time
from pathlib import Path

import numpy as np

from formsense import (
    CommGraph,
    ControlGains,
    DisplacementSet,
    Guidance,
    SensingParams,
    SwarmState,
    TargetEstimate,
    World,
    benchmark_positions,
    build_formation,
    displacement_control,
    displacement_error,
    elevation_weight,
    load_config,
    optimal_azimuths,
    optimal_elevation,
    repulsion,
    run_episode,
    step,
    sweep_rows,
    theoretical_lower_bound,
)
from formsense.benchmarks import BenchmarkSpec
from formsense.cli import main as cli_main
from formsense.world import crlb_of_positions
from oracle import adjacency

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
ZENITH_LIMIT_DEG = 54.7356  # arctan(sqrt(2)) rounded down at the 4th decimal

DEFAULT_PARAMS = SensingParams(
    transmit_power_w=0.1,
    processing_gain=1.0e3,
    ref_channel_power_m4=1.0e-5,
    kappa=1.0,
    noise_floor_w=1.0e-12,
    altitude_m=20.0,
)
TARGET = TargetEstimate(np.array([80.0, 90.0]))


def params_with(composite_snr: float, altitude: float) -> SensingParams:
    # transmit power maps to the composite constant through a fixed 1e10 factor
    return SensingParams(
        transmit_power_w=composite_snr / 1e10,
        processing_gain=1.0e3,
        ref_channel_power_m4=1.0e-5,
        kappa=1.0,
        noise_floor_w=1.0e-12,
        altitude_m=altitude,
    )


# Verdict lines, one per criterion; echoed in the terminal summary by the
# conftest hook so they survive pytest's output capture.
REPORT_LINES: list[str] = []


def report(num: int, description: str, ok: bool, detail: str = "") -> None:
    line = f"{'PASS' if ok else 'FAIL'} criterion {num:02d}: {description}"
    if detail:
        line += f" [{detail}]"
    REPORT_LINES.append(line)
    print(line)
    assert ok, line


def test_criterion_01_elevation_matches_grid_search():
    """Closed-form elevation equals a 1e-5 rad brute-force grid maximizer."""
    start = time.perf_counter()
    grid = np.arange(0.001, math.pi / 2 - 0.001, 1e-5)
    s2 = np.sin(grid) ** 2
    c2 = np.cos(grid) ** 2
    altitudes = (5.0, 10.0, 20.0, 40.0, 80.0)
    ratios = np.logspace(-7.0, 5.0, 50)  # 12 orders of magnitude
    worst_gap_deg = 0.0
    inside = True
    for i, ratio in enumerate(ratios):
        h = altitudes[i % len(altitudes)]
        b = 8.0 / h**2
        a = ratio * b
        params = params_with(a * h**4, h)
        phi = optimal_elevation(params)
        # independent oracle: per-range information times bearing factor
        weights = (a * s2 * s2 + b * s2) * c2
        phi_ref = float(grid[np.argmax(weights)])
        worst_gap_deg = max(worst_gap_deg, abs(math.degrees(phi - phi_ref)))
        deg = math.degrees(phi)
        inside = inside and (45.0 < deg < ZENITH_LIMIT_DEG)
    elapsed = time.perf_counter() - start
    ok = worst_gap_deg <= 0.05 and inside and elapsed < 1.0
    report(
        1,
        "optimal elevation tracks a 1e-5 rad grid search and stays inside (45, 54.7356) deg",
        ok,
        f"50 cases, worst gap {worst_gap_deg:.3e} deg, {elapsed:.2f}s < 1s",
    )


def test_criterion_02_asymptotic_regimes():
    """High-SNR limit arctan(sqrt(2)), low-SNR limit 45 degrees."""
    h = 20.0
    b = 8.0 / h**2
    high = math.degrees(optimal_elevation(params_with(1e9 * b * h**4, h)))
    low = math.degrees(optimal_elevation(params_with(1e-9 * b * h**4, h)))
    gap_high = abs(high - 54.7356)
    gap_low = abs(low - 45.0)
    ok = gap_high <= 0.01 and gap_low <= 0.01
    report(
        2,
        "elevation limits: 54.7356 deg at coefficient ratio 1e9, 45 deg at 1e-9",
        ok,
        f"gaps {gap_high:.2e} / {gap_low:.2e} deg",
    )


def test_criterion_03_bound_attained_for_all_fleet_sizes():
    """Built formations attain 4 / (M * w(phi*)) to 1e-9 relative."""
    world = World(target=TARGET)
    phi = optimal_elevation(DEFAULT_PARAMS)
    w_star = elevation_weight(phi, DEFAULT_PARAMS)
    worst = 0.0
    for m in range(3, 9):
        formation = build_formation(DEFAULT_PARAMS, TARGET, m)
        crlb = crlb_of_positions(formation.planar_positions, world, DEFAULT_PARAMS)
        expected = 4.0 / (m * w_star)
        worst = max(worst, abs(crlb - expected) / expected)
    ok = worst <= 1e-9
    report(
        3,
        "optimal formations attain the analytic bound for fleet sizes 3..8",
        ok,
        f"worst relative gap {worst:.2e} <= 1e-9",
    )


def test_criterion_04_bound_never_beaten():
    """1000 random same-altitude formations per fleet size never beat the bound."""
    start = time.perf_counter()
    world = World(target=TARGET)
    rng = np.random.default_rng(2024)
    ok = True
    min_margin = math.inf
    for m in (3, 6):
        bound = theoretical_lower_bound(DEFAULT_PARAMS, m)
        for _ in range(1000):
            positions = TARGET.position + rng.uniform(-50.0, 50.0, size=(m, 2))
            crlb = crlb_of_positions(positions, world, DEFAULT_PARAMS)
            ok = ok and crlb >= bound * (1.0 - 1e-12) and crlb > bound
            min_margin = min(min_margin, crlb / bound - 1.0)
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 5.0
    report(
        4,
        "2000 random formations all sit strictly above the bound",
        ok,
        f"min margin {min_margin:.2e}, {elapsed:.2f}s < 5s",
    )


def test_criterion_05_azimuth_second_harmonic_cancels():
    """Regular azimuth spreads cancel sum(exp(2j theta)) to 1e-12."""
    rng = np.random.default_rng(11)
    worst = 0.0
    for m in range(3, 13):
        for rotation in (0.0, float(rng.uniform(0.0, 2.0 * math.pi))):
            theta = optimal_azimuths(m, rotation)
            worst = max(worst, abs(np.exp(2j * theta).sum()))
    ok = worst <= 1e-12
    report(
        5,
        "second-harmonic azimuth sums vanish for 3..12 agents at any rotation",
        ok,
        f"worst residual {worst:.2e} <= 1e-12",
    )


def test_criterion_06_benchmarks_dominated_across_altitudes():
    """Optimal beats every benchmark at every altitude, with widening gaps."""
    start = time.perf_counter()
    specs = [
        BenchmarkSpec(kind="optimal"),
        BenchmarkSpec(kind="line"),
        BenchmarkSpec(kind="clustered_polygon"),
        BenchmarkSpec(kind="fixed_elevation"),
        BenchmarkSpec(kind="random_cloud"),
    ]
    altitudes = [10.0, 20.0, 30.0, 40.0, 50.0, 60.0]
    rows = sweep_rows(specs, 6, TARGET, DEFAULT_PARAMS, altitudes, seed=12345)
    by_alt = {}
    for row in rows:
        by_alt.setdefault(row["altitude_m"], {})[row["formation_kind"]] = row["crlb_m2"]
    dominated = all(
        kinds[k] > kinds["optimal"]
        for kinds in by_alt.values()
        for k in kinds
        if k != "optimal"
    )
    gaps_widen = all(
        (by_alt[60.0][k] - by_alt[60.0]["optimal"]) > (by_alt[10.0][k] - by_alt[10.0]["optimal"])
        for k in ("line", "clustered_polygon", "fixed_elevation", "random_cloud")
    )
    elapsed = time.perf_counter() - start
    ok = dominated and gaps_widen and elapsed < 5.0
    report(
        6,
        "optimal formation dominates all benchmarks at 10..60 m with widening gaps",
        ok,
        f"{len(rows)} rows, {elapsed:.2f}s < 5s",
    )


def test_criterion_07_open_space_convergence():
    """Noise-free closed loop: velocities lock, shape error then decays monotonically."""
    start = time.perf_counter()
    v_star = np.array([1.0, 0.0])
    formation = build_formation(DEFAULT_PARAMS, TARGET, 6)
    disp = DisplacementSet(formation.planar_positions)
    guidance = Guidance(velocity_mps=v_star)
    graph = CommGraph.ring_with_leader(6)
    gains = ControlGains(epsilon=0.01, consensus_gain=0.2)
    world = World(target=TARGET, motion_noise_std=0.0, dt=0.1)
    rng = np.random.default_rng(7)
    state = SwarmState(
        positions=rng.uniform(-25.0, 25.0, size=(6, 2)),
        velocity_estimates=np.zeros((6, 2)),
    )
    vel_errs = []
    disp_errs = []
    for _ in range(2000):
        state = step(state, world, graph, disp, gains, guidance)
        vel_errs.append(float(np.linalg.norm(state.velocity_estimates - v_star, axis=1).max()))
        disp_errs.append(displacement_error(state.positions, graph, disp))
    vel_errs = np.array(vel_errs)
    disp_errs = np.array(disp_errs)
    hit = np.flatnonzero((vel_errs < 1e-6) & (disp_errs < 1e-3))
    reached = hit.size > 0 and int(hit[0]) < 5000
    settled = np.flatnonzero(vel_errs <= 1e-9)
    k0 = int(settled[0]) if settled.size else len(vel_errs)
    tail = disp_errs[k0:]
    monotone = bool(np.all(np.diff(tail) <= 1e-12 * np.maximum(1.0, tail[:-1])))
    elapsed = time.perf_counter() - start
    ok = reached and monotone and elapsed < 2.0
    detail = (
        f"thresholds at step {int(hit[0]) if hit.size else -1}, "
        f"final vel err {vel_errs[-1]:.1e}, final shape err {disp_errs[-1]:.1e}, "
        f"{elapsed:.2f}s < 2s"
    )
    report(7, "open-space run settles under 1e-6 m/s and 1e-3 m^2 within 5000 steps", ok, detail)


def test_criterion_08_corridor_transit():
    """Noise-free corridor: shrink through the gap, re-expand, reach the bound."""
    start = time.perf_counter()
    cfg = load_config(CONFIG_DIR / "corridor.yaml", noise_free=True)
    formation = cfg.build_formation()
    disp = cfg.displacement_set(formation)
    trace = run_episode(
        initial=cfg.initial_state(),
        world=cfg.world,
        graph=cfg.graph,
        disp=disp,
        gains=cfg.gains,
        params=cfg.params,
        max_steps=cfg.max_steps,
        stop_tolerance=cfg.stop_tolerance_m2,
        guidance=cfg.guidance,
    )
    etas = trace.columns["eta"]
    costs = trace.columns["total_cost"]
    no_contact = len(trace.safety_events) == 0
    dips = np.flatnonzero(etas < 0.9)
    dipped = dips.size > 0
    ok = trace.converged and no_contact and dipped
    detail_parts = [f"{trace.steps} steps", f"{len(trace.safety_events)} contacts"]
    if dipped:
        dip = int(dips[0])
        rec_candidates = np.flatnonzero((np.arange(len(etas)) > dips[-1]) & (etas >= 0.999))
        recovered = rec_candidates.size > 0
        ok = ok and recovered and etas[-1] >= 0.999
        pre_cost = costs[dip - 1] if dip > 0 else costs[0]
        if recovered:
            rec = int(rec_candidates[0])
            transient = float(costs[dip:rec].max())
            ok = ok and transient > pre_cost and costs[-1] < pre_cost
            detail_parts.append(
                f"eta {etas.min():.2f} -> {etas[-1]:.4f}, cost {pre_cost:.1f} -> "
                f"{transient:.0f} -> {costs[-1]:.3f}"
            )
    bound = theoretical_lower_bound(cfg.params, cfg.formation.agent_count)
    final_crlb = trace.columns["crlb_m2"][-1].item()
    near_bound = final_crlb is not None and abs(final_crlb / bound - 1.0) <= 0.01
    elapsed = time.perf_counter() - start
    ok = ok and near_bound and elapsed < 10.0
    detail_parts.append(f"final crlb/bound - 1 = {final_crlb / bound - 1.0:.1e}")
    detail_parts.append(f"{elapsed:.2f}s < 10s")
    report(
        8,
        "corridor transit: no contacts, eta dips below 0.9 and recovers, bound within 1%",
        ok,
        ", ".join(detail_parts),
    )


def test_criterion_09_control_laws_are_gradients():
    """Repulsion and displacement control match central-difference gradients."""
    start = time.perf_counter()
    rng = np.random.default_rng(303)
    h = 1e-6

    gains = ControlGains(repulsion_gain=2.0, safety_radius_m=5.0, repulsion_cap=1e9)

    def potential(pos, nearest):
        dist = float(np.linalg.norm(pos - nearest))
        if dist >= gains.safety_radius_m:
            return 0.0
        return 0.5 * gains.repulsion_gain * (1.0 / dist - 1.0 / gains.safety_radius_m) ** 2

    worst_rep = 0.0
    for _ in range(100):
        nearest = rng.uniform(-20.0, 20.0, size=2)
        direction = rng.normal(size=2)
        direction /= np.linalg.norm(direction)
        dist = float(rng.uniform(0.5, 4.99))  # inside (0.1, 1.0) * safety radius
        pos = nearest + dist * direction
        force = repulsion(float(np.hypot(*(pos - nearest))), pos - nearest, gains)
        grad = np.zeros(2)
        for axis in range(2):
            e = np.zeros(2)
            e[axis] = h
            grad[axis] = (potential(pos + e, nearest) - potential(pos - e, nearest)) / (2.0 * h)
        worst_rep = max(worst_rep, float(np.linalg.norm(force + grad) / np.linalg.norm(force)))

    graph = CommGraph.ring_with_leader(6)
    disp = DisplacementSet(build_formation(DEFAULT_PARAMS, TARGET, 6).planar_positions)
    ctrl_gains = ControlGains()
    h2 = 1e-5
    worst_disp = 0.0
    for _ in range(100):
        q = rng.uniform(-40.0, 40.0, size=(6, 2))
        state = SwarmState(positions=q, velocity_estimates=np.zeros((6, 2)))
        u = displacement_control(state.positions, graph, disp, ctrl_gains, 1.0)
        m = int(rng.integers(0, 6))

        def local_disp_cost(point):
            deviation = point - q - (disp.reference[m] - disp.reference)
            return float((adjacency(graph)[m] * (deviation**2).sum(axis=1)).sum())

        grad = np.zeros(2)
        for axis in range(2):
            e = np.zeros(2)
            e[axis] = h2
            grad[axis] = (local_disp_cost(q[m] + e) - local_disp_cost(q[m] - e)) / (2.0 * h2)
        expected = -0.5 * ctrl_gains.epsilon * grad
        denom = max(float(np.linalg.norm(u[m])), 1e-9)
        worst_disp = max(worst_disp, float(np.linalg.norm(u[m] - expected)) / denom)

    elapsed = time.perf_counter() - start
    ok = worst_rep <= 1e-6 and worst_disp <= 1e-6 and elapsed < 1.0
    report(
        9,
        "control laws equal central-difference gradients of their potentials",
        ok,
        f"worst rel err repulsion {worst_rep:.1e}, displacement {worst_disp:.1e}, "
        f"{elapsed:.2f}s < 1s",
    )


def test_criterion_10_cli_runs_are_byte_identical(tmp_path):
    """Same config and seed give byte-identical trace artifacts."""
    start = time.perf_counter()
    config = str(CONFIG_DIR / "corridor.yaml")
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    code_a = cli_main(["simulate", "--config", config, "--out", str(dir_a)])
    code_b = cli_main(["simulate", "--config", config, "--out", str(dir_b)])
    identical = all(
        (dir_a / name).read_bytes() == (dir_b / name).read_bytes()
        for name in ("trace.jsonl", "trace.csv", "summary.json")
    )
    steps = json.loads((dir_a / "summary.json").read_text())["steps"]
    elapsed = time.perf_counter() - start
    ok = code_a == 0 and code_b == 0 and identical and elapsed < 10.0
    report(
        10,
        "two simulate runs with the same config and seed are byte-identical",
        ok,
        f"{steps} steps each, {elapsed:.2f}s < 10s",
    )
