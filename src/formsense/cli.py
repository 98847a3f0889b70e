"""Command-line entry points: optimize, simulate, sweep.

Every command reads one YAML config, writes deterministic artifacts into
the output directory, and tags each artifact with the config hash and seed
so a result file alone identifies the run that produced it. Exit codes:
0 success, 2 configuration problem or an output directory that cannot be
created, 3 runtime failure (a diverged run, a value strict JSON cannot hold,
an unwritable artifact, or another domain error). An undefined CRLB is none:
it is null in JSON and an empty CSV cell.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from pathlib import Path
from typing import Optional

from . import benchmarks
from .config import RunConfig, load_config
from .errors import ConfigError
from .formation import theoretical_lower_bound
from .world import EpisodeTrace, run_episode

OUTPUT_DIR_ENV = "FORMSENSE_OUT"


def _json_value(x):
    """JSON-safe scalar: non-finite floats become null."""
    if isinstance(x, float) and not math.isfinite(x):
        return None
    return x


def _csv_value(x) -> str:
    if x is None:
        return ""
    return repr(x) if isinstance(x, float) else str(x)


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n")


def cmd_optimize(config: RunConfig, out_dir: Path) -> Path:
    """Solve for the optimal formation and write a solution report.

    The formation is planned around the (possibly offset) prior target
    estimate; ``crlb_m2`` evaluates it against the true target, so with a
    nonzero prior offset the report quantifies the cost of planning on a
    wrong estimate.
    """
    formation = config.build_formation()
    bound = theoretical_lower_bound(config.params, config.agent_count)
    crlb = benchmarks.formation_crlb(
        formation.planar_positions, config.target, config.params
    )
    report = {
        "agent_count": config.agent_count,
        "altitude_m": config.params.altitude_m,
        "elevation_deg": math.degrees(formation.elevation_rad),
        "elevation_rad": formation.elevation_rad,
        "ring_radius_m": formation.ring_radius_m,
        "positions_m": formation.planar_positions.tolist(),
        "target_m": config.target.position.tolist(),
        "planned_target_m": config.plan_target.position.tolist(),
        "crlb_m2": _json_value(crlb),
        "bound_m2": bound,
        "config_hash": config.config_hash,
        "seed": config.seed,
    }
    path = out_dir / "optimize.json"
    _write_json(path, report)
    return path


def write_trace(trace: EpisodeTrace, config: RunConfig, out_dir: Path) -> tuple[Path, Path, Path]:
    """Serialize an episode: JSONL steps, CSV plot columns, summary JSON."""
    time_s, eta, cost = trace.time_s.tolist(), trace.eta.tolist(), trace.total_cost.tolist()
    # NaN marks a step without a CRLB and inf a world without obstacles: null in JSONL, empty in CSV.
    crlb = [_json_value(c) for c in trace.crlb_m2.tolist()]
    clearance = [_json_value(c) for c in trace.min_clearance_m.tolist()]
    pairwise = trace.min_pairwise_m.tolist()
    rows = zip(
        time_s,
        trace.positions.tolist(),
        eta,
        crlb,
        cost,
        clearance,
        pairwise,
        trace.max_control_m.tolist(),
        trace.displacement_error_m2.tolist(),
    )
    jsonl_path = out_dir / "trace.jsonl"
    with jsonl_path.open("w") as fh:  # line by line: the whole text would double the peak memory
        for k, (t, positions, e, c, total, clear, pair, control, error) in enumerate(rows):
            payload = {
                "step": k,
                "time_s": t,
                "positions_m": positions,
                "eta": e,
                "crlb_m2": c,
                "total_cost": total,
                "min_clearance_m": clear,
                "min_pairwise_m": pair,
                "max_control_m": control,
                "displacement_error_m2": error,
                "config_hash": config.config_hash,
                "seed": config.seed,
            }
            fh.write(json.dumps(payload, sort_keys=True, allow_nan=False) + "\n")

    csv_path = out_dir / "trace.csv"
    with csv_path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["t", "crlb", "cost", "eta", "min_clearance", "min_pairwise", "config_hash", "seed"]
        )
        for row in zip(time_s, crlb, cost, eta, clearance, pairwise):
            writer.writerow([_csv_value(x) for x in row] + [config.config_hash, config.seed])

    summary = trace.summary()
    summary["bound_m2"] = theoretical_lower_bound(config.params, config.agent_count)
    summary["config_hash"] = config.config_hash
    summary["seed"] = config.seed
    summary_path = out_dir / "summary.json"
    _write_json(summary_path, summary)
    return jsonl_path, csv_path, summary_path


def cmd_simulate(config: RunConfig, out_dir: Path) -> tuple[Path, Path, Path]:
    """Run one episode under the configured scenario and serialize the trace."""
    trace = run_episode(
        initial=config.initial_state(),
        world=config.world,
        graph=config.graph,
        disp=config.displacement_set(),
        gains=config.gains,
        params=config.params,
        max_steps=config.max_steps,
        stop_tolerance=config.stop_tolerance_m2,
        guidance=config.guidance,
    )
    return write_trace(trace, config, out_dir)


def cmd_sweep(config: RunConfig, out_dir: Path) -> Path:
    """Evaluate benchmark formations across altitudes and write one CSV."""
    rows = benchmarks.sweep_rows(
        specs=list(config.sweep_benchmarks),
        agent_count=config.agent_count,
        target=config.target,
        base_params=config.params,
        altitudes_m=list(config.sweep_altitudes_m),
        seed=config.seed,
    )
    path = out_dir / "sweep.csv"
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["altitude_m", "formation_kind", "crlb_m2", "bound_m2", "samples", "config_hash", "seed"]
        )
        for row in rows:
            writer.writerow(
                [
                    _csv_value(row["altitude_m"]),
                    row["formation_kind"],
                    _csv_value(row["crlb_m2"]),
                    _csv_value(row["bound_m2"]),
                    row["samples"],
                    config.config_hash,
                    config.seed,
                ]
            )
    return path


def _resolve_out_dir(flag_value: Optional[str], config: RunConfig) -> Path:
    if flag_value:
        return Path(flag_value)
    env_value = os.environ.get(OUTPUT_DIR_ENV)
    if env_value:
        return Path(env_value)
    return config.output_dir


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="formsense",
        description=(
            "Optimal UAV formation design for range-based target localization, "
            "and simulation of the control law that reaches it."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    descriptions = {
        "optimize": "solve for the CRLB-optimal formation geometry",
        "simulate": "run one formation-control episode and record its trace",
        "sweep": "tabulate CRLB vs altitude for benchmark formations",
    }
    for name, help_text in descriptions.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to the YAML run configuration")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument(
            "--out", default=None, help=f"output directory (overrides ${OUTPUT_DIR_ENV} and config)"
        )
        p.add_argument(
            "--noise-free", action="store_true", help="force motion noise to zero"
        )
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config, seed=args.seed, noise_free=args.noise_free)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    out_dir = _resolve_out_dir(args.out, config)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"config error: output directory {out_dir}: cannot create it: {exc}", file=sys.stderr)
        return 2
    try:
        if args.command == "optimize":
            paths = [cmd_optimize(config, out_dir)]
        elif args.command == "simulate":
            paths = list(cmd_simulate(config, out_dir))
        else:
            paths = [cmd_sweep(config, out_dir)]
    except (ValueError, OSError) as exc:  # a diverged run, an unwritable artifact
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3
    for path in paths:
        print(f"wrote {path}")
    return 0
