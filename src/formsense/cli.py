"""Command-line entry points: optimize, simulate, sweep.

Every command reads one YAML config, writes deterministic artifacts into
the output directory, and tags each artifact with the config hash and seed
so a result file alone identifies the run that produced it. Exit codes:
0 success, 2 configuration problem or an output directory that cannot be
created, 3 runtime failure (a diverged run, a value strict JSON cannot hold,
an unwritable artifact, running out of memory, or another domain error). An
undefined CRLB is none: it is null in JSON and an empty CSV cell.
"""

from __future__ import annotations

import argparse
import csv
import itertools
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
# trace.csv's short headers of the first six EpisodeTrace.COLUMNS.
_TRACE_CSV_HEADER = ["t", "crlb", "cost", "eta", "min_clearance", "min_pairwise"]


def _json_value(x):
    """JSON-safe scalar: non-finite floats become null."""
    if isinstance(x, float) and not math.isfinite(x):
        return None
    return x


def _tags(config: RunConfig) -> dict:
    return {"config_hash": config.config_hash, "seed": config.seed}


def _write_json(path: Path, payload: dict, config: RunConfig) -> Path:
    text = json.dumps({**payload, **_tags(config)}, sort_keys=True, indent=2, allow_nan=False)
    path.write_text(text + "\n")
    return path


def _write_csv(path: Path, header: list[str], rows, config: RunConfig) -> Path:
    tags = _tags(config)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([*header, *tags])
        writer.writerows([*row, *tags.values()] for row in rows)  # None as an empty field, a float by repr
    return path


def cmd_optimize(config: RunConfig, out_dir: Path) -> Path:
    """Solve for the optimal formation and write a solution report.

    The formation is planned around the (possibly offset) prior target
    estimate; ``crlb_m2`` evaluates it against the true target, so with a
    nonzero prior offset the report quantifies the cost of planning on a
    wrong estimate.
    """
    formation, target = config.formation, config.world.target
    crlb = benchmarks.formation_crlb(formation.planar_positions, target, config.params)
    report = {
        "agent_count": formation.agent_count,
        "altitude_m": config.params.altitude_m,
        "elevation_deg": math.degrees(formation.elevation_rad),
        "elevation_rad": formation.elevation_rad,
        "ring_radius_m": formation.ring_radius_m,
        "positions_m": formation.planar_positions.tolist(),
        "target_m": target.position.tolist(),
        "planned_target_m": formation.center.tolist(),
        "crlb_m2": _json_value(crlb),
        "bound_m2": theoretical_lower_bound(config.params, formation.agent_count),
    }
    return _write_json(out_dir / "optimize.json", report, config)


def write_trace(trace: EpisodeTrace, config: RunConfig, out_dir: Path) -> tuple[Path, Path, Path]:
    """Serialize an episode: JSONL steps, CSV plot columns, summary JSON."""
    columns = {}
    for name, none_if_nonfinite in EpisodeTrace.COLUMNS.items():
        values = getattr(trace, name).tolist()
        columns["positions_m" if name == "positions" else name] = (
            [_json_value(x) for x in values] if none_if_nonfinite else values
        )
    tags = _tags(config)
    keys = ["step", *columns, *tags]
    rows = zip(itertools.count(), *columns.values(), *map(itertools.repeat, tags.values()))
    jsonl_path = out_dir / "trace.jsonl"
    with jsonl_path.open("w") as fh:  # line by line: the whole text would double the peak memory
        for row in rows:
            fh.write(json.dumps(dict(zip(keys, row)), sort_keys=True, allow_nan=False) + "\n")
    plot = zip(*list(columns.values())[: len(_TRACE_CSV_HEADER)])
    csv_path = _write_csv(out_dir / "trace.csv", _TRACE_CSV_HEADER, plot, config)
    summary = trace.summary()
    summary["bound_m2"] = theoretical_lower_bound(config.params, config.formation.agent_count)
    return jsonl_path, csv_path, _write_json(out_dir / "summary.json", summary, config)


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
        agent_count=config.formation.agent_count,
        target=config.world.target,
        base_params=config.params,
        altitudes_m=list(config.sweep_altitudes_m),
        seed=config.seed,
    )
    header = ["altitude_m", "formation_kind", "crlb_m2", "bound_m2", "samples"]
    return _write_csv(out_dir / "sweep.csv", header, ([row[h] for h in header] for row in rows), config)


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
        p.add_argument("--noise-free", action="store_true", help="force motion noise to zero")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _run(args)
    except MemoryError as exc:  # a config too large for this machine, while loading or running
        detail = f": {exc}" if str(exc) else ""
        print(f"runtime error: out of memory{detail}", file=sys.stderr)
        return 3


def _run(args: argparse.Namespace) -> int:
    try:
        config = load_config(args.config, seed=args.seed, noise_free=args.noise_free)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    out_dir = Path(args.out or os.environ.get(OUTPUT_DIR_ENV) or config.output_dir)
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
