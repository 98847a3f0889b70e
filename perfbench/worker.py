"""One run of one benchmark workload, in its own process.

Started by run.py, never imported. It generates the workload's config,
runs one unmeasured warm-up operation, then repeats the operation through
``formsense.cli.main`` until ``--seconds`` have passed, checking the
artifacts of every operation. With ``--trace 1`` it alternates untraced and
traced operations, so the tracing overhead is measured side by side. It
prints one JSON line: ``{"result": ..., "values": ..., "report": ...}``,
where ``values`` maps metric names to numbers; run.py keeps the ones
BENCHMARK.json lists and takes their units from there.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import gc
import io
import json
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import checks
import probes
import workloads

ROOT = Path(__file__).resolve().parent.parent
MIN_OPS = 3
MIN_TRACED_PAIRS = 2
# After every untraced operation, set-up and a reference computation are
# each timed as one batch of repetitions lasting this share of the
# operation's time, and at least MIN_BATCH_REPS repetitions. One repetition
# takes milliseconds, short enough to land wholly in a fast or a slow
# stretch of a shared CPU, so single times are bimodal; a batch mean is not.
BATCH_SHARE = 0.2
MIN_BATCH_REPS = 5
# The vCPUs of a shared host change speed by up to 50 % for tens of seconds
# at a time, which moves every time of a run together. Each time of an
# operation is therefore reported scaled to the speed at which the
# reference computation, timed right after it, takes REFERENCE_S:
# time * REFERENCE_S / reference time. The reference uses no formsense code,
# so a change to the program cannot move it.
REFERENCE_S = 4.0e-3
_REFERENCE_POINTS = np.random.default_rng(0).random((256, 2))


class Operation:
    """The outcome of one run of a workload's commands."""

    def __init__(self, wall_s, problems, facts=None, tracer=None, bytes_written=0):
        self.wall_s = wall_s
        self.speed = None  # REFERENCE_S over the reference time measured after it
        self.problems = problems
        self.facts = facts or {}
        self.bytes_written = bytes_written
        self.calls, self.self_s, self.total_s = {}, {}, {}
        self.counts = {}
        if tracer is not None:
            self.calls, self.self_s, self.total_s = tracer.summary()
            self.counts = dict(tracer.counts)


class Runner:
    def __init__(self, cli, workload, work_dir: Path):
        self.cli = cli
        self.workload = workload
        self.out_dir = work_dir / "out"
        self.reference_digests = None
        self.operations: list[Operation] = []

    def run(self, tracer: probes.Tracer) -> Operation:
        """Run the workload's commands once under ``tracer`` and check the artifacts."""
        wl = self.workload
        shutil.rmtree(self.out_dir, ignore_errors=True)
        tracer.reset()
        gc.collect()  # start every operation with the same collector state
        wall = None
        try:
            with tracer.installed(), contextlib.redirect_stdout(io.StringIO()):
                start = time.perf_counter()
                codes = [self.cli.main([*argv, "--out", str(self.out_dir)]) for argv in wl.commands]
                wall = time.perf_counter() - start
            if any(codes):
                raise RuntimeError(f"exit codes {codes}")
            if wl.kind == "simulate":
                problems, facts = checks.check_simulate(self.out_dir)
            else:
                problems, facts = checks.check_analysis(self.out_dir)
            digests = checks.digests(self.out_dir)
            if self.reference_digests is None:
                self.reference_digests = digests
            elif digests != self.reference_digests:
                problems.append("artifacts differ from an earlier same-seed operation")
            written = sum(path.stat().st_size for path in self.out_dir.iterdir())
            op = Operation(wall, problems, facts, tracer, written)
        except (Exception, SystemExit):  # any failure of the program is a failed operation
            op = Operation(wall, [traceback.format_exc()])
        for problem in op.problems:
            print(f"{wl.name}: failed operation: {problem}", file=sys.stderr)
        self.operations.append(op)
        return op


def work_rate(op: Operation, kind: str):
    """Steps per second in run_episode, or formations per second in sweep_rows."""
    layer, units = ("world.episode", "steps") if kind == "simulate" else ("benchmarks.sweep", "formations")
    seconds = op.total_s.get(layer)
    if not seconds or op.facts.get(units) is None:
        return None
    return op.facts[units] / seconds


def percentile_summary(values: list[float]) -> dict:
    """Median, and the highest percentile with at least 10 samples above it."""
    ordered = sorted(values)
    n = len(ordered)
    summary = {"n": n, "median": statistics.median(ordered)}
    if n > 10:
        rank = n - 10  # 1-based rank of the value with 10 samples beyond it
        summary[f"p{100.0 * rank / n:.0f}"] = ordered[rank - 1]
    return summary


def batch_mean_s(fn, budget_s: float) -> float:
    """Mean time of one call of ``fn`` over a batch of at least ``budget_s`` seconds."""
    reps = 0
    gc.collect()
    start = time.perf_counter()
    while reps < MIN_BATCH_REPS or time.perf_counter() - start < budget_s:
        fn()
        reps += 1
    return (time.perf_counter() - start) / reps


def reference_work() -> float:
    """A fixed mix of small-array numpy and pure-Python work.

    The pairwise distances are taken 32 rows at a time, so the arrays stay
    small (128 KiB) and add next to nothing to the worker's peak RSS.
    """
    total = 0.0
    for row in range(0, len(_REFERENCE_POINTS), 32):
        offsets = _REFERENCE_POINTS[row : row + 32, None, :] - _REFERENCE_POINTS[None, :, :]
        total += float(np.sqrt((offsets * offsets).sum(axis=-1)).sum())
    buckets: dict[int, float] = {}
    for i in range(6000):
        buckets[i % 61] = buckets.get(i % 61, 0.0) + (i * 0.5) ** 0.5
    return total + sum(buckets.values())


def set_up(workload, load_config) -> None:
    """Config path to the first step (simulate) or to the parsed config (analysis)."""
    config = load_config(workload.config_path, seed=workload.seed)
    if workload.kind == "simulate":
        formation = config.build_formation()
        config.displacement_set(formation)
        config.initial_state()


def end_to_end(kind: str, good: list[Operation], setup: list[float]) -> tuple[dict, dict]:
    """Time metrics scaled by each operation's speed factor (see REFERENCE_S)."""
    rates = [r / op.speed for op in good if (r := work_rate(op, kind)) is not None]
    run_s = [op.wall_s * op.speed for op in good]
    metrics = {"run_s": statistics.median(run_s)}
    if setup:
        metrics["setup_s"] = statistics.median(setup)
    if rates:
        metrics["work_per_s"] = statistics.median(rates)
    ratio = good[0].facts.get("crlb_over_bound")
    if ratio is not None:
        metrics["crlb_over_bound"] = ratio
    report = {
        "run_s": percentile_summary(run_s),
        "setup_s": percentile_summary(setup) if setup else None,
        "wall_run_s": statistics.median(op.wall_s for op in good),
        "speed": statistics.median(op.speed for op in good),
        "work_unit": "steps" if kind == "simulate" else "formations",
    }
    return metrics, report


def per_layer(tracer: probes.Tracer, plain: list[Operation], traced: list[Operation]) -> tuple[dict, dict]:
    """Calls and self time of every span layer, and every counter, of the installed probes."""
    metrics = {}
    first = traced[0]
    span_layers = {p.layer for p in tracer.probes if not p.count_only}
    for layer in tracer.layers:
        if layer in span_layers:
            metrics[f"{layer}.calls"] = first.calls.get(layer, 0)
            metrics[f"{layer}.self_s"] = statistics.median(op.self_s.get(layer, 0.0) for op in traced)
        else:
            metrics[layer] = first.counts.get(layer, 0)
    metrics["cli.bytes_written"] = first.bytes_written
    traced_run = statistics.median(op.wall_s for op in traced)
    metrics["trace.overhead_frac"] = traced_run / statistics.median(op.wall_s for op in plain) - 1.0
    metrics["trace.coverage"] = statistics.median(sum(op.self_s.values()) / op.wall_s for op in traced)

    # Where the time goes, as shares of the traced run, for comparison with a profile.
    steps = first.facts.get("steps")
    report = {
        "traced_run_s": traced_run,
        "total_share": {
            layer: statistics.median(op.total_s.get(layer, 0.0) / op.wall_s for op in traced)
            for layer in sorted(tracer.layers)
            if layer in first.total_s
        },
        "per_step": {
            layer: first.calls.get(layer, 0) / steps
            for layer in ("control.input", "world.clearance", "sensing.crlb", "control.local_cost")
            if steps and layer in tracer.layers
        },
        "missing_probes": tracer.missing,
    }
    return metrics, report


def write_spans(tracer: probes.Tracer, path: Path) -> None:
    """Keep the last traced operation's spans for inspection."""
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "layer", "start_s", "end_s", "parent"])
        origin = tracer.spans[0][1] if tracer.spans else 0.0
        for index, (layer, start, end, parent) in enumerate(tracer.spans):
            writer.writerow([index, layer, f"{start - origin:.9f}", f"{end - origin:.9f}", parent])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=workloads.SIZES, default="full")
    parser.add_argument("--work", type=Path, required=True)
    args = parser.parse_args()

    import formsense
    from formsense import cli
    from formsense.config import load_config

    src = (ROOT / "src").resolve()
    if src not in Path(formsense.__file__).resolve().parents:
        print(f"formsense imported from {formsense.__file__}, not from {src}", file=sys.stderr)
        return 2

    workload = workloads.generate(args.workload, args.seed, args.size, args.work)
    runner = Runner(cli, workload, args.work)
    core = probes.Tracer([p for p in probes.PROBES if p.layer in probes.CORE_LAYERS])
    full = probes.Tracer()

    runner.run(core)  # warm-up, and the reference artifacts for the byte-identity check
    setup: list[float] = []
    plain, traced = [], []
    deadline = time.perf_counter() + args.seconds
    while True:
        plain.append(runner.run(core))
        if not args.trace:
            # Interleaved with the operations so all three see the same machine speed.
            op = plain[-1]
            budget_s = BATCH_SHARE * (op.wall_s or 0.0)
            op.speed = REFERENCE_S / batch_mean_s(reference_work, budget_s)
            try:
                setup.append(batch_mean_s(lambda: set_up(workload, load_config), budget_s) * op.speed)
            except Exception:
                runner.operations.append(Operation(None, [traceback.format_exc()]))
        else:
            op = runner.run(full)
            if traced and not op.problems and (op.calls, op.counts) != (traced[0].calls, traced[0].counts):
                op.problems.append("traced call counts differ from the first traced operation")
            traced.append(op)
        enough = len(plain) >= (MIN_TRACED_PAIRS if args.trace else MIN_OPS)
        if enough and time.perf_counter() >= deadline:
            break

    failed = sum(1 for op in runner.operations if op.problems)
    good_plain = [op for op in plain if not op.problems]
    good_traced = [op for op in traced if not op.problems]
    if not good_plain or (args.trace and not good_traced):
        print(f"{workload.name}: no operation succeeded", file=sys.stderr)
        return 1
    if args.trace:
        metrics, report = per_layer(full, good_plain, good_traced)
        write_spans(full, ROOT / ".perfbench_work" / f"spans-{workload.name}.csv")
    else:
        metrics, report = end_to_end(workload.kind, good_plain, setup)
    report["workload"] = {
        "name": workload.name,
        "agents": workload.agents,
        "obstacles": workload.obstacles,
        "topology": workload.topology,
        "steps": workload.steps,
        "size": args.size,
    }
    result = {"correct": failed == 0, "attempted": len(runner.operations), "failed": failed}
    print(json.dumps({"result": result, "values": metrics, "report": report}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
