"""formsense benchmark: end-to-end metrics per workload, or per-layer metrics from a traced run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload corridor --seed 7 --seconds 20 --trace 0
    python3 perfbench/run.py --self-check

Each run starts perfbench/worker.py in a fresh child process with one
thread per numeric library, so runs do not share interpreter state and the
child's peak RSS belongs to this workload alone. The report is printed
first; the last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. ``--self-check`` runs every
workload, traced and untraced, at a tiny size and checks the whole path.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
# The worker stops starting operations after --seconds; this is its margin
# to finish the last one and to check it.
CHILD_GRACE_S = 120


def metric_units(trace: int) -> dict:
    """Name -> unit of the metrics a run reports, as BENCHMARK.json lists them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _child_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


def run_workload(workload: str, seed: int, seconds: float, trace: int, size: str):
    """Run the worker once; returns (result, report) or None when it fails."""
    work = WORK / f"{workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    argv = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--size", size, "--work", str(work),
    ]
    timeout = seconds + CHILD_GRACE_S
    try:
        child = subprocess.run(argv, stdout=subprocess.PIPE, text=True, env=_child_env(), cwd=ROOT, timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"{workload}: worker exceeded {timeout:g} s and was stopped", file=sys.stderr)
        return None
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = child.stdout.strip().splitlines()
    if child.returncode != 0 or not lines:
        print(f"{workload}: worker exited with code {child.returncode}", file=sys.stderr)
        return None
    payload = json.loads(lines[-1])
    result, values, report = payload["result"], payload["values"], payload["report"]
    if not trace:
        # The worker is the only child this process has waited for.
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    result["metrics"] = {
        name: {"value": values[name], "unit": unit} for name, unit in metric_units(trace).items() if name in values
    }
    return result, report


def print_report(result: dict, report: dict, trace: int, seed: int) -> None:
    wl = report["workload"]
    shape = f"M={wl['agents']}, K={wl['obstacles']}"
    if wl["steps"]:
        shape += f", {wl['topology']}, {wl['steps']} steps"
    print(f"formsense benchmark: {wl['name']} ({shape}), seed {seed}, size {wl['size']}")
    metrics = result["metrics"]
    for name, metric in metrics.items():
        label = name
        if name == "work_per_s":
            label = f"{name} ({report['work_unit']}_per_s)"
        note = ""
        if name in ("run_s", "setup_s") and report.get(name):
            extra = {k: f"{v:.4g}" for k, v in report[name].items() if k not in ("median",)}
            note = "  " + " ".join(f"{k}={v}" for k, v in extra.items())
        print(f"  {label:32s} {metric['value']:>14.6g} {metric['unit']}{note}")
    if not trace:
        print(
            f"  times above are scaled by the speed factor {report['speed']:.4g} (median);"
            f" unscaled run_s {report['wall_run_s']:.6g} s"
        )
    attempted, failed = result["attempted"], result["failed"]
    print(f"  {'failed_frac':32s} {failed / attempted:>14.6g} ratio  ({failed} of {attempted} operations)")
    if trace:
        print(f"  traced run {report['traced_run_s']:.4g} s; inclusive share of it per layer:")
        for layer, share in sorted(report["total_share"].items(), key=lambda kv: -kv[1]):
            print(f"    {layer:28s} {100.0 * share:6.1f}%")
        for layer, per_step in report["per_step"].items():
            print(f"    {layer + ' calls per step':40s} {per_step:g}")
        if report["missing_probes"]:
            print(f"  probes with no target (metrics left out): {', '.join(report['missing_probes'])}")


def self_check() -> int:
    """Run every workload and traced run at the tiny size, and the failure paths."""
    problems = []
    for workload in workloads.NAMES:
        for trace in (0, 1):
            outcome = run_workload(workload, 7, 1, trace, "tiny")
            if outcome is None:
                problems.append(f"{workload} trace={trace}: no result")
                continue
            result, report = outcome
            print_report(result, report, trace, 7)
            if not result["correct"] or result["failed"]:
                problems.append(f"{workload} trace={trace}: failed operations")
            missing = set(metric_units(trace)) - set(result["metrics"])
            if missing:
                problems.append(f"{workload} trace={trace}: metrics {sorted(missing)} not reported")

    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(ROOT / "src"))
    import probes

    tracer = probes.Tracer([probes.Probe("formsense.world", "no_such_function", "gone")])
    with tracer.installed():
        pass
    if "gone" in tracer.layers or tracer.missing != ["formsense.world.no_such_function"]:
        problems.append("a probe with no target was not skipped")

    bare = WORK / f"bare-{os.getpid()}"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    child = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "corridor", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=60,
    )
    shutil.rmtree(bare, ignore_errors=True)
    if child.returncode == 0 or child.stdout.strip():
        problems.append("a checkout without the program did not fail cleanly")

    for problem in problems:
        print(f"self-check: {problem}", file=sys.stderr)
    print("self-check:", "FAILED" if problems else "passed")
    return 1 if problems else 0


def main() -> int:
    # Turn SIGTERM into SystemExit, so subprocess.run kills and waits for the
    # worker and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()

    if not (ROOT / "src" / "formsense" / "__init__.py").is_file():
        print(f"no formsense sources under {ROOT / 'src'}; run from a checkout of the repository", file=sys.stderr)
        return 2
    if args.self_check:
        return self_check()
    if args.workload is None:
        parser.error("--workload is required")
    outcome = run_workload(args.workload, args.seed, args.seconds, args.trace, "full")
    if outcome is None:
        return 1
    result, report = outcome
    print_report(result, report, args.trace, args.seed)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
