"""Checks on the artifacts of one benchmark operation.

Each check returns a list of problems; an operation with any problem counts
as failed. The checks hold the paper's invariants (no formation beats the
analytic CRLB bound, the optimal ring attains it, the optimal elevation lies
in [45, 54.74] degrees) and the artifact contract (strict JSON and CSV,
trace files that agree with the summary).
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from pathlib import Path

REL_TOL = 1e-9
# The closed-form optimal elevation lies between 45 degrees and arctan(sqrt 2).
ELEVATION_RANGE_DEG = (45.0, math.degrees(math.atan(math.sqrt(2.0))))


class ArtifactError(ValueError):
    pass


def _reject_constant(token: str):
    raise ArtifactError(f"non-finite JSON token {token}")


def strict_json(text: str):
    """Parse JSON that may not contain NaN or Infinity."""
    return json.loads(text, parse_constant=_reject_constant)


def strict_csv(text: str, text_columns: tuple[str, ...]) -> list[dict]:
    """Parse CSV whose cells outside ``text_columns`` are finite numbers or empty."""
    rows = list(csv.DictReader(io.StringIO(text, newline="")))
    for row in rows:
        if None in row or None in row.values():
            raise ArtifactError(f"CSV row with the wrong number of cells: {row}")
        for column, cell in row.items():
            if column in text_columns or cell == "":
                continue
            if not math.isfinite(float(cell)):
                raise ArtifactError(f"non-finite CSV cell {column}={cell!r}")
    return rows


def digests(out_dir: Path) -> dict[str, str]:
    """sha256 of every artifact, by file name."""
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out_dir.iterdir())
    }


def _below_bound(value: float, bound: float) -> bool:
    return value < bound * (1.0 - REL_TOL)


def check_simulate(out_dir: Path) -> tuple[list[str], dict]:
    """Problems in simulate artifacts, and the facts the metrics need.

    Every simulate workload is built to make the formation shrink, so eta
    must dip below 1 at some step.
    """
    problems = []
    summary = strict_json((out_dir / "summary.json").read_text())
    records = [strict_json(line) for line in (out_dir / "trace.jsonl").read_text().splitlines()]
    rows = strict_csv((out_dir / "trace.csv").read_text(), ("config_hash",))
    steps, bound = summary["steps"], summary["bound_m2"]
    if not len(records) == len(rows) == steps:
        problems.append(
            f"trace.jsonl has {len(records)} lines, trace.csv {len(rows)} rows, summary {steps} steps"
        )
    crlbs = [r["crlb_m2"] for r in records if r["crlb_m2"] is not None]
    crlbs += [float(row["crlb"]) for row in rows if row["crlb"] != ""]
    beaten = [c for c in crlbs if _below_bound(c, bound)]
    if beaten:
        problems.append(f"{len(beaten)} step CRLBs below the bound {bound!r}, e.g. {beaten[0]!r}")
    etas = [r["eta"] for r in records]
    if not (etas and min(etas) < 1.0):
        problems.append("eta never dropped below 1 in a scenario built to shrink the formation")
    final = summary["final_crlb_m2"]
    if final is None:
        problems.append("summary has no final CRLB")
    facts = {"steps": steps, "crlb_over_bound": None if final is None else final / bound}
    return problems, facts


def check_analysis(out_dir: Path) -> tuple[list[str], dict]:
    """Problems in optimize and sweep artifacts, and the facts the metrics need."""
    problems = []
    report = strict_json((out_dir / "optimize.json").read_text())
    crlb, bound = report["crlb_m2"], report["bound_m2"]
    if abs(crlb - bound) > REL_TOL * bound:
        problems.append(f"optimize crlb_m2 {crlb!r} differs from bound_m2 {bound!r}")
    low, high = ELEVATION_RANGE_DEG
    if not low - REL_TOL <= report["elevation_deg"] <= high + REL_TOL:
        problems.append(f"optimal elevation {report['elevation_deg']!r} deg outside [{low}, {high}]")
    rows = strict_csv((out_dir / "sweep.csv").read_text(), ("formation_kind", "config_hash"))
    for row in rows:
        if row["crlb_m2"] == "":
            problems.append(f"sweep row without a CRLB: {row}")
            continue
        value, row_bound = float(row["crlb_m2"]), float(row["bound_m2"])
        if _below_bound(value, row_bound):
            problems.append(f"sweep CRLB below the bound: {row}")
        if row["formation_kind"] == "optimal" and abs(value - row_bound) > REL_TOL * row_bound:
            problems.append(f"sweep optimal row misses the bound: {row}")
    facts = {
        "formations": sum(int(row["samples"]) for row in rows),
        "crlb_over_bound": crlb / bound,
    }
    return problems, facts
