"""Config fuzzer: one field of the corridor config replaced, all three commands run in process.

Every input must end in exit 0, 2 or 3 with at most one stderr line and no
traceback, and a successful run must leave strict JSON and CSV artifacts.
Numpy's RuntimeWarning is raised as an error, so a warning line counts as a
failure too.
"""

import contextlib
import copy
import csv
import datetime
import io
import json
import math
import sys
import tempfile
import warnings
from pathlib import Path

import yaml
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from formsense.cli import main
from formsense.config import SCHEMA

ROOT = Path(__file__).resolve().parent.parent

# The corridor scenario with a short episode and a small sweep. Nothing
# bounds memory before it is allocated yet, so the fields that size the run
# stay small: the pool below holds no large integer for them.
BASE = yaml.safe_load((ROOT / "configs" / "corridor.yaml").read_text())
BASE["episode"]["max_steps"] = 20
BASE["sweep"] = {
    "altitudes_m": [10.0, 30.0],
    "benchmarks": [
        {"kind": "optimal"},
        {"kind": "line", "length_m": 40.0, "lateral_offset_m": 10.0},
        {"kind": "clustered_polygon", "radius_factor": 0.25},
        {"kind": "fixed_elevation", "elevation_deg": 30.0},
        {"kind": "random_cloud", "half_width_m": 30.0, "samples": 5},
    ],
}
SIZING = {
    ("formation", "agent_count"),
    ("episode", "max_steps"),
    ("sweep", "benchmarks", 4, "samples"),
}


def _paths(node, prefix=()):
    """Every mapping key and list index below ``node``, as key tuples."""
    if isinstance(node, dict):
        children = node.items()
    else:
        children = enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


# Every field the corridor config gives, and every SCHEMA field it leaves at its default.
PATHS = sorted(
    set(_paths(BASE)) | {(s, k) for s, table in SCHEMA.items() for k in table} | {("seed",)},
    key=repr,
)

# CSV columns that hold text; every other cell is empty or a finite number.
TEXT_COLUMNS = {"config_hash", "formation_kind"}



class Date(str):
    """A date-shaped scalar, written plain so that the loader reads it as a timestamp."""


class _Dumper(yaml.SafeDumper):
    pass


_Dumper.add_representer(Date, lambda dumper, text: dumper.represent_scalar("tag:yaml.org,2002:timestamp", text))

MAX = sys.float_info.max
POOL = [
    "abc", "1.0e+300", True, False, None,
    0, 1, -1, 0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
    1e300, -1e300, MAX, -MAX, float("nan"), float("inf"), float("-inf"),
    [], [1.0], [0.0, 0.0], [MAX, MAX], [1e300, -1e300], [[1.0, 2.0]], {}, {"x": 1.0},
    datetime.date(2001, 1, 1), Date("2020-13-45"), Date("2020-02-30"), Date("2001-01-01 25:00:00"),
]
HUGE_INTS = [2**63, 10**30]


def _replace(raw, path, value):
    node = raw
    for key in path[:-1]:
        node = node.setdefault(key, {}) if isinstance(node, dict) else node[key]
    node[path[-1]] = value


def _strict_json(text):
    def reject(constant):
        raise ValueError(f"non-strict JSON constant {constant}")

    return json.loads(text, parse_constant=reject)


def _check_artifacts(out):
    files = sorted(out.iterdir())
    assert files
    for path in files:
        text = path.read_text()
        if path.suffix == ".json":
            _strict_json(text)
        elif path.suffix == ".jsonl":
            for line in text.splitlines():
                _strict_json(line)
        else:
            assert path.suffix == ".csv"
            rows = list(csv.reader(io.StringIO(text, newline=""), strict=True))
            assert rows and all(len(row) == len(rows[0]) for row in rows)
            for row in rows[1:]:
                for column, cell in zip(rows[0], row):
                    # Empty marks a value strict JSON writes as null.
                    assert column in TEXT_COLUMNS or cell == "" or math.isfinite(float(cell)), (
                        path.name, column, cell,
                    )


def run_all(path, value):
    """Run optimize, simulate and sweep on the base config with ``path`` set to ``value``."""
    raw = copy.deepcopy(BASE)
    _replace(raw, path, value)
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "run.yaml"
        cfg.write_text(yaml.dump(raw, Dumper=_Dumper))
        for command in ("optimize", "simulate", "sweep"):
            out = Path(tmp) / command
            err = io.StringIO()
            with warnings.catch_warnings(), contextlib.redirect_stderr(err):
                warnings.simplefilter("error", RuntimeWarning)
                with contextlib.redirect_stdout(io.StringIO()):
                    code = main([command, "--config", str(cfg), "--out", str(out)])
            message = err.getvalue()
            assert code in (0, 2, 3), (command, code, message)
            assert message.count("\n") <= 1 and "Traceback" not in message, (command, message)
            assert (code == 0) == (message == ""), (command, code, message)
            if code == 0:
                _check_artifacts(out)
            elif out.exists():
                assert list(out.iterdir()) == [], (command, message)


@st.composite
def replacements(draw):
    path = draw(st.sampled_from(PATHS))
    pool = POOL if path in SIZING else POOL + HUGE_INTS
    return path, draw(st.sampled_from(pool))


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(replacements())
@example((("sensing", "kappa"), 5e-324))
@example((("sensing", "noise_floor_dbm"), 1.0e6))
@example((("world", "dt_s"), 1.0e300))
@example((("world", "obstacles"), []))
@example((("seed",), Date("2020-13-45")))
@example((("world", "target_m", 1), Date("2020-02-30")))
@example((("deployment",), {"center_m": [1.0e308, 0.0], "side_m": 1.0e308}))
def test_one_field_replaced_ends_in_a_documented_outcome(replacement):
    run_all(*replacement)
