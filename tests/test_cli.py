"""End-to-end CLI tests: artifacts, determinism, overrides, exit codes."""

import csv
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import formsense
from formsense import cli
from formsense import config as config_module
from formsense.cli import main
from formsense.config import build_config
from formsense.control import SwarmState
from formsense.world import EpisodeTrace
from oracle import rowwise_trace_files

CSV_HEADER = ["t", "crlb", "cost", "eta", "min_clearance", "min_pairwise", "config_hash", "seed"]
SWEEP_HEADER = ["altitude_m", "formation_kind", "crlb_m2", "bound_m2", "samples", "config_hash", "seed"]


def write_config(tmp_path, name="run.yaml", **sections):
    raw = {
        "sensing": {"altitude_m": 20.0},
        "formation": {"agent_count": 6},
        "world": {"target_m": [80.0, 90.0], "motion_noise_std_m": 0.01},
        "episode": {"max_steps": 25},
        "seed": 12345,
    }
    raw.update(sections)
    path = tmp_path / name
    path.write_text(yaml.safe_dump(raw))
    return path, raw


def child_env(**extra) -> dict:
    """The environment of a child process that imports this formsense, plus ``extra``."""
    src = str(Path(formsense.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path, **extra}


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestOptimize:
    def test_writes_report(self, tmp_path, capsys):
        cfg, _ = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["optimize", "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads((out / "optimize.json").read_text())
        assert report["agent_count"] == 6
        assert 45.0 < report["elevation_deg"] < 54.7357
        assert report["crlb_m2"] == pytest.approx(report["bound_m2"], rel=1e-9)
        assert len(report["positions_m"]) == 6
        assert len(report["config_hash"]) == 12
        assert report["seed"] == 12345
        assert report["target_m"] == [80.0, 90.0]
        captured = capsys.readouterr()
        assert "wrote" in captured.out
        assert str(out / "optimize.json") in captured.out

    def test_byte_identical_reruns(self, tmp_path):
        cfg, _ = write_config(tmp_path)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["optimize", "--config", str(cfg), "--out", str(a)]) == 0
        assert main(["optimize", "--config", str(cfg), "--out", str(b)]) == 0
        assert (a / "optimize.json").read_bytes() == (b / "optimize.json").read_bytes()

    def test_prior_offset_costs_accuracy(self, tmp_path):
        cfg, _ = write_config(
            tmp_path, formation={"agent_count": 6, "prior_target_offset_m": [5.0, -3.0]}
        )
        out = tmp_path / "out"
        assert main(["optimize", "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads((out / "optimize.json").read_text())
        assert report["planned_target_m"] == [85.0, 87.0]
        assert report["crlb_m2"] > report["bound_m2"] * 1.01

    def test_agent_over_the_true_target_has_no_crlb(self, tmp_path, capsys):
        world = {"target_m": [0.0, 0.0]}
        cfg, _ = write_config(tmp_path, "ring.yaml", world=world)
        assert main(["optimize", "--config", str(cfg), "--out", str(tmp_path / "ring")]) == 0
        radius = json.loads((tmp_path / "ring" / "optimize.json").read_text())["ring_radius_m"]
        # Planned around [-r, 0], agent 0 of the ring lands on the true target.
        formation = {"agent_count": 6, "prior_target_offset_m": [-radius, 0.0]}
        cfg, _ = write_config(tmp_path, world=world, formation=formation)
        out = tmp_path / "out"
        assert main(["optimize", "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads((out / "optimize.json").read_text())
        assert report["positions_m"][0] == [0.0, 0.0]
        assert report["crlb_m2"] is None
        assert capsys.readouterr().err == ""

    def test_report_follows_the_world(self, tmp_path):
        """The report reads the world's target and the formation's agents, the ones simulate uses."""
        formation = {"agent_count": 6, "prior_target_offset_m": [80.0, 90.0]}
        config = build_config({"formation": formation, "world": {"target_m": [0.0, 0.0]}})
        world = config.world
        report = json.loads(cli.cmd_optimize(config, tmp_path).read_text())
        assert report["planned_target_m"] == [80.0, 90.0]  # the ring is planned away from the target
        assert report["target_m"] == [0.0, 0.0]
        assert report["crlb_m2"] == formsense.crlb(config.formation.planar_positions, world.target, config.params)
        assert report["agent_count"] == len(report["positions_m"])


class TestSimulate:
    def test_trace_files_consistent(self, tmp_path):
        cfg, _ = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        lines = (out / "trace.jsonl").read_text().splitlines()
        rows = read_rows(out / "trace.csv")
        summary = json.loads((out / "summary.json").read_text())
        assert rows[0] == CSV_HEADER
        assert len(rows) == len(lines) + 1
        assert summary["steps"] == len(lines)
        assert summary["steps"] == 25  # noisy run never satisfies the stop rule
        assert summary["converged"] is False
        first = json.loads(lines[0])
        assert first["step"] == 0
        assert first["config_hash"] == summary["config_hash"]
        assert all(row[6] == summary["config_hash"] for row in rows[1:])
        assert all(row[7] == "12345" for row in rows[1:])
        assert "bound_m2" in summary

    def test_converges_from_embedding(self, tmp_path):
        base = build_config({"formation": {"agent_count": 6}})
        positions = base.build_formation().planar_positions.tolist()
        cfg, _ = write_config(
            tmp_path,
            world={"target_m": [80.0, 90.0], "motion_noise_std_m": 0.0},
            deployment={"kind": "explicit", "positions_m": positions},
            episode={"max_steps": 50},
        )
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["converged"] is True
        assert summary["steps"] == 1
        assert summary["safety_violations"] == []
        assert summary["final_crlb_m2"] == pytest.approx(summary["bound_m2"], rel=1e-9)
        assert len(read_rows(out / "trace.csv")) == 2

    def test_zero_step_budget_gives_empty_trace(self, tmp_path):
        cfg, _ = write_config(tmp_path, episode={"max_steps": 0})
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "trace.jsonl").read_text() == ""
        rows = read_rows(out / "trace.csv")
        assert rows == [CSV_HEADER]
        summary = json.loads((out / "summary.json").read_text())
        assert summary["steps"] == 0
        assert summary["converged"] is False
        assert summary["final_crlb_m2"] is None

    def test_byte_identical_reruns(self, tmp_path):
        cfg, _ = write_config(tmp_path)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", str(cfg), "--out", str(a)]) == 0
        assert main(["simulate", "--config", str(cfg), "--out", str(b)]) == 0
        for name in ("trace.jsonl", "trace.csv", "summary.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_seed_override_changes_noise(self, tmp_path):
        cfg, _ = write_config(tmp_path)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", str(cfg), "--out", str(a), "--seed", "1"]) == 0
        assert main(["simulate", "--config", str(cfg), "--out", str(b), "--seed", "2"]) == 0
        assert (a / "trace.csv").read_bytes() != (b / "trace.csv").read_bytes()
        assert json.loads((a / "summary.json").read_text())["seed"] == 1

    def test_noise_free_flag(self, tmp_path):
        cfg, _ = write_config(tmp_path)
        noisy, quiet = tmp_path / "noisy", tmp_path / "quiet"
        assert main(["simulate", "--config", str(cfg), "--out", str(noisy)]) == 0
        assert main(["simulate", "--config", str(cfg), "--out", str(quiet), "--noise-free"]) == 0
        a = json.loads((noisy / "summary.json").read_text())
        b = json.loads((quiet / "summary.json").read_text())
        assert a["config_hash"] != b["config_hash"]
        assert (noisy / "trace.csv").read_bytes() != (quiet / "trace.csv").read_bytes()


def hand_trace(columns: dict) -> EpisodeTrace:
    """An episode trace of the given columns; its final state is M agents at the origin."""
    agents = np.shape(columns["positions"])[1]
    return EpisodeTrace(columns, (), False, SwarmState(np.zeros((agents, 2)), np.zeros((agents, 2))))


def smooth_columns(steps: int, agents: int) -> dict:
    """Finite columns of ``steps`` rows with positions of ``agents`` agents."""
    rng = np.random.default_rng(3)
    columns = {name: rng.normal(size=steps) * 10.0 for name in EpisodeTrace.COLUMNS}
    columns["positions"] = rng.normal(size=(steps, agents, 2)) * 100.0
    return columns


# Floats whose text is easy to get wrong: signed zero, subnormal, smallest normal, exponent
# switches, a sum that is not its literal, and integer values.
AWKWARD = [-0.0, 0.0, 5e-324, 2.2250738585072014e-308, 1e16, 1e-5, 0.1 + 0.2, 1e300, 1.0, -3.0, 1e15, 123456789.0]
finite_values = st.one_of(st.sampled_from(AWKWARD), st.floats(allow_nan=False, allow_infinity=False))
marked_values = st.one_of(finite_values, st.sampled_from([float("nan"), float("inf"), float("-inf")]))
TAGGED = [build_config({"seed": seed}) for seed in (0, 12345, 2**63 - 1)]


@st.composite
def traces(draw):
    steps, agents = draw(st.integers(0, 30)), draw(st.integers(1, 8))
    columns = {}
    for name, none_if_nonfinite in EpisodeTrace.COLUMNS.items():
        size = steps * agents * 2 if name == "positions" else steps
        values = draw(st.lists(marked_values if none_if_nonfinite else finite_values, min_size=size, max_size=size))
        columns[name] = np.array(values, dtype=float)
    columns["positions"] = columns["positions"].reshape(steps, agents, 2)
    return hand_trace(columns)


class TestTraceWriter:
    @settings(max_examples=50, deadline=None)
    @given(trace=traces(), config=st.sampled_from(TAGGED))
    def test_writes_the_rowwise_writers_bytes(self, trace, config):
        with tempfile.TemporaryDirectory() as tmp:
            got, want = Path(tmp, "got"), Path(tmp, "want")
            got.mkdir(), want.mkdir()
            cli.write_trace(trace, config, got)
            rowwise_trace_files(trace, config, want)
            for name in ("trace.jsonl", "trace.csv"):
                assert (got / name).read_bytes() == (want / name).read_bytes(), name

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("name", ["eta", "time_s", "total_cost", "positions"])
    def test_non_finite_value_raises_before_any_file(self, tmp_path, name, value):
        columns = smooth_columns(5, 3)
        columns[name][2:4] = value
        if name == "positions":  # and in one coordinate of one agent a step earlier
            columns[name][1, 2, 1] = value
        with pytest.raises(ValueError) as exc:
            cli.write_trace(hand_trace(columns), build_config({}), tmp_path)
        step = 1 if name == "positions" else 2
        assert str(exc.value) == f"write_trace: {name} not finite at step {step}"
        assert list(tmp_path.iterdir()) == []

    def test_non_finite_value_exits_3_with_an_empty_directory(self, tmp_path, capsys, monkeypatch):
        columns = smooth_columns(5, 6)
        columns["eta"][2] = float("nan")
        monkeypatch.setattr(cli, "run_episode", lambda **kwargs: hand_trace(columns))
        cfg, _ = write_config(tmp_path)
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 3
        assert capsys.readouterr().err == "runtime error: write_trace: eta not finite at step 2\n"
        assert list(out.iterdir()) == []

    def test_memory_does_not_grow_with_the_positions_column(self, tmp_path):
        """The positions go out row by row: the writer never holds the column as Python lists.

        The rest of the peak depends on the step count alone: the scalar columns' texts and the
        128 KiB record buffer of ``csv.writer``, about 0.43 MB at 400 steps. That is 0.7 of the
        positions column at M=96, so the column is compared at M=192, and the growth from M=12.
        A writer that lists the whole column peaks at about 8 times its size.
        """
        config, peaks, sizes = build_config({}), [], []
        for agents in (12, 192):
            columns = smooth_columns(400, agents)
            trace = hand_trace(columns)
            tracemalloc.start()
            try:
                cli.write_trace(trace, config, tmp_path)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            sizes.append(columns["positions"].nbytes)
        assert peaks[1] < sizes[1] / 2, peaks
        assert peaks[1] - peaks[0] < (sizes[1] - sizes[0]) / 8, peaks


class TestSweep:
    def test_csv_structure(self, tmp_path):
        cfg, _ = write_config(
            tmp_path,
            sweep={
                "altitudes_m": [10.0, 20.0],
                "benchmarks": [
                    {"kind": "optimal"},
                    {"kind": "line"},
                    {"kind": "random_cloud", "samples": 5},
                ],
            },
        )
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        rows = read_rows(out / "sweep.csv")
        assert rows[0] == SWEEP_HEADER
        assert len(rows) == 1 + 2 * 3
        for row in rows[1:]:
            crlb, bound = float(row[2]), float(row[3])
            assert crlb >= bound * (1.0 - 1e-12)
            if row[1] == "optimal":
                assert crlb == pytest.approx(bound, rel=1e-9)

    def test_singular_benchmark_writes_an_empty_cell(self, tmp_path, capsys):
        cfg, _ = write_config(
            tmp_path,
            sweep={
                "altitudes_m": [20.0],
                "benchmarks": [{"kind": "optimal"}, {"kind": "line", "lateral_offset_m": 0.0}],
            },
        )
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        header, optimal, line = read_rows(out / "sweep.csv")
        assert header == SWEEP_HEADER
        assert optimal[1] == "optimal" and float(optimal[2]) > 0.0 and optimal[4] == "1"
        assert line[1:3] == ["line", ""] and line[4] == "0"


# Simulates the two goal-mode configs and names the OpenBLAS kernel that ran (None if not found).
GOAL_MODE_DIGESTS = f"""
import contextlib, ctypes, glob, hashlib, io, json, os, tempfile
from pathlib import Path
import numpy
from formsense.cli import main

def openblas_kernel():
    numpy_dir = os.path.dirname(numpy.__file__)
    for path in glob.glob(os.path.join(numpy_dir, os.pardir, "numpy.libs", "*openblas*")) + glob.glob(
        os.path.join(numpy_dir, ".dylibs", "*openblas*")
    ):
        library = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_corename64_", "openblas_get_corename64_", "openblas_get_corename"):
            if hasattr(library, name):
                getattr(library, name).restype = ctypes.c_char_p
                return getattr(library, name)().decode()
    return None

kernel, digests = openblas_kernel(), {{}}
with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()):
    for name in ("baseline", "corridor"):
        config = os.path.join({str(Path(__file__).resolve().parent.parent / "configs")!r}, name + ".yaml")
        assert main(["simulate", "--config", config, "--out", os.path.join(out, name)]) == 0
        for path in sorted(Path(out, name).iterdir()):
            digests[name + "/" + path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
"""


class TestGoldenArtifacts:
    def test_shipped_configs_write_the_golden_bytes(self, tmp_path):
        """optimize, simulate and sweep on the three shipped configs write the recorded bytes.

        ``golden_artifacts.sha256`` is ``sha256sum`` output relative to the output root. A
        change that moves an artifact on purpose updates the file and says why.
        """
        tests = Path(__file__).parent
        lines = (tests / "golden_artifacts.sha256").read_text().splitlines()
        want = {name: digest for digest, name in map(str.split, lines)}
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)  # a shipped run raises no numpy warning
            for config in ("baseline", "corridor", "sweep"):
                for command in ("optimize", "simulate", "sweep"):
                    config_path = tests.parent / "configs" / f"{config}.yaml"
                    out = tmp_path / f"{config}-{command}"
                    assert main([command, "--config", str(config_path), "--out", str(out)]) == 0
        got = {
            path.relative_to(tmp_path).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in tmp_path.rglob("*")
            if path.is_file()
        }
        moved = sorted(name for name in want.keys() | got.keys() if want.get(name) != got.get(name))
        assert not moved, f"artifacts differ from golden_artifacts.sha256: {moved}"

    @pytest.mark.parametrize("name", ["baseline", "corridor", "sweep"])
    def test_optimize_writes_the_same_bytes_without_libyaml(self, tmp_path, monkeypatch, name):
        """The pure-Python loader reads a shipped config to the same config hash and report."""
        config = str(Path(__file__).parent.parent / "configs" / f"{name}.yaml")
        assert main(["optimize", "--config", config, "--out", str(tmp_path / "libyaml")]) == 0
        monkeypatch.setattr(config_module, "_WITH_LIBYAML", False)
        assert main(["optimize", "--config", config, "--out", str(tmp_path / "python")]) == 0
        libyaml, python = ((tmp_path / out / "optimize.json").read_bytes() for out in ("libyaml", "python"))
        assert python == libyaml

    def test_goal_mode_traces_do_not_depend_on_the_blas_kernel(self):
        """A child on OpenBLAS's Haswell kernel writes the simulate bytes of this process's kernel."""
        namespace = {}
        exec(GOAL_MODE_DIGESTS, namespace)
        child = subprocess.run(
            [sys.executable, "-c", GOAL_MODE_DIGESTS + "\nprint(json.dumps([kernel, digests]))"],
            env=child_env(OPENBLAS_CORETYPE="Haswell"), capture_output=True, text=True, timeout=300, check=True,
        )
        kernel, digests = json.loads(child.stdout.splitlines()[-1])
        if kernel != "Haswell":
            pytest.skip(f"OpenBLAS did not switch to its Haswell kernel: it reports {kernel}")
        assert digests == namespace["digests"], f"default kernel {namespace['kernel']}"


INVALID_YAML = [
    ("seed: [1", "expected ',' or ']', but got '<stream end>' at line 1, column 9"),
    ("sensing:\n  altitude_m: 20.0\n kappa: 1.0\n",
     "expected <block end>, but found '<block mapping start>' at line 3, column 2"),
    ("sensing:\n\taltitude_m: 20.0\n", "found character '\\t' that cannot start any token at line 2, column 1"),
    ("seed: 7\noutput_dir: a\x07b\n", "unacceptable character #x0007: special characters are not allowed"),
    ("seed: \x00", "unacceptable character #x0000: special characters are not allowed"),
    ("seed: 2020-13-45", "month must be in 1..12"),
    ("seed: 2020-02-30", "day is out of range for month"),
    ("world: {target_m: [1, 2001-01-32]}", "day is out of range for month"),
]
INVALID_YAML_IDS = [
    "unclosed flow sequence", "bad nested mapping", "tab indent", "bell", "nul",
    "month 13", "february 30", "nested day 32",
]


class TestErrorPaths:
    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["optimize", "--config", str(tmp_path / "nope.yaml"), "--out", str(tmp_path)])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_invalid_field_value(self, tmp_path, capsys):
        cfg, _ = write_config(tmp_path, formation={"agent_count": 2})
        assert main(["optimize", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "config error" in err
        assert "agent_count" in err

    def test_unstable_gains(self, tmp_path, capsys):
        cfg, _ = write_config(tmp_path, gains={"epsilon": 0.2})
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "gains.epsilon" in capsys.readouterr().err

    def test_untyped_benchmark_field(self, tmp_path, capsys):
        bench = {"kind": "random_cloud", "samples": 2.5}
        cfg, _ = write_config(tmp_path, sweep={"benchmarks": [bench]})
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "sweep.benchmarks[0].samples" in capsys.readouterr().err

    def test_bad_file_seed_with_seed_flag(self, tmp_path, capsys):
        cfg, _ = write_config(tmp_path, seed="abc")
        args = ["optimize", "--config", str(cfg), "--out", str(tmp_path / "o"), "--seed", "4"]
        assert main(args) == 2
        assert "seed: expected an integer" in capsys.readouterr().err


    @pytest.mark.parametrize("altitude", [1.0e-90, 1.0e90])
    def test_altitude_out_of_range(self, tmp_path, capsys, altitude):
        cfg, _ = write_config(tmp_path, sensing={"altitude_m": altitude})
        for command in ("optimize", "simulate", "sweep"):
            assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
            assert "config error: sensing.altitude_m" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "sensing",
        [
            {"transmit_power_w": 1.0e300, "processing_gain": 1.0e300, "altitude_m": 20.0},
            {"transmit_power_w": 1.0e150, "processing_gain": 1.0e150, "altitude_m": 1.0e-3},
        ],
    )
    def test_snr_above_ceiling(self, tmp_path, capsys, sensing):
        cfg, _ = write_config(tmp_path, sensing=sensing, sweep={"altitudes_m": [20.0]})
        for command in ("optimize", "simulate", "sweep"):
            out = tmp_path / command
            assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
            assert "config error: sensing: SensingParams: SNR" in capsys.readouterr().err
            assert not out.exists()

    def test_snr_above_ceiling_at_a_sweep_altitude(self, tmp_path, capsys):
        # C = 1e97 m^4: C / h^4 is 6e91 at 20 m but 1e109 at 1 mm.
        sensing = {"transmit_power_w": 1.0e45, "processing_gain": 1.0e45, "altitude_m": 20.0}
        cfg, _ = write_config(tmp_path, sensing=sensing, sweep={"altitudes_m": [20.0, 1.0e-3]})
        for command in ("optimize", "simulate", "sweep"):
            assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
            assert "config error: sweep.altitudes_m[1]: SensingParams: SNR" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "sections, message",
        [
            ({"world": {"dt_s": 1.0e300}}, "world.dt_s: must lie in (0, 1000], got 1e+300"),
            ({"sensing": {"kappa": 5.0e-324}}, "sensing: SensingParams: SNR composite_snr_m4"),
            (
                {"sensing": {"noise_floor_dbm": 1.0e6}},
                "sensing.noise_floor_dbm: must lie in [-300, 300], got 1000000.0",
            ),
        ],
        ids=["huge_time_step", "underflowing_noise_power", "huge_noise_floor"],
    )
    def test_value_the_model_cannot_evaluate(self, tmp_path, capsys, sections, message):
        cfg, _ = write_config(tmp_path, **sections)
        for command in ("optimize", "simulate", "sweep"):
            out = tmp_path / command
            assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"config error: {message}") and err.count("\n") == 1
            assert not out.exists()

    @pytest.mark.parametrize(
        "sections",
        [
            {"world": {"target_m": [1.0e300, 0.0]}},
            {"formation": {"agent_count": 6, "prior_target_offset_m": [1.0e300, 0.0]}},
            {"formation": {"agent_count": 6, "initial_rotation_deg": 1.0e300}},
            {
                "world": {"target_m": [1.0e308, 0.0]},
                "formation": {"agent_count": 6, "prior_target_offset_m": [1.0e308, 0.0]},
            },
        ],
        ids=["far_target", "far_prior_offset", "huge_rotation", "infinite_plan_target"],
    )
    def test_ring_that_rounds_to_a_point(self, tmp_path, capsys, sections):
        cfg, _ = write_config(tmp_path, **sections)
        for command in ("optimize", "simulate", "sweep"):
            out = tmp_path / command
            assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("config error: formation: ") and err.count("\n") == 1
            assert not out.exists()

    @pytest.mark.parametrize(
        "sections",
        [
            {"guidance": {"mode": "constant", "velocity_mps": [1.0e308, 0.0]}},
            {"deployment": {"center_m": [1.0e308, 0.0], "side_m": 1.0e308}},
        ],
        ids=["reference_velocity", "deployment"],
    )
    def test_overflowing_reference_velocity(self, tmp_path, capsys, sections):
        cfg, _ = write_config(tmp_path, **sections)
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("runtime error: ") and "Traceback" not in err
        assert err.count("\n") == 1
        assert list(out.iterdir()) == []

    def test_diverged_run_exits_3_without_artifacts(self, tmp_path, capsys):
        gains = {"repulsion_gain": 1.0e300, "repulsion_cap": 1.0e300, "safety_radius_m": 1.0e6}
        obstacle = {"x_min": 5.0, "x_max": 33.0, "y_min": 51.0, "y_max": 79.0}
        world = {"target_m": [80.0, 90.0], "obstacles": [obstacle]}
        cfg, _ = write_config(tmp_path, gains=gains, world=world)
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "runtime error: run_episode: diverged at step 0" in err
        assert list(out.iterdir()) == []

    def test_config_not_utf8(self, tmp_path, capsys):
        cfg = tmp_path / "run.yaml"
        cfg.write_bytes(b"\xff\xfe")
        assert main(["optimize", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: config: cannot read {cfg}: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("text, problem", INVALID_YAML, ids=INVALID_YAML_IDS)
    def test_invalid_yaml_is_one_line(self, tmp_path, capsys, text, problem):
        """libyaml finds each error; the pure-Python loader names it."""
        cfg = tmp_path / "run.yaml"
        cfg.write_text(text)
        assert main(["optimize", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err == f"config error: config: invalid YAML in {cfg}: {problem}\n"

    @pytest.mark.parametrize("text, problem", INVALID_YAML, ids=INVALID_YAML_IDS)
    def test_invalid_yaml_is_one_line_without_libyaml(self, tmp_path, capsys, monkeypatch, text, problem):
        monkeypatch.setattr(config_module, "_WITH_LIBYAML", False)
        self.test_invalid_yaml_is_one_line(tmp_path, capsys, text, problem)

    @pytest.mark.parametrize(
        "sections, line",
        [
            ({"graph": {"topology": "ring", "adjacency": [[0, 1], [1, 0]]}},
             "graph.adjacency: only topology custom reads it, got topology ring"),
            ({"deployment": {"kind": "random_box", "positions_m": [[0.0, 0.0]] * 6}},
             "deployment.positions_m: only kind explicit reads it, got kind random_box"),
            ({"deployment": {"kind": "explicit", "positions_m": [[0.0, 0.0]] * 6, "center_m": [0.0, 0.0]}},
             "deployment.center_m: only kind random_box reads it, got kind explicit"),
            ({"deployment": {"kind": "explicit", "positions_m": [[0.0, 0.0]] * 6, "side_m": 50.0}},
             "deployment.side_m: only kind random_box reads it, got kind explicit"),
        ],
        ids=["adjacency with ring", "positions with random_box", "center with explicit", "side with explicit"],
    )
    def test_a_field_the_variant_ignores_is_rejected(self, tmp_path, capsys, sections, line):
        cfg, _ = write_config(tmp_path, **sections)
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"config error: {line}\n"

    def test_deeply_nested_yaml(self, tmp_path, capsys):
        cfg = tmp_path / "run.yaml"
        cfg.write_text("seed: " + "[" * 1000 + "1" + "]" * 1000 + "\n")
        assert main(["optimize", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: config: invalid YAML in {cfg}: ")
        assert err.count("\n") == 1

    def test_deeply_nested_yaml_without_libyaml(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(config_module, "_WITH_LIBYAML", False)
        self.test_deeply_nested_yaml(tmp_path, capsys)

    def test_yaml_too_deep_for_libyaml_exits_2(self, tmp_path):
        """libyaml's composer recurses in C: 100 000 brackets would end the process by a signal."""
        cfg = tmp_path / "run.yaml"
        cfg.write_text("seed: " + "[" * 100_000 + "1" + "]" * 100_000 + "\n")
        command = [sys.executable, "-m", "formsense", "optimize", "--config", str(cfg), "--out", str(tmp_path / "o")]
        proc = subprocess.run(command, capture_output=True, text=True, timeout=120, env=child_env())
        assert proc.returncode == 2  # a signal would read negative
        assert proc.stderr.startswith(f"config error: config: invalid YAML in {cfg}: ")
        assert proc.stderr.count("\n") == 1

    @pytest.mark.parametrize("name", ["load_config", "run_episode"])
    @pytest.mark.parametrize(
        "exc, line",
        [
            (MemoryError("Unable to allocate 3.2 GiB"),
             "runtime error: out of memory: Unable to allocate 3.2 GiB\n"),
            (MemoryError(), "runtime error: out of memory\n"),
        ],
    )
    def test_out_of_memory_exits_3(self, tmp_path, capsys, monkeypatch, name, exc, line):
        def exhausted(*args, **kwargs):
            raise exc

        monkeypatch.setattr(cli, name, exhausted)
        cfg, _ = write_config(tmp_path)
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
        assert capsys.readouterr().err == line

    def test_out_dir_below_a_file(self, tmp_path, capsys):
        cfg, _ = write_config(tmp_path)
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        out = blocker / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: output directory {out}: ")
        assert err.count("\n") == 1

    def test_unwritable_artifact_exits_3(self, tmp_path, capsys):
        cfg, _ = write_config(tmp_path, episode={"max_steps": 3})
        out = tmp_path / "o"
        (out / "trace.jsonl").mkdir(parents=True)
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("runtime error: ") and "trace.jsonl" in err
        assert err.count("\n") == 1

    def test_json_artifacts_reject_non_finite_values(self, tmp_path):
        with pytest.raises(ValueError):
            cli._write_json(tmp_path / "x.json", {"cost": float("nan")}, build_config({}))

    def test_obstacle_free_clearance_is_null(self, tmp_path):
        cfg, _ = write_config(tmp_path, episode={"max_steps": 3})
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        lines = (out / "trace.jsonl").read_text().splitlines()
        assert [json.loads(line)["min_clearance_m"] for line in lines] == [None] * 3
        # The CSV writes the same value as an empty cell, as it does a missing CRLB.
        rows = read_rows(out / "trace.csv")
        assert [row[CSV_HEADER.index("min_clearance")] for row in rows[1:]] == [""] * 3


class TestOutDirResolution:
    def test_env_var_used_without_flag(self, tmp_path, monkeypatch):
        cfg, _ = write_config(tmp_path)
        env_dir = tmp_path / "from_env"
        monkeypatch.setenv("FORMSENSE_OUT", str(env_dir))
        assert main(["optimize", "--config", str(cfg)]) == 0
        assert (env_dir / "optimize.json").exists()

    def test_flag_beats_env(self, tmp_path, monkeypatch):
        cfg, _ = write_config(tmp_path)
        env_dir, flag_dir = tmp_path / "from_env", tmp_path / "from_flag"
        monkeypatch.setenv("FORMSENSE_OUT", str(env_dir))
        assert main(["optimize", "--config", str(cfg), "--out", str(flag_dir)]) == 0
        assert (flag_dir / "optimize.json").exists()
        assert not env_dir.exists()

    def test_config_value_is_fallback(self, tmp_path, monkeypatch):
        monkeypatch.delenv("FORMSENSE_OUT", raising=False)
        target_dir = tmp_path / "from_config"
        cfg, _ = write_config(tmp_path, output_dir=str(target_dir))
        assert main(["optimize", "--config", str(cfg)]) == 0
        assert (target_dir / "optimize.json").exists()

    @pytest.mark.parametrize("value", [5, ""], ids=["number", "empty"])
    def test_config_value_checked_under_the_flag(self, tmp_path, capsys, value):
        cfg, _ = write_config(tmp_path, output_dir=value)
        assert main(["optimize", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "config error: output_dir: expected a nonempty string" in capsys.readouterr().err


class TestConsoleScript:
    def test_help_runs(self):
        exe = shutil.which("formsense")
        if exe is not None:
            command, env = [exe], None
        else:  # not installed: run the imported package as a module
            command, env = [sys.executable, "-m", "formsense"], child_env()
        proc = subprocess.run(
            [*command, "--help"], capture_output=True, text=True, timeout=60, env=env
        )
        assert proc.returncode == 0
        for sub in ("optimize", "simulate", "sweep"):
            assert sub in proc.stdout
