"""The benchmark's probes must find every function they wrap, and its set-up must run.

``perfbench/run.py --self-check`` reports a metric that went missing, or a
set-up that fails, only after running every workload; these checks read the
probe table and call the worker's set-up directly.
"""

import sys
import types
from pathlib import Path

import pytest

from formsense.config import load_config

ROOT = Path(__file__).resolve().parent.parent


def load(name, **imports):
    """Import perfbench/<name>.py without writing a bytecode cache next to it.

    ``imports`` maps each perfbench module the file imports by its bare name to
    the loaded module; they are visible in ``sys.modules`` only while it runs.
    """
    path = ROOT / "perfbench" / f"{name}.py"
    module = types.ModuleType(f"perfbench_{name}")
    module.__file__ = str(path)
    sys.modules[module.__name__] = module  # dataclasses look their module up there
    sys.modules.update(imports)
    try:
        exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    finally:
        for key in imports:
            del sys.modules[key]
    return module


PROBES = load("probes")
WORKLOADS = load("workloads")
WORKER = load("worker", checks=load("checks"), probes=PROBES, workloads=WORKLOADS)


@pytest.mark.parametrize("probe", PROBES.PROBES, ids=lambda p: f"{p.module}.{p.target}")
def test_probe_target_exists(probe):
    assert PROBES._resolve(probe)[2] is not None


@pytest.mark.parametrize("name", WORKLOADS.NAMES)
def test_worker_set_up_runs(name, tmp_path):
    """The set-up calls RunConfig methods that formsense itself may no longer use."""
    WORKER.set_up(WORKLOADS.generate(name, 7, "tiny", tmp_path), load_config)
