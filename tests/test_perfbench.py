"""The benchmark's probes must find every function they wrap.

``perfbench/run.py --self-check`` reports a metric that went missing only
after running every workload; this check reads the probe table directly.
"""

import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def load_probes():
    """Import perfbench/probes.py without writing a bytecode cache next to it."""
    path = ROOT / "perfbench" / "probes.py"
    module = types.ModuleType("perfbench_probes")
    sys.modules[module.__name__] = module  # dataclasses look their module up there
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


PROBES = load_probes()


@pytest.mark.parametrize("probe", PROBES.PROBES, ids=lambda p: f"{p.module}.{p.target}")
def test_probe_target_exists(probe):
    assert PROBES._resolve(probe)[2] is not None
