"""Spans around formsense's public functions, installed from outside the package.

A probe replaces one function at the name its caller looks it up under: a
module global such as ``formsense.world.control_input``, or a method on its
class such as ``World.min_clearance``. Each call then records a span
(layer, start, end, parent span) in memory; :meth:`Tracer.installed` puts
the original functions back when it exits. A probe whose target no longer
exists is skipped, and the metrics of its layer are left out of the report
instead of failing the run or showing partial counts, so a later refactor
that removes a function only removes its layer's metrics.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Optional


@dataclass(frozen=True)
class Probe:
    module: str
    target: str  # attribute of the module, or "Class.method"
    layer: str
    count_only: bool = False  # count calls without recording spans


def _rect_tests(args, result, exc) -> int:
    return len(getattr(args[0], "obstacles", ()))


def _repulsion_active(args, result, exc) -> int:
    return int(exc is None and any(float(v) != 0.0 for v in result))


def _crlb_singular(args, result, exc) -> int:
    # run_episode turns these two exceptions into a missing CRLB for the step;
    # the sweep skips the draw. Either way the evaluation was wasted.
    return int(type(exc).__name__ in ("SingularGeometryError", "ValueError"))


# Extra counter fed by a layer's calls: its name, and the amount each call adds
# given the call's arguments, result and exception (None when it returned).
HOOKS: dict[str, tuple[str, Callable]] = {
    "world.clearance": ("world.clearance.rect_tests", _rect_tests),
    "control.repulsion": ("control.repulsion.active", _repulsion_active),
    "sensing.crlb": ("sensing.crlb.singular", _crlb_singular),
}

PROBES = (
    Probe("formsense.cli", "load_config", "config.load"),
    Probe("formsense.config", "build_formation", "formation.build"),
    Probe("formsense.benchmarks", "build_formation", "formation.build"),
    Probe("formsense.world", "crlb_of_positions", "sensing.crlb"),
    Probe("formsense.benchmarks", "formation_crlb", "sensing.crlb"),
    Probe("formsense.sensing", "AgentPose.from_position", "sensing.poses_built", count_only=True),
    Probe("formsense.cli", "run_episode", "world.episode"),
    Probe("formsense.world", "step", "world.step"),
    Probe("formsense.world", "World.min_clearance", "world.clearance"),
    Probe("formsense.world", "displacement_error", "world.record"),
    Probe("formsense.world", "min_pairwise_distance", "world.record"),
    Probe("formsense.world", "consensus_velocity_step", "control.consensus"),
    Probe("formsense.world", "control_input", "control.input"),
    Probe("formsense.control", "displacement_control", "control.displacement"),
    Probe("formsense.control", "repulsion", "control.repulsion"),
    Probe("formsense.world", "local_cost", "control.local_cost"),
    Probe("formsense.benchmarks", "sweep_rows", "benchmarks.sweep"),
    # cmd_sweep's own time, once sweep_rows is subtracted, is writing the CSV.
    Probe("formsense.cli", "write_trace", "cli.write"),
    Probe("formsense.cli", "_write_json", "cli.write"),
    Probe("formsense.cli", "cmd_sweep", "cli.write"),
)

# The single call per command that the end-to-end throughput is timed by.
CORE_LAYERS = ("world.episode", "benchmarks.sweep")


class Tracer:
    """Installs probes and keeps the spans and counts of the calls they see."""

    def __init__(self, probes=PROBES):
        self.probes = tuple(probes)
        self.layers: set[str] = set()  # layers whose probes are all installed
        self.missing: list[str] = []
        self.spans: list[Optional[tuple[str, float, float, int]]] = []
        self.counts: defaultdict[str, int] = defaultdict(int)
        self._open: list[int] = []  # indices of the spans not yet ended

    def reset(self) -> None:
        """Forget the spans and counts recorded so far."""
        self.spans.clear()
        self.counts.clear()

    def _span(self, layer: str, fn: Callable) -> Callable:
        spans, counts, open_spans = self.spans, self.counts, self._open
        counter, hook = HOOKS.get(layer, (None, None))
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = open_spans[-1] if open_spans else -1
            open_spans.append(index)
            exc = result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                end = clock()
                open_spans.pop()
                spans[index] = (layer, start, end, parent)
                if hook is not None:
                    counts[counter] += hook(args, result, exc)

        return traced

    def _counter(self, layer: str, fn: Callable) -> Callable:
        counts = self.counts

        def counted(*args, **kwargs):
            counts[layer] += 1
            return fn(*args, **kwargs)

        return counted

    @contextmanager
    def installed(self):
        """Replace every probed function for the duration of the block."""
        restore = []
        self.missing.clear()
        incomplete = set()
        try:
            for probe in self.probes:
                owner, attr, original = _resolve(probe)
                if original is None:
                    self.missing.append(f"{probe.module}.{probe.target}")
                    incomplete.add(probe.layer)
                    continue
                is_classmethod = isinstance(original, classmethod)
                fn = original.__func__ if is_classmethod else original
                wrap = self._counter if probe.count_only else self._span
                wrapped = wrap(probe.layer, fn)
                setattr(owner, attr, classmethod(wrapped) if is_classmethod else wrapped)
                restore.append((owner, attr, original))
            # A layer that lost one of its functions would report partial counts.
            self.layers.clear()
            for layer in {p.layer for p in self.probes} - incomplete:
                self.layers.add(layer)
                if layer in HOOKS:
                    self.layers.add(HOOKS[layer][0])
            yield self
        finally:
            for owner, attr, original in reversed(restore):
                setattr(owner, attr, original)

    def summary(self) -> tuple[dict, dict, dict]:
        """Per-layer call counts, self seconds and total seconds.

        A span's self time is its duration minus that of its direct children.
        A layer's total counts only spans whose parent is another layer, so a
        layer nested in itself is not counted twice.
        """
        spans = self.spans
        child = [0.0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        calls: defaultdict[str, int] = defaultdict(int)
        self_s: defaultdict[str, float] = defaultdict(float)
        total_s: defaultdict[str, float] = defaultdict(float)
        for i, (layer, start, end, parent) in enumerate(spans):
            duration = end - start
            calls[layer] += 1
            self_s[layer] += duration - child[i]
            if parent < 0 or spans[parent][0] != layer:
                total_s[layer] += duration
        return dict(calls), dict(self_s), dict(total_s)


def _resolve(probe: Probe):
    """(owner, attribute, original) of a probe, original None when it is gone."""
    try:
        owner = importlib.import_module(probe.module)
    except ImportError:
        return None, None, None
    *path, attr = probe.target.split(".")
    for name in path:
        owner = getattr(owner, name, None)
        if owner is None:
            return None, None, None
    original = vars(owner).get(attr)
    if not (callable(original) or isinstance(original, classmethod)):
        return None, None, None
    return owner, attr, original
