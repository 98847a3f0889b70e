"""Comparison formations for altitude sweeps.

Each generator returns M planar positions at the common flight altitude.
The kinds bracket the optimum from two sides: clustered and fixed-elevation
polygons keep the isotropic azimuth spread but sit at the wrong elevation,
the offset line has poor azimuth spread, and the random cloud has neither
property. None of them can beat the analytic bound; the sweep quantifies by
how much they miss it as altitude grows.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import check_fields
from .formation import _ring, build_formation, optimal_elevation, theoretical_lower_bound
from .sensing import SensingParams, TargetEstimate, crlb

KINDS = ("optimal", "line", "clustered_polygon", "fixed_elevation", "random_cloud")

# Entropy-stream tag separating sweep draws from other consumers of the seed.
_SWEEP_STREAM = 2**41

# Lengths and the clustered ring's shrink factor share the flight altitude's 1e6 m ceiling,
# far below the 1e77 m at which rho^4 overflows. Under 0.001 deg a fixed-elevation ring's
# radius H/tan(e) heads for overflow. samples has no upper end yet.
_LENGTH = "(0, 1e+06]"


@dataclass(frozen=True)
class BenchmarkSpec:
    """One comparison formation family and its shape parameters.

    Attributes:
        kind: One of optimal, line, clustered_polygon, fixed_elevation,
            random_cloud.
        radius_factor: Ring shrink factor for clustered_polygon.
        elevation_deg: Common elevation for fixed_elevation.
        length_m: Segment length for line.
        lateral_offset_m: Sideways shift of the line from the target's
            projection. A line straight through the projection makes every
            bearing collinear and the information matrix singular, so the
            default keeps the benchmark finite.
        half_width_m: Half side of the random_cloud sampling box.
        samples: Monte Carlo draws averaged for random_cloud.
    """

    kind: str = field(metadata={"choices": KINDS})
    radius_factor: float = field(default=0.25, metadata={"interval": _LENGTH})
    elevation_deg: float = field(default=30.0, metadata={"interval": "[0.001, 90)"})
    length_m: float = field(default=40.0, metadata={"interval": _LENGTH})
    lateral_offset_m: float = field(default=10.0, metadata={"interval": "[-1e+06, 1e+06]"})
    half_width_m: float = field(default=30.0, metadata={"interval": _LENGTH})
    samples: int = field(default=25, metadata={"interval": "[1, inf)"})

    def __post_init__(self) -> None:
        check_fields(self)


def benchmark_positions(
    spec: BenchmarkSpec,
    agent_count: int,
    target: TargetEstimate,
    params: SensingParams,
    rng: np.random.Generator | None = None,
    ring: np.ndarray | None = None,
) -> np.ndarray:
    """Planar positions of one benchmark instance, shape (M, 2).

    ``ring`` is the optimal formation's (M, 2) positions, built here when not given.
    """
    s = target.position
    if spec.kind in ("optimal", "clustered_polygon") and ring is None:
        ring = build_formation(params, target, agent_count).planar_positions
    if spec.kind == "optimal":
        return ring
    if spec.kind == "line":
        along = np.linspace(-spec.length_m / 2.0, spec.length_m / 2.0, agent_count)
        return np.column_stack([s[0] + along, np.full(agent_count, s[1] + spec.lateral_offset_m)])
    if spec.kind == "clustered_polygon":
        return s + spec.radius_factor * (ring - s)
    if spec.kind == "fixed_elevation":
        return _ring(s, params.altitude_m, math.radians(spec.elevation_deg), agent_count)[0]
    if rng is None:
        raise ValueError("benchmark_positions: random_cloud needs an rng")
    return _draw_cloud(np.empty((agent_count, 2)), spec, s, rng)


def _draw_cloud(block, spec, s, rng) -> np.ndarray:
    """Fill the C-contiguous ``block`` with uniform draws from the box about ``s``, in place.

    The doubles of ``s + rng.uniform(-w, w, block.shape)``, w the half width: numpy's uniform
    is low + (high - low) * next_double, and ``random`` draws the same next_double stream.
    """
    w = spec.half_width_m
    rng.random(out=block)
    block *= w - -w
    block -= w
    block += s
    return block


def formation_crlb(positions: np.ndarray, target: TargetEstimate, params: SensingParams):
    """CRLB trace of agents hovering at these planar positions; see :func:`sensing.crlb`."""
    return crlb(positions, target, params)


def sweep_rows(
    specs: list[BenchmarkSpec],
    agent_count: int,
    target: TargetEstimate,
    base_params: SensingParams,
    altitudes_m: list[float],
    seed: int,
) -> list[dict]:
    """CRLB of every benchmark at every altitude, with the analytic bound.

    The formations of every spec, one per kind and ``samples`` draws of
    random_cloud, fill one (F, M, 2) stack, scored by one batched CRLB call per
    altitude. The line does not depend on the altitude and is built once. Each
    altitude builds its optimal ring with :func:`build_formation`'s ring formula,
    without a ``FormationGeometry``, and draws its clouds in place into the
    stack. Every random_cloud spec at one altitude draws from the same stream,
    keyed by (seed, 2**41, altitude index): common random numbers, so two
    cloud specs differ only by their parameters, and equal specs give equal
    rows. A row is the mean over its formations that have a bound (NaN from
    :func:`sensing.crlb` contributes nothing) and ``samples`` counts them: a
    row none contributes to has ``crlb_m2`` None and ``samples`` 0.
    """
    if not altitudes_m:
        raise ValueError("sweep_rows: need at least one altitude")
    s = target.position
    sizes = [spec.samples if spec.kind == "random_cloud" else 1 for spec in specs]
    spans = [slice(end - size, end) for size, end in zip(sizes, itertools.accumulate(sizes))]
    stack = np.empty((sum(sizes), agent_count, 2))
    for spec, span in zip(specs, spans):
        if spec.kind == "line":
            stack[span] = benchmark_positions(spec, agent_count, target, base_params)
    rows: list[dict] = []
    for alt_index, altitude in enumerate(altitudes_m):
        params = replace(base_params, altitude_m=float(altitude))
        bound = theoretical_lower_bound(params, agent_count)
        if not specs:  # no specs, no rows
            break
        ring, _ = _ring(s, params.altitude_m, optimal_elevation(params), agent_count)
        for spec, span in zip(specs, spans):
            if spec.kind == "random_cloud":
                _draw_cloud(stack[span], spec, s, np.random.default_rng([seed, _SWEEP_STREAM, alt_index]))
            elif spec.kind != "line":
                stack[span] = benchmark_positions(spec, agent_count, target, params, None, ring)
        values = formation_crlb(stack, target, params)
        floats = values.tolist()
        for spec, span in zip(specs, spans):
            if spec.kind == "random_cloud":
                scores = values[span][~np.isnan(values[span])]
                count = scores.size
                mean = float(scores.sum()) / count if count else None  # np.mean's double
            else:
                mean = floats[span.start]
                count = 0 if math.isnan(mean) else 1
            rows.append(
                {
                    "altitude_m": float(altitude),
                    "formation_kind": spec.kind,
                    "crlb_m2": mean if count else None,
                    "bound_m2": bound,
                    "samples": count,
                }
            )
    return rows
