"""Comparison formations for altitude sweeps.

Each generator returns M planar positions at the common flight altitude.
The kinds bracket the optimum from two sides: clustered and fixed-elevation
polygons keep the isotropic azimuth spread but sit at the wrong elevation,
the offset line has poor azimuth spread, and the random cloud has neither
property. None of them can beat the analytic bound; the sweep quantifies by
how much they miss it as altitude grows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import check_fields
from .formation import build_formation, optimal_azimuths, theoretical_lower_bound
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

    kind: str
    radius_factor: float = field(default=0.25, metadata={"interval": _LENGTH})
    elevation_deg: float = field(default=30.0, metadata={"interval": "[0.001, 90)"})
    length_m: float = field(default=40.0, metadata={"interval": _LENGTH})
    lateral_offset_m: float = field(default=10.0, metadata={"interval": "[-1e+06, 1e+06]"})
    half_width_m: float = field(default=30.0, metadata={"interval": _LENGTH})
    samples: int = field(default=25, metadata={"interval": "[1, inf)"})

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"BenchmarkSpec.kind: expected one of {KINDS}, got {self.kind!r}")
        check_fields(self)


def benchmark_positions(
    spec: BenchmarkSpec,
    agent_count: int,
    target: TargetEstimate,
    params: SensingParams,
    rng: np.random.Generator | None = None,
    ring: np.ndarray | None = None,
    draws: int | None = None,
) -> np.ndarray:
    """Planar positions of one benchmark instance, shape (M, 2).

    ``ring`` is the optimal formation's (M, 2) positions, built here when not
    given. ``draws`` stacks that many random_cloud instances into one
    (draws, M, 2) array, the same numbers as that many separate draws.
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
        radius = params.altitude_m / math.tan(math.radians(spec.elevation_deg))
        azimuths = optimal_azimuths(agent_count)
        return s + radius * np.column_stack([np.cos(azimuths), np.sin(azimuths)])
    if rng is None:
        raise ValueError("benchmark_positions: random_cloud needs an rng")
    size = (agent_count, 2) if draws is None else (draws, agent_count, 2)
    return s + rng.uniform(-spec.half_width_m, spec.half_width_m, size=size)


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

    random_cloud rows are Monte Carlo averages over one batch of draws; the
    returned ``samples`` field records how many draws contributed (singular
    draws are skipped, which has never been observed for continuous position
    distributions).
    """
    if not altitudes_m:
        raise ValueError("sweep_rows: need at least one altitude")
    needs_ring = any(spec.kind in ("optimal", "clustered_polygon") for spec in specs)
    rows: list[dict] = []
    for alt_index, altitude in enumerate(altitudes_m):
        params = replace(base_params, altitude_m=float(altitude))
        bound = theoretical_lower_bound(params, agent_count)
        ring = None
        if needs_ring:  # one build serves the optimal and clustered_polygon rows
            ring = build_formation(params, target, agent_count).planar_positions
        for spec in specs:
            if spec.kind == "random_cloud":
                rng = np.random.default_rng([seed, _SWEEP_STREAM, alt_index])
                draws = benchmark_positions(
                    spec, agent_count, target, params, rng, draws=spec.samples
                )
                values = formation_crlb(draws, target, params)
                values = values[~np.isnan(values)]
                crlb_m2 = float(np.mean(values)) if values.size else None
                samples = int(values.size)
            else:
                positions = benchmark_positions(spec, agent_count, target, params, ring=ring)
                crlb_m2 = formation_crlb(positions, target, params)
                samples = 1
            rows.append(
                {
                    "altitude_m": float(altitude),
                    "formation_kind": spec.kind,
                    "crlb_m2": crlb_m2,
                    "bound_m2": bound,
                    "samples": samples,
                }
            )
    return rows
