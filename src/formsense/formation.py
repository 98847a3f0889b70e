"""Closed-form CRLB-optimal formation geometry around a ground target.

The total position error bound of any unbiased estimator satisfies
tr(J^-1) >= 4 / tr(J), with equality exactly when the information matrix is
isotropic (a scalar multiple of the identity). tr(J) is the sum of per-agent
elevation weights and does not depend on azimuths at all, so the optimum
factorizes: every agent sits at the elevation that maximizes its weight, and
the azimuths are spread so the second harmonic sum(exp(2j*theta)) cancels.
A regular polygon of three or more agents around the target does both.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from numbers import Integral

import numpy as np

from .errors import check_fields
from .sensing import SensingParams, TargetEstimate, elevation_weight

_GEOMETRY_RTOL = 1e-9


@dataclass(frozen=True, eq=False)
class FormationGeometry:
    """A regular-polygon sensing formation at a common elevation angle.

    Attributes:
        planar_positions: (M, 2) agent positions, read-only; agent 0 is the
            leader and sits at the initial rotation azimuth.
        center: Polygon center, the target's vertical projection.
        ring_radius_m: Horizontal distance from each agent to the center.
        elevation_rad: Common elevation angle of all agents.
    """

    planar_positions: np.ndarray = field(metadata={"shape": "(M, 2)"})
    center: np.ndarray = field(metadata={"shape": "(2,)"})
    ring_radius_m: float
    elevation_rad: float

    def __post_init__(self) -> None:
        check_fields(self)
        positions = self.planar_positions
        if len(positions) < 3:
            raise ValueError(f"an isotropic formation needs at least 3 agents, got {len(positions)}")
        offsets = positions - self.center
        radii = np.hypot(offsets[:, 0], offsets[:, 1])
        if not np.allclose(radii, self.ring_radius_m, rtol=_GEOMETRY_RTOL, atol=1e-12):
            raise ValueError("FormationGeometry: agents are not equidistant from the center")
        azimuths = np.arctan2(offsets[:, 1], offsets[:, 0])
        spacing = np.diff(azimuths) % (2.0 * math.pi)
        if not np.allclose(spacing, 2.0 * math.pi / len(positions), atol=1e-9):
            raise ValueError("FormationGeometry: azimuths are not a regular polygon")

    @property
    def agent_count(self) -> int:
        return len(self.planar_positions)


@dataclass(frozen=True, eq=False)
class DisplacementSet:
    """The formation a control law should hold, as one embedding.

    Attributes:
        reference: (M, 2) read-only agent positions of the desired shape. The
            desired offset from agent p to agent m is reference[m] - reference[p],
            so it is antisymmetric and consistent along agent chains by
            construction; control laws read it on the graph's edges only.
        nominal_diameter_m: Largest pairwise distance in the reference.
    """

    reference: np.ndarray = field(metadata={"shape": "(M, 2)"})
    nominal_diameter_m: float = field(init=False)

    def __post_init__(self) -> None:
        check_fields(self)
        x, y = self.reference.T
        rows, largest = max(1, 2**16 // len(x)), 0.0
        for start in range(0, len(x), rows):  # (rows, M) blocks keep the memory linear in M
            dx, dy = x[start : start + rows, None] - x, y[start : start + rows, None] - y
            dx *= dx  # in place: each fresh block array costs more than the arithmetic
            dy *= dy
            dx += dy
            largest = max(largest, float(dx.max()))
        object.__setattr__(self, "nominal_diameter_m", math.sqrt(largest))


def optimal_elevation(params: SensingParams) -> float:
    """Elevation angle maximizing the per-agent information weight.

    The weight is (a sin^4(phi) + b sin^2(phi)) cos^2(phi) with a = C / H^4
    and b = 8 / H^2. Setting its derivative to zero gives a quadratic in
    t = tan^2(phi) whose positive root depends on r = a / b = C / (8 H^2) only:
    t* = (r + sqrt(r^2 + r + 1)) / (r + 1). Every term is positive, so no
    digits cancel for any r in (0, inf). t* rises from 1 to 2 with r, so the
    optimum always lies between 45 degrees and arctan(sqrt(2)) ~ 54.74
    degrees: the high-SNR regime favors pure geometry, the low-SNR regime
    tilts toward shorter ranges.

    The root is evaluated multiplied through by b, which needs no branch:
    under the SNR ceiling C / H^4 <= 1e100 and at the altitudes SensingParams
    accepts, 1 mm to 1000 km, a^2, ab and b^2 are all finite.
    """
    h = params.altitude_m
    a = params.composite_snr_m4 / h**4
    b = 8.0 / h**2
    t_star = (a + math.sqrt(a * a + a * b + b * b)) / (a + b)
    return math.atan(math.sqrt(t_star))


def _check_ring_size(agent_count: int) -> None:
    if not ((type(agent_count) is int or isinstance(agent_count, Integral)) and agent_count >= 3):
        raise ValueError(f"an isotropic ring needs a whole number of at least 3 agents, got {agent_count!r}")


def optimal_azimuths(agent_count: int, initial_rotation_rad: float = 0.0) -> np.ndarray:
    """Equally spaced azimuths whose second-harmonic sum cancels.

    Any rotation of the regular spacing works; ``initial_rotation_rad`` picks
    the representative. Azimuths are normalized to [0, 2*pi).
    """
    _check_ring_size(agent_count)
    raw = initial_rotation_rad + 2.0 * math.pi * np.arange(agent_count) / agent_count
    return raw % (2.0 * math.pi)


@functools.lru_cache
def _unit_polygon(agent_count: int, initial_rotation_rad: float = 0.0) -> np.ndarray:
    """Unit directions (M, 2) of the optimal azimuths: the ring about the origin at radius 1, read-only."""
    azimuths = optimal_azimuths(agent_count, initial_rotation_rad)
    polygon = np.array([[math.cos(theta), math.sin(theta)] for theta in azimuths])
    polygon.setflags(write=False)
    return polygon


def _ring(
    center: np.ndarray, altitude_m: float, elevation_rad: float, agent_count: int, rotation_rad: float = 0.0
) -> tuple[np.ndarray, float]:
    """Optimal-azimuth polygon (M, 2) about ground point ``center`` seen at elevation e, and its radius H / tan(e)."""
    _check_ring_size(agent_count)  # before the cache, whose key 6.0 would match 6
    radius = altitude_m / math.tan(elevation_rad)
    return center + radius * _unit_polygon(int(agent_count), float(rotation_rad)), radius


def theoretical_lower_bound(params: SensingParams, agent_count: int) -> float:
    """Minimum achievable CRLB trace for the given fleet size, in m^2.

    Equals 4 / (M * w(phi*)): all M agents at the weight-maximizing
    elevation, arranged isotropically. Independent of the polygon rotation.
    """
    _check_ring_size(agent_count)
    w_star = elevation_weight(optimal_elevation(params), params)
    return 4.0 / (agent_count * w_star)


def build_formation(
    params: SensingParams,
    target: TargetEstimate,
    agent_count: int,
    initial_rotation_rad: float = 0.0,
) -> FormationGeometry:
    """Construct the optimal regular-polygon formation around the target.

    Agents share the weight-maximizing elevation and sit on the circle of
    radius H / tan(phi*) centered on the target's vertical projection, at
    equally spaced azimuths starting from ``initial_rotation_rad``.
    """
    phi_star = optimal_elevation(params)
    positions, radius = _ring(target.position, params.altitude_m, phi_star, agent_count, initial_rotation_rad)
    return FormationGeometry(
        planar_positions=positions,
        center=target.position,
        ring_radius_m=radius,
        elevation_rad=phi_star,
    )

