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

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InsufficientAgentsError
from .sensing import SensingParams, TargetEstimate, crlb, elevation_weight

# Beyond this ratio between the two weight-curve coefficients the closed-form
# quadratic loses digits to cancellation; fall back to bisection on the
# weight derivative.
_CLOSED_FORM_RATIO_LIMIT = 1e12

_PHI_LO = math.radians(0.01)
_PHI_HI = math.radians(89.99)

_GEOMETRY_RTOL = 1e-9


@dataclass(frozen=True)
class FormationGeometry:
    """A regular-polygon sensing formation at a common elevation angle.

    Attributes:
        planar_positions: (M, 2) agent positions, read-only; agent 0 is the
            leader and sits at the initial rotation azimuth.
        center: Polygon center, the target's vertical projection.
        ring_radius_m: Horizontal distance from each agent to the center.
        elevation_rad: Common elevation angle of all agents.
        initial_rotation_rad: Azimuth of agent 0.
        crlb_m2: CRLB trace attained by this formation.
    """

    planar_positions: np.ndarray
    center: np.ndarray
    ring_radius_m: float
    elevation_rad: float
    initial_rotation_rad: float
    crlb_m2: float

    def __post_init__(self) -> None:
        positions = np.array(self.planar_positions, dtype=float)
        if positions.ndim != 2 or positions.shape[1] != 2 or not np.all(np.isfinite(positions)):
            raise ValueError("FormationGeometry.planar_positions: expected a finite (M, 2) array")
        if len(positions) < 3:
            raise InsufficientAgentsError(
                f"an isotropic formation needs at least 3 agents, got {len(positions)}"
            )
        center = np.array(self.center, dtype=float)
        positions.setflags(write=False)
        center.setflags(write=False)
        object.__setattr__(self, "planar_positions", positions)
        object.__setattr__(self, "center", center)
        offsets = positions - center
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


@dataclass(frozen=True)
class DisplacementSet:
    """The formation a control law should hold, as one embedding.

    Attributes:
        reference: (M, 2) read-only agent positions of the desired shape. The
            desired offset from agent p to agent m is reference[m] - reference[p],
            so it is antisymmetric and consistent along agent chains by
            construction; control laws read it on the graph's edges only.
        global_velocity: Common reference velocity of the whole formation, m/s.
        nominal_diameter_m: Largest pairwise distance in the reference.
    """

    reference: np.ndarray
    global_velocity: np.ndarray
    nominal_diameter_m: float = field(init=False)

    def __post_init__(self) -> None:
        reference = np.array(self.reference, dtype=float)
        if reference.ndim != 2 or reference.shape[1] != 2 or len(reference) == 0:
            raise ValueError(f"DisplacementSet.reference: expected (M, 2), got {reference.shape}")
        if not np.all(np.isfinite(reference)):
            raise ValueError("DisplacementSet.reference: entries must be finite")
        velocity = np.array(self.global_velocity, dtype=float)
        if velocity.shape != (2,) or not np.all(np.isfinite(velocity)):
            raise ValueError("DisplacementSet.global_velocity: expected finite 2-vector")
        reference.setflags(write=False)
        velocity.setflags(write=False)
        object.__setattr__(self, "reference", reference)
        object.__setattr__(self, "global_velocity", velocity)
        diameter = float(np.sqrt(_squared_distances(reference).max()))
        object.__setattr__(self, "nominal_diameter_m", diameter)


def _squared_distances(points: np.ndarray) -> np.ndarray:
    """(M, M) squared distances between the rows of an (M, 2) point array."""
    x, y = points[:, 0], points[:, 1]
    dx = x[:, None] - x[None, :]
    dy = y[:, None] - y[None, :]
    return dx * dx + dy * dy


def optimal_elevation(params: SensingParams) -> float:
    """Elevation angle maximizing the per-agent information weight.

    The stationarity condition reduces to a quadratic in tan^2(phi) with a
    single positive root between 1 and 2, so the optimum always lies between
    45 degrees and arctan(sqrt(2)) ~ 54.74 degrees: the high-SNR regime
    favors pure geometry, the low-SNR regime tilts toward shorter ranges.
    """
    h = params.altitude_m
    a = params.composite_snr_m4 / h**4
    b = 8.0 / h**2
    ratio = a / b
    if 1.0 / _CLOSED_FORM_RATIO_LIMIT < ratio < _CLOSED_FORM_RATIO_LIMIT:
        t_star = (a + math.sqrt(a * a + a * b + b * b)) / (a + b)
        return math.atan(math.sqrt(t_star))
    return _bisect_weight_peak(params)


def _bisect_weight_peak(params: SensingParams) -> float:
    """Locate the weight maximum by bisection on its derivative sign.

    The weight is smooth and unimodal on (0, pi/2), so the derivative changes
    sign exactly once. Used when the quadratic's coefficients are too far
    apart in magnitude for the closed form to be trustworthy.
    """
    h = params.altitude_m
    a = params.composite_snr_m4 / h**4
    b = 8.0 / h**2

    def slope_sign(phi: float) -> float:
        s2 = math.sin(phi) ** 2
        c2 = math.cos(phi) ** 2
        # d(weight)/d(phi) divided by sin(2 phi), which is positive here.
        return a * s2 * (2.0 * c2 - s2) + b * (c2 - s2)

    lo, hi = _PHI_LO, _PHI_HI
    if slope_sign(lo) <= 0.0:
        return lo
    if slope_sign(hi) >= 0.0:
        return hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if slope_sign(mid) > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-15:
            break
    return 0.5 * (lo + hi)


def optimal_azimuths(agent_count: int, initial_rotation_rad: float = 0.0) -> np.ndarray:
    """Equally spaced azimuths whose second-harmonic sum cancels.

    Any rotation of the regular spacing works; ``initial_rotation_rad`` picks
    the representative. Azimuths are normalized to [0, 2*pi).
    """
    if agent_count < 3:
        raise InsufficientAgentsError(
            f"an isotropic formation needs at least 3 agents, got {agent_count}"
        )
    raw = initial_rotation_rad + 2.0 * math.pi * np.arange(agent_count) / agent_count
    return raw % (2.0 * math.pi)


def theoretical_lower_bound(params: SensingParams, agent_count: int) -> float:
    """Minimum achievable CRLB trace for the given fleet size, in m^2.

    Equals 4 / (M * w(phi*)): all M agents at the weight-maximizing
    elevation, arranged isotropically. Independent of the polygon rotation.
    """
    if agent_count < 3:
        raise InsufficientAgentsError(
            f"an isotropic formation needs at least 3 agents, got {agent_count}"
        )
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
    radius = params.altitude_m / math.tan(phi_star)
    azimuths = optimal_azimuths(agent_count, initial_rotation_rad)
    positions = target.position + radius * np.array(
        [[math.cos(theta), math.sin(theta)] for theta in azimuths]
    )
    return FormationGeometry(
        planar_positions=positions,
        center=target.position.copy(),
        ring_radius_m=radius,
        elevation_rad=phi_star,
        initial_rotation_rad=float(initial_rotation_rad) % (2.0 * math.pi),
        crlb_m2=crlb(positions, target, params),
    )


def displacement_set(formation: FormationGeometry, global_velocity=(0.0, 0.0)) -> DisplacementSet:
    """The formation's positions as the reference the control law should hold."""
    return DisplacementSet(reference=formation.planar_positions, global_velocity=global_velocity)
