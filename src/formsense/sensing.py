"""Range measurement model and the CRLB of a planar target position.

A formation of agents at fixed altitude measures round-trip delays to a
ground target. Each range measurement carries Gaussian noise whose variance
grows with the fourth power of distance (two-way path loss), so a single
measurement is informative both through its mean and through its
distance-dependent variance. This module turns an array of agent positions
into the CRLB (trace of the inverse 2x2 Fisher information matrix of the
target's planar coordinates) that any unbiased position estimator is
subject to.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import POSITIVE, check_fields

# Determinant threshold (relative to trace^2) below which a 2x2 information
# matrix is treated as singular. Scale-free by construction.
_SINGULARITY_RTOL = 1e-12

# Ceiling on the SNR C / H^4; with the altitudes accepted it keeps the CRLB finite.
_MAX_SNR = 1e100


@dataclass(frozen=True)
class SensingParams:
    """Physical constants of the two-way range measurement model.

    Attributes:
        transmit_power_w: Transmit power per agent in watts (equal across agents).
        processing_gain: Dimensionless receiver processing gain.
        ref_channel_power_m4: Two-way channel power at unit distance, in m^4.
        kappa: Dimensionless system constant of the noise model.
        noise_floor_w: Receiver noise power in watts.
        altitude_m: Common flight altitude in meters.
    """

    transmit_power_w: float = field(metadata={"interval": POSITIVE})
    processing_gain: float = field(metadata={"interval": POSITIVE})
    ref_channel_power_m4: float = field(metadata={"interval": POSITIVE})
    kappa: float = field(metadata={"interval": POSITIVE})
    noise_floor_w: float = field(metadata={"interval": POSITIVE})
    # 1 mm to 1000 km: far past either end h^4 over- or underflows and the optimal elevation fails.
    altitude_m: float = field(metadata={"interval": "[0.001, 1e+06]"})

    # p * G_p * beta0 / (kappa * sigma0^2); the only combination the noise
    # and information formulas depend on. Units m^4.
    composite_snr_m4: float = field(init=False, repr=False)

    def __post_init__(self) -> None:
        check_fields(self)
        # Divided one factor at a time: kappa * sigma0^2 or h^4 alone can over- or underflow,
        # and an infinite quotient fails the SNR ceiling.
        composite = (
            self.transmit_power_w * self.processing_gain * self.ref_channel_power_m4
            / self.kappa / self.noise_floor_w
        )
        h = self.altitude_m
        if not composite / h / h / h / h <= _MAX_SNR:
            raise ValueError(f"SensingParams: SNR composite_snr_m4 / altitude_m^4 exceeds {_MAX_SNR:g}")
        object.__setattr__(self, "composite_snr_m4", composite)


@dataclass(frozen=True, eq=False)
class TargetEstimate:
    """Planar prior position of the ground target, in meters."""

    position: np.ndarray = field(metadata={"shape": "(2,)"})

    def __post_init__(self) -> None:
        check_fields(self)


@dataclass(frozen=True, eq=False)
class AgentPose:
    """One agent's planar position plus its viewing angles of the target.

    The angle view of a single agent; :func:`crlb` works on position arrays
    and needs no poses. The planar position (with the common altitude) is the source of truth;
    elevation and azimuth are derived quantities cached for the information
    formulas. Use :meth:`from_position` to get a consistent triple; the
    plain constructor only validates ranges.
    """

    planar_position: np.ndarray = field(metadata={"shape": "(2,)"})
    elevation_rad: float
    azimuth_rad: float

    def __post_init__(self) -> None:
        check_fields(self)
        if not 0.0 < self.elevation_rad < math.pi / 2:
            raise ValueError(
                f"AgentPose.elevation_rad: must lie strictly inside (0, pi/2), got {self.elevation_rad!r}"
            )
        object.__setattr__(self, "azimuth_rad", float(self.azimuth_rad) % (2 * math.pi))

    @classmethod
    def from_position(
        cls, position: np.ndarray, target: TargetEstimate, params: SensingParams
    ) -> "AgentPose":
        """Derive elevation/azimuth from a planar position at the common altitude."""
        position = np.asarray(position, dtype=float)
        offset = position - target.position
        horizontal = float(np.hypot(offset[0], offset[1]))
        if horizontal <= 0.0:
            raise ValueError(
                "AgentPose.from_position: agent directly above the target has an undefined azimuth"
            )
        elevation = math.atan2(params.altitude_m, horizontal)
        azimuth = math.atan2(offset[1], offset[0])
        return cls(position, elevation, azimuth)


def elevation_weight(elevation_rad, params: SensingParams):
    """Per-agent contribution to the planar information as a function of elevation.

    Equals the single-range information evaluated at the distance implied by
    the elevation (sin(phi) = H/d), projected onto the horizontal plane by a
    cos^2(phi) factor. Vanishes toward both ends of (0, pi/2): low elevations
    lose SNR to path loss, high elevations lose horizontal geometry. Accepts
    scalars or arrays.
    """
    phi = np.asarray(elevation_rad, dtype=float)
    if np.any(phi <= 0) or np.any(phi >= math.pi / 2):
        raise ValueError(
            f"elevation_weight: elevation must lie strictly inside (0, pi/2), got {elevation_rad!r}"
        )
    h = params.altitude_m
    sin_sq = np.sin(phi) ** 2
    cos_sq = np.cos(phi) ** 2
    out = (params.composite_snr_m4 * sin_sq**2 / h**4 + 8.0 * sin_sq / h**2) * cos_sq
    return float(out) if np.ndim(elevation_rad) == 0 else out


def crlb(positions, target: TargetEstimate, params: SensingParams):
    """CRLB trace of agents hovering at planar ``positions``, in m^2.

    ``positions`` has shape (..., M, 2); leading axes are a batch of
    formations. With d = p - s an agent's horizontal offset from the target
    and rho^2 = |d|^2 + H^2 its squared slant range, the agent adds
    w * d d^T to the information matrix J, where w = (C/rho^4 + 8/rho^2) / rho^2.
    That is its elevation weight spread along the unit bearing d / |d|,
    because sin(phi) = H / rho and cos^2(phi) = |d|^2 / rho^2. The CRLB on the
    total position MSE is tr(J^-1) = tr(J) / det(J).

    Returns a float for one (M, 2) formation and an array of the batch shape
    for a batch. NaN marks a formation without a bound: its J is (numerically)
    singular, det(J) <= 1e-12 tr(J)^2, or an agent hovers directly above the
    target, where its bearing is undefined.

    Raises:
        ValueError: on a shape other than (..., M, 2) with M >= 1, or a non-finite entry.
    """
    q = np.asarray(positions, dtype=float)
    if q.ndim < 2 or q.shape[-1] != 2 or q.shape[-2] < 1:
        raise ValueError(f"crlb: expected positions of shape (..., M, 2), got {q.shape}")
    if not np.all(np.isfinite(q)):
        raise ValueError("crlb: positions must be finite")
    d = q - target.position
    dx, dy = d[..., 0], d[..., 1]
    rho_sq = dx * dx + dy * dy + params.altitude_m**2
    w = (params.composite_snr_m4 / (rho_sq * rho_sq) + 8.0 / rho_sq) / rho_sq
    j_xx = (w * dx * dx).sum(axis=-1)
    j_yy = (w * dy * dy).sum(axis=-1)
    j_xy = (w * dx * dy).sum(axis=-1)
    trace = j_xx + j_yy
    det = j_xx * j_yy - j_xy * j_xy
    overhead = ((dx == 0.0) & (dy == 0.0)).any(axis=-1)
    undefined = (det <= _SINGULARITY_RTOL * trace * trace) | overhead
    if q.ndim == 2:
        return math.nan if undefined else float(trace / det)
    return trace / np.where(undefined, np.nan, det)
