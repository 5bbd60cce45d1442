"""Position pipeline: Butterworth-filtered, gravity-compensated accelerometer
double integration blended per sample against GPS-derived velocity and
position references.

Velocity blend (north/east world frame, bearing theta_d clockwise from north):

    v_n' = alpha * (v_n + a_n * dt) + (1 - alpha) * speed_gps * cos(theta_d)
    v_e' = alpha * (v_e + a_e * dt) + (1 - alpha) * speed_gps * sin(theta_d)

Position blend (k = 180 / (pi * r_e) degrees per meter):

    lat' = beta * (lat + v_n * dt * k) + (1 - beta) * lat_gps
    lon' = beta * (lon + v_e * dt * k) + (1 - beta) * lon_gps

theta_d is the forward bearing of the last two distinct valid fixes; the GPS
course field is never used. A fix older than ``stale_after_s`` contributes no
correction (the step behaves as alpha = beta = 1). In replay mode the
position reference is the linear interpolation of the fix track instead of
the latest fix (sample-and-hold); the velocity reference is fix-based in
both modes.

The longitude meter-to-degree conversion deliberately omits the cos(lat)
meridian-convergence factor by default; ``lon_scale_correction`` enables it.

``NavEstimator.world_accel`` is an array pass: the Butterworth pre-filter
(``FilterState.run``) and the rotation of the filtered accel to
north/east. ``NavEstimator.blend`` computes the GPS terms of the blend,
(1 - alpha) * speed * cos/sin(theta_d) and (1 - beta) * lat/lon_gps, once per
column, and loops only over the recursion: the velocity and position blend
and the cos(lat) of ``lon_scale_correction``. numpy does only + - * / and
sqrt, and cos/sin stay ``math.*``, so the output is bit-identical to a
per-sample loop.

GPS fixes are ``GpsArrays`` columns from the wire decoder, the recording
and the simulator through to ``prepare_gps_reference``. ``check_gps`` is the
one check of their values, made wherever fixes enter from outside.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .attitude import _map
from .errors import InterpolationRangeError, TimestampOrderError
from .filters import BiquadCoeffs, FilterState, design_butterworth2_lp
from .geo import EarthModel, GeoPoint, bearing
from .quat import _UNIT_TOL

# Same position twice within this tolerance (degrees) is "not distinct".
DISTINCT_FIX_DEG = 1e-12

DEFAULT_STALE_AFTER_S = 3.0


class GpsArrays(NamedTuple):
    """GPS fixes as column arrays sharing the row index. ``course`` (never
    fused) and ``alt`` (recorded, never fused) are NaN where a fix has none;
    rows with ``valid`` False take no part in the blend.
    """

    t: np.ndarray        # (m,) seconds
    lat: np.ndarray      # (m,) degrees
    lon: np.ndarray      # (m,) degrees
    speed: np.ndarray    # (m,) m/s
    course: np.ndarray   # (m,) radians clockwise from north
    alt: np.ndarray      # (m,) m
    valid: np.ndarray    # (m,) bool


def gps_range_error(gps: GpsArrays) -> tuple[int, str] | None:
    """The first fix holding values no fix can, as (row, reason), or None.

    Every fix, valid or not, needs a finite time, lat in [-90, 90], lon in
    (-180, 180] and a finite speed >= 0.
    """
    t, lat, lon, speed = gps[:4]
    checks = (
        (np.isfinite(t), "GPS time {} is not finite", t),
        ((lat >= -90.0) & (lat <= 90.0), "latitude {} outside [-90, 90]", lat),
        ((lon > -180.0) & (lon <= 180.0), "longitude {} outside (-180, 180]", lon),
        ((speed >= 0.0) & np.isfinite(speed), "GPS speed must be finite and >= 0, got {}", speed),
    )
    bad = np.flatnonzero(~np.logical_and.reduce([ok for ok, _, _ in checks]))
    if not len(bad):
        return None
    i = int(bad[0])
    return next((i, why.format(float(col[i]))) for ok, why, col in checks if not ok[i])


def check_gps(gps: GpsArrays) -> None:
    """Raise ValueError naming the first fix that ``gps_range_error`` finds."""
    err = gps_range_error(gps)
    if err is not None:
        raise ValueError(f"GPS fix {err[0]}: {err[1]}")


@dataclass(frozen=True)
class BlendWeights:
    """alpha weights integrated velocity, beta integrated displacement."""

    alpha: float = 0.1
    beta: float = 0.1

    def __post_init__(self):
        for name in ("alpha", "beta"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {v}")


def default_position_cutoff_hz(sample_rate_hz: float) -> float:
    """fs/6, capped at 10 Hz (the cutoff of the reference 1 kHz design)."""
    return min(10.0, sample_rate_hz / 6.0)


def interpolate_gps(gps: GpsArrays, t: float) -> GeoPoint:
    """Piecewise-linear lat/lon between valid fixes, as the replay reference
    of ``prepare_gps_reference`` makes it; no extrapolation."""
    check_gps(gps)
    valid = np.asarray(gps.valid, dtype=bool)
    times, lats, lons = (c[valid] for c in gps[:3])
    if len(times) < 2:
        raise ValueError("interpolation needs at least 2 valid fixes")
    if (np.diff(times) <= 0.0).any():
        raise TimestampOrderError("fix timestamps must be strictly increasing")
    if not times[0] <= t <= times[-1]:
        raise InterpolationRangeError(f"t={t} outside fix span [{times[0]}, {times[-1]}]")
    return GeoPoint(float(np.interp(t, times, lats)), float(np.interp(t, times, lons)))


class GpsReference(NamedTuple):
    """Per-sample reference arrays feeding ``NavEstimator.blend``, sharing the row
    index of the samples, so a block of rows slices every column alike."""

    ref_lat: np.ndarray     # (n,)
    ref_lon: np.ndarray     # (n,)
    has_pos: np.ndarray     # (n,) uint8
    ref_speed: np.ndarray   # (n,)
    ref_theta: np.ndarray   # (n,)
    has_vel: np.ndarray     # (n,) uint8


def prepare_gps_reference(
    t: np.ndarray,
    gps: GpsArrays,
    mode: str = "live",
    stale_after_s: float = DEFAULT_STALE_AFTER_S,
) -> GpsReference:
    """Resolve, per sample, which GPS terms the blend may use.

    mode "live" holds the latest fresh fix; mode "replay" interpolates the
    fix track for the position reference (velocity stays fix-based).
    """
    if mode not in ("live", "replay"):
        raise ValueError(f"unknown GPS reference mode {mode!r}")
    check_gps(gps)
    n = len(t)
    valid = np.asarray(gps.valid, dtype=bool)
    ft, flat, flon, fspeed = (c[valid] for c in gps[:4])
    m = len(ft)
    if not m:
        return GpsReference(*(np.zeros(n, dtype=d) for d in (float, float, np.uint8) * 2))
    if (np.diff(ft) <= 0.0).any():
        raise TimestampOrderError("fix timestamps must be strictly increasing")

    # Bearing of the last two distinct-position fixes, evaluated at each fix.
    theta_at = np.zeros(m)
    has_theta = np.zeros(m, dtype=bool)
    lats, lons = flat.tolist(), flon.tolist()
    anchor_lat, anchor_lon = lats[0], lons[0]
    for j in range(1, m):
        lat, lon = lats[j], lons[j]
        if abs(lat - anchor_lat) >= DISTINCT_FIX_DEG or abs(lon - anchor_lon) >= DISTINCT_FIX_DEG:
            theta_at[j] = bearing(anchor_lat, anchor_lon, lat, lon)
            has_theta[j] = True
            anchor_lat, anchor_lon = lat, lon
        else:
            theta_at[j] = theta_at[j - 1]
            has_theta[j] = has_theta[j - 1]

    idx = np.searchsorted(ft, t, side="right") - 1
    safe = np.maximum(idx, 0)
    fresh = (idx >= 0) & ((t - ft[safe]) <= stale_after_s)
    has_vel = fresh & has_theta[safe]
    if mode == "live":
        has_pos, ref_lat, ref_lon = fresh, flat[safe], flon[safe]
    else:
        has_pos = (t >= ft[0]) & (t <= ft[-1]) & (m >= 2)
        ref_lat, ref_lon = np.interp(t, ft, flat), np.interp(t, ft, flon)
    return GpsReference(
        np.where(has_pos, ref_lat, 0.0), np.where(has_pos, ref_lon, 0.0), has_pos.astype(np.uint8),
        np.where(has_vel, fspeed[safe], 0.0), np.where(has_vel, theta_at[safe], 0.0), has_vel.astype(np.uint8),
    )


@dataclass(frozen=True)
class NavTrack:
    """Batch position-fusion output, one row per input sample."""

    t: np.ndarray
    vel: np.ndarray   # (n, 2) v_north, v_east m/s
    lat: np.ndarray
    lon: np.ndarray


class NavEstimator:
    """Batch position fusion over an IMU stream with attitude and GPS inputs."""

    def __init__(
        self,
        weights: BlendWeights = BlendWeights(),
        sample_rate_hz: float = 60.0,
        cutoff_hz: float | None = None,
        earth: EarthModel = EarthModel(),
        lon_scale_correction: bool = False,
        stale_after_s: float = DEFAULT_STALE_AFTER_S,
        mode: str = "live",
        initial_pos: GeoPoint = GeoPoint(0.0, 0.0),
        initial_vel: tuple[float, float] = (0.0, 0.0),
        coeffs: BiquadCoeffs | None = None,
    ):
        self.weights = weights
        self.earth = earth
        self.lon_scale_correction = lon_scale_correction
        self.stale_after_s = stale_after_s
        self.mode = mode
        if coeffs is None:
            if cutoff_hz is None:
                cutoff_hz = default_position_cutoff_hz(sample_rate_hz)
            coeffs = design_butterworth2_lp(cutoff_hz, sample_rate_hz)
        self.accel_lp = tuple(FilterState(coeffs) for _ in range(3))  # x, y, z
        self.t_last: float | None = None  # None before the first sample
        self.vn, self.ve = float(initial_vel[0]), float(initial_vel[1])
        self.lat, self.lon = float(initial_pos.lat), float(initial_pos.lon)

    def world_accel(self, accel: np.ndarray, q: np.ndarray) -> np.ndarray:
        """North/east components, (n, 2), of the Butterworth-filtered accel
        rotated to the world frame by the attitude quaternions ``q``.

        Advances the filter delay lines, which the first sample of a stream
        primes at their steady state. Inputs as ``run`` checks them.
        """
        if len(accel) and self.t_last is None:
            for f, x0 in zip(self.accel_lp, accel[0].tolist()):
                f.prime(x0)
        fax, fay, faz = (f.run(accel[:, k]) for k, f in enumerate(self.accel_lp))

        qw, qx, qy, qz = q.T
        xx = qx * qx
        yy = qy * qy
        zz = qz * qz
        wx = qw * qx
        wy = qw * qy
        wz = qw * qz
        xy = qx * qy
        xz = qx * qz
        yz = qy * qz
        a = np.empty((len(accel), 2), dtype=np.float64)
        a[:, 0] = (1.0 - 2.0 * (yy + zz)) * fax + 2.0 * (xy - wz) * fay + 2.0 * (xz + wy) * faz
        a[:, 1] = 2.0 * (xy + wz) * fax + (1.0 - 2.0 * (xx + zz)) * fay + 2.0 * (yz - wx) * faz
        return a

    def blend(self, t: np.ndarray, a_world: np.ndarray, ref: GpsReference) -> NavTrack:
        """Blend world-frame accel from ``world_accel`` with the GPS reference
        of the same rows from ``prepare_gps_reference``; advances the velocity
        and position."""
        alpha, beta = self.weights.alpha, self.weights.beta
        deg_per_m = 180.0 / (math.pi * self.earth.radius_m)
        lon_scale_correction = self.lon_scale_correction
        n = len(t)
        vel = np.empty((n, 2), dtype=np.float64)
        lat_out = np.empty(n, dtype=np.float64)
        lon_out = np.empty(n, dtype=np.float64)

        init = self.t_last is not None
        vn, ve, lat, lon = self.vn, self.ve, self.lat, self.lon
        dts = np.diff(t, prepend=self.t_last if init else 0.0).tolist()
        ans, aes = a_world[:, 0].tolist(), a_world[:, 1].tolist()
        gvn = ((1.0 - alpha) * ref.ref_speed * _map(math.cos, ref.ref_theta)).tolist()
        gve = ((1.0 - alpha) * ref.ref_speed * _map(math.sin, ref.ref_theta)).tolist()
        glat = ((1.0 - beta) * ref.ref_lat).tolist()
        glon = ((1.0 - beta) * ref.ref_lon).tolist()
        hps, hvs = ref.has_pos.tolist(), ref.has_vel.tolist()
        vn_out, ve_out = vel.T

        start = 0
        if n and not init:
            # the first sample snaps to the GPS reference when one exists
            if hps[0]:
                lat = float(ref.ref_lat[0])
                lon = float(ref.ref_lon[0])
            vn_out[0], ve_out[0], lat_out[0], lon_out[0] = vn, ve, lat, lon
            start = 1

        cos = math.cos
        pi = math.pi
        for i in range(start, n):
            dt = dts[i]
            vn_i = vn + ans[i] * dt
            ve_i = ve + aes[i] * dt
            if hvs[i]:
                vn = alpha * vn_i + gvn[i]
                ve = alpha * ve_i + gve[i]
            else:
                vn = vn_i
                ve = ve_i

            lat_dr = lat + vn * dt * deg_per_m
            if lon_scale_correction:
                lon_dr = lon + ve * dt * (deg_per_m / cos(lat * pi / 180.0))
            else:
                lon_dr = lon + ve * dt * deg_per_m
            if hps[i]:
                lat = beta * lat_dr + glat[i]
                lon = beta * lon_dr + glon[i]
            else:
                lat = lat_dr
                lon = lon_dr

            vn_out[i] = vn
            ve_out[i] = ve
            lat_out[i] = lat
            lon_out[i] = lon

        if n:
            self.t_last = float(t[-1])
            self.vn, self.ve, self.lat, self.lon = vn, ve, lat, lon
        return NavTrack(t=t, vel=vel, lat=lat_out, lon=lon_out)

    def run(self, t: np.ndarray, accel: np.ndarray, q: np.ndarray, gps: GpsArrays) -> NavTrack:
        t = np.ascontiguousarray(t, dtype=np.float64)
        accel = np.ascontiguousarray(accel, dtype=np.float64)
        q = np.ascontiguousarray(q, dtype=np.float64)
        if not (np.isfinite(t).all() and np.isfinite(accel).all()):
            raise ValueError("non-finite value in accel stream")
        if not (np.abs(np.sqrt((q * q).sum(axis=1)) - 1.0) <= _UNIT_TOL).all():
            raise ValueError("attitude quaternions must be unit length")
        prev = -math.inf if self.t_last is None else self.t_last
        if len(t) and (t[0] <= prev or (np.diff(t) <= 0.0).any()):
            raise TimestampOrderError("sample timestamps must be strictly increasing")
        ref = prepare_gps_reference(t, gps, self.mode, self.stale_after_s)
        return self.blend(t, self.world_accel(accel, q), ref)
