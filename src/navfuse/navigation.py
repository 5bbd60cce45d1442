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
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field

import numpy as np

from .attitude import GRAVITY_MPS2
from .errors import InterpolationRangeError, TimestampOrderError
from .filters import BiquadCoeffs, FilterState, biquad_prime, design_butterworth2_lp
from .geo import EarthModel, GeoPoint, bearing
from .quat import Quaternion, Vec3

# Same position twice within this tolerance (degrees) is "not distinct".
DISTINCT_FIX_DEG = 1e-12

DEFAULT_STALE_AFTER_S = 3.0


@dataclass(frozen=True)
class GpsFix:
    """Timestamped GPS solution; ``course`` radians clockwise from north.

    ``alt_m`` rides along for recording purposes only and is never fused.
    """

    t: float
    pos: GeoPoint
    speed: float
    course: float | None = None
    valid: bool = True
    alt_m: float | None = None

    def __post_init__(self):
        if not math.isfinite(self.speed) or self.speed < 0.0:
            raise ValueError(f"GPS speed must be finite and >= 0, got {self.speed}")


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
    """10 Hz at the reference 1 kHz design point, else scaled to fs/6."""
    if sample_rate_hz == 1000.0:
        return 10.0
    return min(10.0, sample_rate_hz / 6.0)


def gravity_compensate(accel_body: Vec3, q: Quaternion, g: float = GRAVITY_MPS2) -> Vec3:
    """World-frame linear acceleration: rotate by q, subtract gravity (+z up)."""
    ax, ay, az = q.rotate_vector(accel_body)
    return (ax, ay, az - g)


@dataclass
class NavState:
    """Mutable per-stream navigation state for the scalar stepping API."""

    pos: GeoPoint = field(default_factory=lambda: GeoPoint(0.0, 0.0))
    vel: tuple[float, float] = (0.0, 0.0)
    t_last: float = math.nan
    filt: tuple[FilterState, FilterState, FilterState] | None = None
    last_fix: GpsFix | None = None
    distinct: tuple[GpsFix, ...] = ()   # up to two distinct-position fixes

    def observe_fix(self, fix: GpsFix) -> None:
        """Track the latest valid fix and the last two distinct positions."""
        if not fix.valid:
            return
        self.last_fix = fix
        if self.distinct:
            prev = self.distinct[-1].pos
            if (
                abs(fix.pos.lat - prev.lat) < DISTINCT_FIX_DEG
                and abs(fix.pos.lon - prev.lon) < DISTINCT_FIX_DEG
            ):
                return
        self.distinct = (*self.distinct[-1:], fix)

    def fix_bearing(self) -> float | None:
        if len(self.distinct) < 2:
            return None
        return bearing(self.distinct[0].pos, self.distinct[1].pos)


def velocity_step(
    state: NavState,
    a_world: Vec3,
    dt: float,
    gps: GpsFix | None,
    w: BlendWeights,
    stale_after_s: float = DEFAULT_STALE_AFTER_S,
) -> tuple[float, float]:
    """One velocity update; pure integration when no usable GPS term exists."""
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    vn, ve = state.vel
    vn_i = vn + a_world[0] * dt
    ve_i = ve + a_world[1] * dt
    if gps is not None and gps.valid:
        state.observe_fix(gps)
    theta = state.fix_bearing()
    fix = state.last_fix
    fresh = fix is not None and (state.t_last + dt) - fix.t <= stale_after_s
    if theta is None or not fresh:
        return (vn_i, ve_i)
    speed = fix.speed
    return (
        w.alpha * vn_i + (1.0 - w.alpha) * speed * math.cos(theta),
        w.alpha * ve_i + (1.0 - w.alpha) * speed * math.sin(theta),
    )


def position_step(
    state: NavState,
    v: tuple[float, float],
    dt: float,
    gps_ref: GeoPoint | None,
    w: BlendWeights,
    earth: EarthModel = EarthModel(),
    lon_scale_correction: bool = False,
) -> GeoPoint:
    """One displacement update; dead reckoning when no reference is given."""
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    k = 180.0 / (math.pi * earth.radius_m)
    lat_dr = state.pos.lat + v[0] * dt * k
    k_lon = k / math.cos(math.radians(state.pos.lat)) if lon_scale_correction else k
    lon_dr = state.pos.lon + v[1] * dt * k_lon
    if gps_ref is None:
        return GeoPoint(lat_dr, lon_dr)
    return GeoPoint(
        w.beta * lat_dr + (1.0 - w.beta) * gps_ref.lat,
        w.beta * lon_dr + (1.0 - w.beta) * gps_ref.lon,
    )


def nav_step(
    state: NavState,
    t: float,
    accel_body: Vec3,
    q: Quaternion,
    gps: GpsFix | None,
    w: BlendWeights,
    coeffs: BiquadCoeffs | None = None,
    earth: EarthModel = EarthModel(),
    lon_scale_correction: bool = False,
    stale_after_s: float = DEFAULT_STALE_AFTER_S,
) -> NavState:
    """Full per-sample position pipeline operating on a NavState in place."""
    if state.filt is None:
        if coeffs is None:
            raise ValueError("first nav_step needs Butterworth coefficients")
        state.filt = (FilterState(coeffs), FilterState(coeffs), FilterState(coeffs))
        for f, x in zip(state.filt, accel_body):
            f.prime(x)
    if not math.isnan(state.t_last) and t <= state.t_last:
        raise TimestampOrderError(f"sample time {t} not after {state.t_last}")
    if math.isnan(state.t_last):
        # First sample: snap to the GPS reference when one exists.
        if gps is not None and gps.valid:
            state.observe_fix(gps)
            state.pos = gps.pos
        state.t_last = t
        return state
    dt = t - state.t_last
    filtered = tuple(f.step(x) for f, x in zip(state.filt, accel_body))
    a_world = gravity_compensate(filtered, q)
    state.vel = velocity_step(state, a_world, dt, gps, w, stale_after_s)
    fix = state.last_fix
    fresh = fix is not None and t - fix.t <= stale_after_s
    ref = fix.pos if fresh else None
    state.pos = position_step(state, state.vel, dt, ref, w, earth, lon_scale_correction)
    state.t_last = t
    return state


def interpolate_gps(fixes: list[GpsFix], t: float) -> GeoPoint:
    """Piecewise-linear lat/lon between valid fixes; no extrapolation."""
    valid = [f for f in fixes if f.valid]
    if len(valid) < 2:
        raise ValueError("interpolation needs at least 2 valid fixes")
    times = [f.t for f in valid]
    if any(b <= a for a, b in zip(times, times[1:])):
        raise TimestampOrderError("fix timestamps must be strictly increasing")
    if t < times[0] or t > times[-1]:
        raise InterpolationRangeError(f"t={t} outside fix span [{times[0]}, {times[-1]}]")
    i = bisect.bisect_right(times, t) - 1
    if i == len(valid) - 1:
        return valid[-1].pos
    if t == times[i]:
        return valid[i].pos
    a, b = valid[i], valid[i + 1]
    u = (t - a.t) / (b.t - a.t)
    return GeoPoint(a.pos.lat + u * (b.pos.lat - a.pos.lat), a.pos.lon + u * (b.pos.lon - a.pos.lon))


@dataclass(frozen=True)
class GpsReference:
    """Per-sample reference arrays feeding ``nav_run``."""

    ref_lat: np.ndarray     # (n,)
    ref_lon: np.ndarray     # (n,)
    has_pos: np.ndarray     # (n,) uint8
    ref_speed: np.ndarray   # (n,)
    ref_theta: np.ndarray   # (n,)
    has_vel: np.ndarray     # (n,) uint8


def prepare_gps_reference(
    t: np.ndarray,
    fixes: list[GpsFix],
    mode: str = "live",
    stale_after_s: float = DEFAULT_STALE_AFTER_S,
) -> GpsReference:
    """Resolve, per sample, which GPS terms the blend may use.

    mode "live" holds the latest fresh fix; mode "replay" interpolates the
    fix track for the position reference (velocity stays fix-based).
    """
    if mode not in ("live", "replay"):
        raise ValueError(f"unknown GPS reference mode {mode!r}")
    n = len(t)
    out = GpsReference(
        ref_lat=np.zeros(n), ref_lon=np.zeros(n), has_pos=np.zeros(n, dtype=np.uint8),
        ref_speed=np.zeros(n), ref_theta=np.zeros(n), has_vel=np.zeros(n, dtype=np.uint8),
    )
    valid = [f for f in fixes if f.valid]
    if not valid:
        return out
    ft = np.array([f.t for f in valid])
    if (np.diff(ft) <= 0.0).any():
        raise TimestampOrderError("fix timestamps must be strictly increasing")
    flat = np.array([f.pos.lat for f in valid])
    flon = np.array([f.pos.lon for f in valid])
    fspeed = np.array([f.speed for f in valid])

    # Bearing of the last two distinct-position fixes, evaluated at each fix.
    theta_at = np.zeros(len(valid))
    has_theta = np.zeros(len(valid), dtype=bool)
    anchor = valid[0]
    for j in range(1, len(valid)):
        f = valid[j]
        moved = (
            abs(f.pos.lat - anchor.pos.lat) >= DISTINCT_FIX_DEG
            or abs(f.pos.lon - anchor.pos.lon) >= DISTINCT_FIX_DEG
        )
        if moved:
            theta_at[j] = bearing(anchor.pos, f.pos)
            has_theta[j] = True
            anchor = f
        else:
            theta_at[j] = theta_at[j - 1]
            has_theta[j] = has_theta[j - 1]

    idx = np.searchsorted(ft, t, side="right") - 1
    usable = idx >= 0
    safe = np.maximum(idx, 0)
    fresh = usable & ((t - ft[safe]) <= stale_after_s)

    out.has_vel[:] = (fresh & has_theta[safe]).astype(np.uint8)
    out.ref_speed[:] = np.where(out.has_vel, fspeed[safe], 0.0)
    out.ref_theta[:] = np.where(out.has_vel, theta_at[safe], 0.0)

    if mode == "live":
        out.has_pos[:] = fresh.astype(np.uint8)
        out.ref_lat[:] = np.where(fresh, flat[safe], 0.0)
        out.ref_lon[:] = np.where(fresh, flon[safe], 0.0)
    else:
        if len(valid) >= 2:
            covered = (t >= ft[0]) & (t <= ft[-1])
            out.has_pos[:] = covered.astype(np.uint8)
            out.ref_lat[:] = np.where(covered, np.interp(t, ft, flat), 0.0)
            out.ref_lon[:] = np.where(covered, np.interp(t, ft, flon), 0.0)
    return out


def nav_run(
    t, acc, quat,
    ref_lat, ref_lon, has_pos,
    ref_speed, ref_theta, has_vel,
    bw, alpha, beta, deg_per_m, lon_scale_correction, state,
):
    """One pass of the position fusion loop over a stream of n samples.

    The GPS reference columns come from ``prepare_gps_reference``. ``state``
    (``NavEstimator.STATE_LEN`` floats) carries the filter, velocity and
    position state between calls and is updated in place. Returns the (n, 2)
    north/east velocities and the (n,) latitudes and longitudes.
    """
    n = len(t)
    vel = np.empty((n, 2), dtype=np.float64)
    lat_out = np.empty(n, dtype=np.float64)
    lon_out = np.empty(n, dtype=np.float64)

    b0, b1, b2, a1, a2 = bw
    ts = t.tolist()
    axs, ays, azs = acc[:, 0].tolist(), acc[:, 1].tolist(), acc[:, 2].tolist()
    qws, qxs, qys, qzs = (quat[:, j].tolist() for j in range(4))
    rlats, rlons, hps = ref_lat.tolist(), ref_lon.tolist(), has_pos.tolist()
    rspd, rth, hvs = ref_speed.tolist(), ref_theta.tolist(), has_vel.tolist()

    init = state[0] != 0.0
    t_last = state[1]
    vn, ve = state[2], state[3]
    lat, lon = state[4], state[5]
    fx1, fx2, fy1, fy2, fz1, fz2 = state[6], state[7], state[8], state[9], state[10], state[11]

    for i in range(n):
        ti = ts[i]
        ax, ay, az = axs[i], ays[i], azs[i]

        if not init:
            fx1, fx2 = biquad_prime(b0, b1, b2, a1, a2, ax)
            fy1, fy2 = biquad_prime(b0, b1, b2, a1, a2, ay)
            fz1, fz2 = biquad_prime(b0, b1, b2, a1, a2, az)

        fax = b0 * ax + fx1
        fx1 = b1 * ax - a1 * fax + fx2
        fx2 = b2 * ax - a2 * fax
        fay = b0 * ay + fy1
        fy1 = b1 * ay - a1 * fay + fy2
        fy2 = b2 * ay - a2 * fay
        faz = b0 * az + fz1
        fz1 = b1 * az - a1 * faz + fz2
        fz2 = b2 * az - a2 * faz

        if not init:
            if hps[i]:
                lat = rlats[i]
                lon = rlons[i]
            init = True
        else:
            dt = ti - t_last
            qw, qx, qy, qz = qws[i], qxs[i], qys[i], qzs[i]
            xx = qx * qx
            yy = qy * qy
            zz = qz * qz
            wx = qw * qx
            wy = qw * qy
            wz = qw * qz
            xy = qx * qy
            xz = qx * qz
            yz = qy * qz
            a_n = (1.0 - 2.0 * (yy + zz)) * fax + 2.0 * (xy - wz) * fay + 2.0 * (xz + wy) * faz
            a_e = 2.0 * (xy + wz) * fax + (1.0 - 2.0 * (xx + zz)) * fay + 2.0 * (yz - wx) * faz

            vn_i = vn + a_n * dt
            ve_i = ve + a_e * dt
            if hvs[i]:
                vn = alpha * vn_i + (1.0 - alpha) * rspd[i] * math.cos(rth[i])
                ve = alpha * ve_i + (1.0 - alpha) * rspd[i] * math.sin(rth[i])
            else:
                vn = vn_i
                ve = ve_i

            lat_dr = lat + vn * dt * deg_per_m
            if lon_scale_correction:
                lon_dr = lon + ve * dt * (deg_per_m / math.cos(lat * math.pi / 180.0))
            else:
                lon_dr = lon + ve * dt * deg_per_m
            if hps[i]:
                lat = beta * lat_dr + (1.0 - beta) * rlats[i]
                lon = beta * lon_dr + (1.0 - beta) * rlons[i]
            else:
                lat = lat_dr
                lon = lon_dr

        t_last = ti
        vel[i, 0] = vn
        vel[i, 1] = ve
        lat_out[i] = lat
        lon_out[i] = lon

    state[0] = 1.0 if init else 0.0
    state[1] = t_last
    state[2], state[3] = vn, ve
    state[4], state[5] = lat, lon
    state[6], state[7], state[8] = fx1, fx2, fy1
    state[9], state[10], state[11] = fy2, fz1, fz2
    return vel, lat_out, lon_out


@dataclass(frozen=True)
class NavTrack:
    """Batch position-fusion output, one row per input sample."""

    t: np.ndarray
    vel: np.ndarray   # (n, 2) v_north, v_east m/s
    lat: np.ndarray
    lon: np.ndarray


class NavEstimator:
    """Batch position fusion over an IMU stream with attitude and GPS inputs."""

    STATE_LEN = 12

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
        c = coeffs or design_butterworth2_lp(
            cutoff_hz or default_position_cutoff_hz(sample_rate_hz), sample_rate_hz
        )
        self.coeffs = c
        self._bw = (c.b0, c.b1, c.b2, c.a1, c.a2)
        self._state = np.zeros(self.STATE_LEN, dtype=np.float64)
        self._state[2] = initial_vel[0]
        self._state[3] = initial_vel[1]
        self._state[4] = initial_pos.lat
        self._state[5] = initial_pos.lon

    def run(self, t: np.ndarray, accel: np.ndarray, q: np.ndarray, fixes: list[GpsFix]) -> NavTrack:
        t = np.ascontiguousarray(t, dtype=np.float64)
        accel = np.ascontiguousarray(accel, dtype=np.float64)
        q = np.ascontiguousarray(q, dtype=np.float64)
        if not (np.isfinite(t).all() and np.isfinite(accel).all()):
            raise ValueError("non-finite value in accel stream")
        prev = self._state[1] if self._state[0] != 0.0 else -math.inf
        if len(t) and (t[0] <= prev or (np.diff(t) <= 0.0).any()):
            raise TimestampOrderError("sample timestamps must be strictly increasing")
        ref = prepare_gps_reference(t, fixes, self.mode, self.stale_after_s)
        vel, lat, lon = nav_run(
            t, accel, q,
            ref.ref_lat, ref.ref_lon, ref.has_pos,
            ref.ref_speed, ref.ref_theta, ref.has_vel,
            self._bw,
            self.weights.alpha, self.weights.beta,
            180.0 / (math.pi * self.earth.radius_m),
            self.lon_scale_correction,
            self._state,
        )
        return NavTrack(t=t, vel=vel, lat=lat, lon=lon)
