"""Orientation pipeline: pre-filtered accelerometer tilt and high-passed gyro
rates fused per-axis by complementary blending, with gyro-integrated yaw
corrected by tilt-compensated magnetometer heading, emitted as a quaternion
stream.

Per-sample update (after the low-pass/high-pass pre-filters):

    roll  = g_rp * (roll  + p * dt) + (1 - g_rp) * roll_accel
    pitch = g_rp * (pitch + q * dt) + (1 - g_rp) * pitch_accel
    yaw   = g_yw * (yaw   + r * dt) + (1 - g_yw) * heading_mag

computed on the shortest angular arc. The yaw channel integrates the raw
body-z rate: an explicit high-pass there would cancel real sustained turn
rates along with the bias the magnetometer is meant to correct, so the
high-pass pre-filter is applied to the roll/pitch rate channels only. Without
a magnetometer sample the yaw update degrades to pure rate integration and
drifts with the gyro bias.

Gyro axis mapping is x -> roll rate, y -> pitch rate, z -> yaw rate (body
frame, right-handed, z up: a level sensor reads accel (0, 0, +g)).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import TimestampOrderError, UnobservableHeadingError, UnobservableTiltError
from .filters import biquad_prime, design_first_order_hp, design_first_order_lp
from .quat import EulerAngles, Quaternion, Vec3, wrap_pi

log = logging.getLogger(__name__)

GRAVITY_MPS2 = 9.80665

# Below 0.1 g the gravity direction is unobservable (free fall / hard maneuver).
MIN_TILT_ACCEL_MPS2 = 0.1 * GRAVITY_MPS2
MIN_HORIZONTAL_FIELD = 1e-9

# Timestamp gaps longer than this skip the gyro term (reference-only update).
MAX_GYRO_GAP_S = 1.0

# Per-sample condition flags reported by the fusion loop.
FLAG_GAP = 0x01
FLAG_NO_TILT_REF = 0x02
FLAG_NO_HEADING_REF = 0x04


@dataclass(frozen=True)
class ImuSample:
    """Timestamped 9-axis reading; mag is optional per sample.

    Units: t seconds, accel m/s^2, gyro rad/s, mag any consistent unit
    (gauss on the wire).
    """

    t: float
    accel: Vec3
    gyro: Vec3
    mag: Vec3 | None = None

    def __post_init__(self):
        vals = (self.t, *self.accel, *self.gyro, *(self.mag or ()))
        if not all(math.isfinite(v) for v in vals):
            raise ValueError("ImuSample components must be finite")


class ImuArrays(NamedTuple):
    """An IMU stream as column arrays sharing the row index, in the order
    ``AttitudeEstimator.run`` takes them; units as for ``ImuSample``. Rows
    without a magnetometer reading have ``has_mag`` 0 and a zero ``mag``.
    """

    t: np.ndarray         # (n,) seconds
    accel: np.ndarray     # (n, 3)
    gyro: np.ndarray      # (n, 3)
    mag: np.ndarray       # (n, 3)
    has_mag: np.ndarray   # (n,) uint8

    @property
    def t_ms(self) -> np.ndarray:
        return np.rint(self.t * 1000.0).astype(np.int64)


@dataclass(frozen=True)
class FusionGains:
    """Complementary gains: 1.0 = all gyro, 0.0 = all reference."""

    gamma_rp: float = 0.98
    gamma_yaw: float = 0.98

    def __post_init__(self):
        for name in ("gamma_rp", "gamma_yaw"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {v}")


@dataclass(frozen=True)
class AttitudeState:
    """Snapshot of the estimator after a step."""

    q: Quaternion
    euler: EulerAngles
    t_last: float


def _tilt_from_accel(ax: float, ay: float, az: float) -> tuple[float, float]:
    """(roll, pitch) from a gravity-dominated accel reading; NaNs if too weak.

    Shared by the public helper (which raises) and the fusion loops (which
    flag and hold the previous estimate).
    """
    if ax * ax + ay * ay + az * az <= MIN_TILT_ACCEL_MPS2 * MIN_TILT_ACCEL_MPS2:
        return math.nan, math.nan
    roll = math.atan2(ay, az)
    pitch = math.atan2(-ax, math.sqrt(ay * ay + az * az))
    return roll, pitch


def _heading_from_mag(mx: float, my: float, mz: float, roll: float, pitch: float) -> float:
    """Tilt-compensated heading, NaN if the horizontal field vanishes.

    De-rotates the body-frame field by roll then pitch and reads the yaw
    angle that aligns the horizontal component with magnetic north.
    """
    cr = math.cos(roll)
    sr = math.sin(roll)
    cp = math.cos(pitch)
    sp = math.sin(pitch)
    ty = my * cr - mz * sr
    tz = my * sr + mz * cr
    mxp = mx * cp + tz * sp
    myp = ty
    if mxp * mxp + myp * myp < MIN_HORIZONTAL_FIELD * MIN_HORIZONTAL_FIELD:
        return math.nan
    return math.atan2(-myp, mxp)


def accel_to_roll_pitch(accel: Sequence[float]) -> tuple[float, float]:
    """Gravity-referenced (roll, pitch) in radians.

    Raises UnobservableTiltError below 0.1 g so the caller can hold its
    previous estimate.
    """
    roll, pitch = _tilt_from_accel(accel[0], accel[1], accel[2])
    if math.isnan(roll):
        raise UnobservableTiltError("accelerometer magnitude below 0.1 g")
    return roll, pitch


def mag_to_heading(mag: Sequence[float], roll: float, pitch: float) -> float:
    """Tilt-compensated magnetic heading in (-pi, pi]; 0 = north, pi/2 = east."""
    if not (math.isfinite(roll) and math.isfinite(pitch)):
        raise ValueError("roll/pitch must be finite")
    h = _heading_from_mag(mag[0], mag[1], mag[2], roll, pitch)
    if math.isnan(h):
        raise UnobservableHeadingError("horizontal magnetic field too small")
    return wrap_pi(h)


def complementary_angle(prev: float, rate: float, dt: float, reference: float, gain: float) -> float:
    """Wrap-aware blend gain*(prev + rate*dt) + (1-gain)*reference, in (-pi, pi].

    The blend walks the shortest arc between the propagated angle and the
    reference. Boundary gains short-circuit so 0 returns the reference and 1
    the propagation exactly.
    """
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    if gain == 1.0:
        return wrap_pi(prev + rate * dt)
    if gain == 0.0:
        return wrap_pi(reference)
    prop = prev + rate * dt
    delta = wrap_pi(reference - prop)
    return wrap_pi(prop + (1.0 - gain) * delta)


def attitude_run(t, acc, gyr, mag, has_mag, lp, hp, gamma_rp, gamma_yaw, declination, state):
    """One pass of the attitude fusion loop over a stream of n samples.

    ``state`` (``AttitudeEstimator.STATE_LEN`` floats) carries the filter and
    angle state between calls and is updated in place. Returns the (n, 3)
    Euler angles, the (n, 4) quaternions and the (n,) uint8 FLAG_* bits.
    """
    n = len(t)
    euler = np.empty((n, 3), dtype=np.float64)
    q = np.empty((n, 4), dtype=np.float64)
    flags = np.zeros(n, dtype=np.uint8)

    lb0, lb1, lb2, la1, la2 = lp
    hb0, hb1, hb2, ha1, ha2 = hp

    ts = t.tolist()
    axs, ays, azs = acc[:, 0].tolist(), acc[:, 1].tolist(), acc[:, 2].tolist()
    gxs, gys, gzs = gyr[:, 0].tolist(), gyr[:, 1].tolist(), gyr[:, 2].tolist()
    mxs, mys, mzs = mag[:, 0].tolist(), mag[:, 1].tolist(), mag[:, 2].tolist()
    hms = has_mag.tolist()

    init = state[0] != 0.0
    t_last = state[1]
    roll, pitch, yaw = state[2], state[3], state[4]
    lx1, lx2, ly1, ly2, lz1, lz2 = state[5], state[6], state[7], state[8], state[9], state[10]
    hx1, hx2, hy1, hy2 = state[11], state[12], state[13], state[14]

    for i in range(n):
        ti = ts[i]
        ax, ay, az = axs[i], ays[i], azs[i]
        gx, gy, gz = gxs[i], gys[i], gzs[i]
        fl = 0

        if not init:
            lx1, lx2 = biquad_prime(lb0, lb1, lb2, la1, la2, ax)
            ly1, ly2 = biquad_prime(lb0, lb1, lb2, la1, la2, ay)
            lz1, lz2 = biquad_prime(lb0, lb1, lb2, la1, la2, az)
            hx1, hx2 = biquad_prime(hb0, hb1, hb2, ha1, ha2, gx)
            hy1, hy2 = biquad_prime(hb0, hb1, hb2, ha1, ha2, gy)

        fax = lb0 * ax + lx1
        lx1 = lb1 * ax - la1 * fax + lx2
        lx2 = lb2 * ax - la2 * fax
        fay = lb0 * ay + ly1
        ly1 = lb1 * ay - la1 * fay + ly2
        ly2 = lb2 * ay - la2 * fay
        faz = lb0 * az + lz1
        lz1 = lb1 * az - la1 * faz + lz2
        lz2 = lb2 * az - la2 * faz
        fgx = hb0 * gx + hx1
        hx1 = hb1 * gx - ha1 * fgx + hx2
        hx2 = hb2 * gx - ha2 * fgx
        fgy = hb0 * gy + hy1
        hy1 = hb1 * gy - ha1 * fgy + hy2
        hy2 = hb2 * gy - ha2 * fgy

        rref, pref = _tilt_from_accel(fax, fay, faz)
        tilt_ok = not math.isnan(rref)

        if not init:
            roll = rref if tilt_ok else 0.0
            pitch = pref if tilt_ok else 0.0
            if not tilt_ok:
                fl |= FLAG_NO_TILT_REF
            yaw = 0.0
            if hms[i]:
                h = _heading_from_mag(mxs[i], mys[i], mzs[i], roll, pitch)
                if math.isnan(h):
                    fl |= FLAG_NO_HEADING_REF
                else:
                    yaw = wrap_pi(h + declination)
            init = True
        else:
            dt = ti - t_last
            gap = dt > MAX_GYRO_GAP_S
            if gap:
                fl |= FLAG_GAP
            if not tilt_ok:
                fl |= FLAG_NO_TILT_REF
            if gap:
                if tilt_ok:
                    roll = rref
                    pitch = pref
            elif tilt_ok:
                roll = complementary_angle(roll, fgx, dt, rref, gamma_rp)
                pitch = complementary_angle(pitch, fgy, dt, pref, gamma_rp)
            else:
                roll = wrap_pi(roll + fgx * dt)
                pitch = wrap_pi(pitch + fgy * dt)
            heading_ok = False
            h = 0.0
            if hms[i]:
                h = _heading_from_mag(mxs[i], mys[i], mzs[i], roll, pitch)
                heading_ok = not math.isnan(h)
                if not heading_ok:
                    fl |= FLAG_NO_HEADING_REF
            if heading_ok:
                href = wrap_pi(h + declination)
                yaw = href if gap else complementary_angle(yaw, gz, dt, href, gamma_yaw)
            elif not gap:
                yaw = wrap_pi(yaw + gz * dt)

        t_last = ti

        # from_euler (two Hamilton products) then normalize with w >= 0.
        czw = math.cos(0.5 * yaw)
        szw = math.sin(0.5 * yaw)
        cpw = math.cos(0.5 * pitch)
        spw = math.sin(0.5 * pitch)
        crw = math.cos(0.5 * roll)
        srw = math.sin(0.5 * roll)
        # h1 = qz * qy with qz = (czw, 0, 0, szw), qy = (cpw, 0, spw, 0)
        h1w = czw * cpw - 0.0 * 0.0 - 0.0 * spw - szw * 0.0
        h1x = czw * 0.0 + 0.0 * cpw + 0.0 * 0.0 - szw * spw
        h1y = czw * spw - 0.0 * 0.0 + 0.0 * cpw + szw * 0.0
        h1z = czw * 0.0 + 0.0 * spw - 0.0 * 0.0 + szw * cpw
        # q = h1 * qx with qx = (crw, srw, 0, 0)
        qw = h1w * crw - h1x * srw - h1y * 0.0 - h1z * 0.0
        qx = h1w * srw + h1x * crw + h1y * 0.0 - h1z * 0.0
        qy = h1w * 0.0 - h1x * 0.0 + h1y * crw + h1z * srw
        qz = h1w * 0.0 + h1x * 0.0 - h1y * srw + h1z * crw
        norm = math.sqrt(qw * qw + qx * qx + qy * qy + qz * qz)
        qw, qx, qy, qz = qw / norm, qx / norm, qy / norm, qz / norm
        if qw < 0.0:
            qw, qx, qy, qz = -qw, -qx, -qy, -qz

        euler[i, 0] = roll
        euler[i, 1] = pitch
        euler[i, 2] = yaw
        q[i, 0] = qw
        q[i, 1] = qx
        q[i, 2] = qy
        q[i, 3] = qz
        flags[i] = fl

    state[0] = 1.0 if init else 0.0
    state[1] = t_last
    state[2], state[3], state[4] = roll, pitch, yaw
    state[5], state[6], state[7], state[8] = lx1, lx2, ly1, ly2
    state[9], state[10], state[11], state[12] = lz1, lz2, hx1, hx2
    state[13], state[14] = hy1, hy2
    return euler, q, flags


@dataclass(frozen=True)
class AttitudeTrack:
    """Batch fusion output, one row per input sample."""

    t: np.ndarray        # (n,) seconds
    euler: np.ndarray    # (n, 3) roll, pitch, yaw radians
    q: np.ndarray        # (n, 4) w, x, y, z
    flags: np.ndarray    # (n,) uint8 FLAG_* bits


class AttitudeEstimator:
    """Stateful orientation fusion over an IMU stream.

    The first sample initializes roll/pitch from the accelerometer and yaw
    from the magnetometer (0 if absent) and primes the pre-filters at their
    DC steady state, so a stream that starts at rest has no startup
    transient.
    """

    STATE_LEN = 16

    def __init__(
        self,
        gains: FusionGains = FusionGains(),
        sample_rate_hz: float = 60.0,
        accel_lp_hz: float = 5.0,
        gyro_hp_hz: float = 0.1,
        declination_rad: float = 0.0,
        hard_iron: Vec3 = (0.0, 0.0, 0.0),
    ):
        self.gains = gains
        self.declination_rad = declination_rad
        self.hard_iron = tuple(hard_iron)
        lp = design_first_order_lp(accel_lp_hz, sample_rate_hz)
        hp = design_first_order_hp(gyro_hp_hz, sample_rate_hz)
        self._lp = (lp.b0, lp.b1, lp.b2, lp.a1, lp.a2)
        self._hp = (hp.b0, hp.b1, hp.b2, hp.a1, hp.a2)
        self._state = np.zeros(self.STATE_LEN, dtype=np.float64)

    @property
    def state(self) -> AttitudeState | None:
        """Current snapshot, or None before the first sample."""
        if self._state[0] == 0.0:
            return None
        e = EulerAngles(self._state[2], self._state[3], self._state[4])
        return AttitudeState(q=Quaternion.from_euler(e).normalize(), euler=e, t_last=self._state[1])

    def reset(self) -> None:
        self._state[:] = 0.0

    def step(self, s: ImuSample) -> AttitudeState:
        """Advance by one sample; timestamps must be strictly increasing."""
        mag = s.mag if s.mag is not None else (0.0, 0.0, 0.0)
        track = self.run(
            np.array([s.t]),
            np.array([s.accel]),
            np.array([s.gyro]),
            np.array([mag]),
            np.array([s.mag is not None], dtype=np.uint8),
        )
        e = EulerAngles(*track.euler[0])
        return AttitudeState(q=Quaternion(*track.q[0]), euler=e, t_last=s.t)

    def run(
        self,
        t: np.ndarray,
        accel: np.ndarray,
        gyro: np.ndarray,
        mag: np.ndarray | None = None,
        has_mag: np.ndarray | None = None,
    ) -> AttitudeTrack:
        """Fuse a whole stream at once (arrays share the row index)."""
        t = np.ascontiguousarray(t, dtype=np.float64)
        n = t.shape[0]
        accel = np.ascontiguousarray(accel, dtype=np.float64)
        gyro = np.ascontiguousarray(gyro, dtype=np.float64)
        if mag is None:
            mag = np.zeros((n, 3))
            has_mag = np.zeros(n, dtype=np.uint8)
        if has_mag is None:
            has_mag = np.ones(n, dtype=np.uint8)
        mag = np.ascontiguousarray(mag, dtype=np.float64)
        has_mag = np.ascontiguousarray(has_mag, dtype=np.uint8)

        if not (np.isfinite(t).all() and np.isfinite(accel).all() and np.isfinite(gyro).all()):
            raise ValueError("non-finite value in IMU stream")
        prev = self._state[1] if self._state[0] != 0.0 else -math.inf
        if n and (t[0] <= prev or (np.diff(t) <= 0.0).any()):
            raise TimestampOrderError("IMU timestamps must be strictly increasing")

        if any(self.hard_iron):
            mag = mag - np.asarray(self.hard_iron)

        euler, q, flags = attitude_run(
            t, accel, gyro, mag, has_mag,
            self._lp, self._hp,
            self.gains.gamma_rp, self.gains.gamma_yaw,
            self.declination_rad,
            self._state,
        )
        gaps = int((flags & FLAG_GAP).astype(bool).sum())
        if gaps:
            log.warning("%d sample gap(s) over %.1f s: gyro term skipped", gaps, MAX_GYRO_GAP_S)
        return AttitudeTrack(t=t, euler=euler, q=q, flags=flags)
