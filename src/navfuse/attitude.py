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

``AttitudeEstimator.run`` makes array passes over whole columns for the
parts that do not depend on the recursive state: the pre-filters
(``FilterState.run``), the tilt reference of the filtered accel and the
Euler-to-quaternion assembly. Only the complementary blend with its gap,
tilt and heading branches, and the magnetometer heading, which needs the
current roll and pitch, loop over the rows. The output is bit-identical to a
per-sample loop: numpy does only + - * / and sqrt, which IEEE 754 rounds
exactly, and every transcendental (atan2, cos, sin) is ``math.*`` mapped
over the column, since numpy's vectorised versions may differ in the last
bit.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import TimestampOrderError, UnobservableHeadingError, UnobservableTiltError
from .filters import FilterState, design_first_order_hp, design_first_order_lp
from .quat import Vec3, wrap_pi

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


class ImuArrays(NamedTuple):
    """An IMU stream as column arrays sharing the row index, in the order
    ``AttitudeEstimator.run`` takes them. Units: t seconds, accel m/s^2, gyro
    rad/s, mag any consistent unit (gauss on the wire). Rows without a
    magnetometer reading have ``has_mag`` 0 and a zero ``mag``.
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


def _map(fn, *cols) -> np.ndarray:
    """``math`` function ``fn`` over float64 columns, element by element."""
    return np.fromiter(map(fn, *(c.tolist() for c in cols)), dtype=np.float64, count=len(cols[0]))


def _tilt_from_accel(ax: np.ndarray, ay: np.ndarray, az: np.ndarray):
    """Per-row (roll, pitch) of gravity-dominated accel columns, and the mask
    of the rows where they are observable (accel above 0.1 g).

    Shared by the public helper (which raises) and the fusion loop (which
    flags and holds the previous estimate).
    """
    ok = ~(ax * ax + ay * ay + az * az <= MIN_TILT_ACCEL_MPS2 * MIN_TILT_ACCEL_MPS2)
    roll = _map(math.atan2, ay, az)
    pitch = _map(math.atan2, -ax, np.sqrt(ay * ay + az * az))
    return roll, pitch, ok


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
    roll, pitch, ok = _tilt_from_accel(*np.array(accel[:3], dtype=np.float64)[:, None])
    if not ok[0]:
        raise UnobservableTiltError("accelerometer magnitude below 0.1 g")
    return float(roll[0]), float(pitch[0])


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


def _quat_from_euler(euler: np.ndarray) -> np.ndarray:
    """(n, 4) unit quaternions, ``w >= 0``, of (n, 3) roll/pitch/yaw rows.

    Column for column the operations of ``Quaternion.from_euler`` (two
    Hamilton products, the ``0.0 * 0.0`` terms included) and ``normalize``,
    so every element is bit-identical to the scalar path.
    """
    half = 0.5 * euler
    crw, cpw, czw = (_map(math.cos, half[:, k]) for k in range(3))
    srw, spw, szw = (_map(math.sin, half[:, k]) for k in range(3))
    # h1 = qz * qy with qz = (czw, 0, 0, szw), qy = (cpw, 0, spw, 0)
    h1w = czw * cpw - 0.0 * 0.0 - 0.0 * spw - szw * 0.0
    h1x = czw * 0.0 + 0.0 * cpw + 0.0 * 0.0 - szw * spw
    h1y = czw * spw - 0.0 * 0.0 + 0.0 * cpw + szw * 0.0
    h1z = czw * 0.0 + 0.0 * spw - 0.0 * 0.0 + szw * cpw
    # q = h1 * qx with qx = (crw, srw, 0, 0)
    q = np.empty((len(euler), 4), dtype=np.float64)
    q[:, 0] = h1w * crw - h1x * srw - h1y * 0.0 - h1z * 0.0
    q[:, 1] = h1w * srw + h1x * crw + h1y * 0.0 - h1z * 0.0
    q[:, 2] = h1w * 0.0 - h1x * 0.0 + h1y * crw + h1z * srw
    q[:, 3] = h1w * 0.0 + h1x * 0.0 - h1y * srw + h1z * crw
    qw, qx, qy, qz = q.T
    q /= np.sqrt(qw * qw + qx * qx + qy * qy + qz * qz)[:, None]
    neg = q[:, 0] < 0.0
    q[neg] = -q[neg]
    return q


def _attitude_blend(start, dt, gap, tilt_ok, rref, pref, fgx, fgy, gz, mag, has_mag,
                    gamma_rp, gamma_yaw, declination, angles, euler, flags):
    """The recursive part of ``AttitudeEstimator.run``: the complementary
    blend of each row from ``start`` on, the first row of a stream initialised
    when ``start`` is 1. Writes the angles into ``euler`` and the heading flags
    into ``flags``; returns the last (roll, pitch, yaw). A function of its own so
    that its per-row Python lists are freed before the quaternion pass.

    ``wrap_pi`` and ``complementary_angle`` are written out in the branch that
    blends with a gain strictly inside (0, 1); gains of exactly 0 and 1 go
    through ``complementary_angle`` for its short cut.
    """
    fmod, isnan = math.fmod, math.isnan
    pi = math.pi
    two_pi = 2.0 * math.pi
    roll, pitch, yaw = angles
    rp_blend = 0.0 < gamma_rp < 1.0
    yaw_blend = 0.0 < gamma_yaw < 1.0
    c_rp = 1.0 - gamma_rp
    c_yaw = 1.0 - gamma_yaw
    dts, gaps, oks = dt.tolist(), gap.tolist(), tilt_ok.tolist()
    rrefs, prefs, fgxs, fgys, gzs = rref.tolist(), pref.tolist(), fgx.tolist(), fgy.tolist(), gz.tolist()
    mxs, mys, mzs = mag[:, 0].tolist(), mag[:, 1].tolist(), mag[:, 2].tolist()
    hms = has_mag.tolist()
    roll_out, pitch_out, yaw_out = euler.T

    if start:
        roll = rrefs[0] if oks[0] else 0.0
        pitch = prefs[0] if oks[0] else 0.0
        yaw = 0.0
        if hms[0]:
            h = _heading_from_mag(mxs[0], mys[0], mzs[0], roll, pitch)
            if math.isnan(h):
                flags[0] |= FLAG_NO_HEADING_REF
            else:
                yaw = wrap_pi(h + declination)
        roll_out[0], pitch_out[0], yaw_out[0] = roll, pitch, yaw

    for i in range(start, len(dts)):
        dt = dts[i]
        is_gap = gaps[i]
        if is_gap:
            if oks[i]:
                roll = rrefs[i]
                pitch = prefs[i]
        elif oks[i]:
            if rp_blend:
                prop = roll + fgxs[i] * dt
                r = fmod(rrefs[i] - prop + pi, two_pi)
                if r <= 0.0:
                    r += two_pi
                r = fmod(prop + c_rp * (r - pi) + pi, two_pi)
                if r <= 0.0:
                    r += two_pi
                roll = r - pi
                prop = pitch + fgys[i] * dt
                r = fmod(prefs[i] - prop + pi, two_pi)
                if r <= 0.0:
                    r += two_pi
                r = fmod(prop + c_rp * (r - pi) + pi, two_pi)
                if r <= 0.0:
                    r += two_pi
                pitch = r - pi
            else:
                roll = complementary_angle(roll, fgxs[i], dt, rrefs[i], gamma_rp)
                pitch = complementary_angle(pitch, fgys[i], dt, prefs[i], gamma_rp)
        else:
            roll = wrap_pi(roll + fgxs[i] * dt)
            pitch = wrap_pi(pitch + fgys[i] * dt)

        heading_ok = False
        if hms[i]:
            h = _heading_from_mag(mxs[i], mys[i], mzs[i], roll, pitch)
            heading_ok = not isnan(h)
            if not heading_ok:
                flags[i] |= FLAG_NO_HEADING_REF
        if heading_ok:
            r = fmod(h + declination + pi, two_pi)
            if r <= 0.0:
                r += two_pi
            href = r - pi
            if is_gap:
                yaw = href
            elif yaw_blend:
                prop = yaw + gzs[i] * dt
                r = fmod(href - prop + pi, two_pi)
                if r <= 0.0:
                    r += two_pi
                r = fmod(prop + c_yaw * (r - pi) + pi, two_pi)
                if r <= 0.0:
                    r += two_pi
                yaw = r - pi
            else:
                yaw = complementary_angle(yaw, gzs[i], dt, href, gamma_yaw)
        elif not is_gap:
            yaw = wrap_pi(yaw + gzs[i] * dt)

        roll_out[i] = roll
        pitch_out[i] = pitch
        yaw_out[i] = yaw
    return roll, pitch, yaw


@dataclass(frozen=True)
class AttitudeTrack:
    """Batch fusion output, one row per input sample."""

    t: np.ndarray        # (n,) seconds
    euler: np.ndarray    # (n, 3) roll, pitch, yaw radians
    q: np.ndarray        # (n, 4) w, x, y, z
    flags: np.ndarray    # (n,) uint8 FLAG_* bits

    @property
    def gaps(self) -> int:
        """Rows whose gyro term was skipped for a timestamp gap."""
        return int(np.count_nonzero(self.flags & FLAG_GAP))


def warn_gaps(count: int) -> None:
    """Log one warning for a stream's ``count`` gaps, if it has any."""
    if count:
        log.warning("%d sample gap(s) over %.1f s: gyro term skipped", count, MAX_GYRO_GAP_S)


def check_imu(t: np.ndarray, accel: np.ndarray, gyro: np.ndarray, after: float = -math.inf) -> None:
    """Raise unless the IMU columns are finite and the timestamps strictly
    increase from after ``after``."""
    if not (np.isfinite(t).all() and np.isfinite(accel).all() and np.isfinite(gyro).all()):
        raise ValueError("non-finite value in IMU stream")
    if len(t) and (t[0] <= after or (np.diff(t) <= 0.0).any()):
        raise TimestampOrderError("IMU timestamps must be strictly increasing")


class AttitudeEstimator:
    """Stateful orientation fusion over an IMU stream.

    The first sample initializes roll/pitch from the accelerometer and yaw
    from the magnetometer (0 if absent) and primes the pre-filters at their
    DC steady state, so a stream that starts at rest has no startup
    transient.
    """

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
        self.accel_lp = tuple(FilterState(lp) for _ in range(3))  # x, y, z
        self.gyro_hp = tuple(FilterState(hp) for _ in range(2))   # x, y
        self.t_last: float | None = None  # None before the first sample
        self.roll = self.pitch = self.yaw = 0.0

    def run(
        self,
        t: np.ndarray,
        accel: np.ndarray,
        gyro: np.ndarray,
        mag: np.ndarray | None = None,
        has_mag: np.ndarray | None = None,
    ) -> AttitudeTrack:
        """Fuse a stream, or the next part of one (arrays share the row
        index). Gaps are flagged in the track, not logged: the owner of the
        stream reports them once with ``warn_gaps``."""
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

        init = self.t_last is not None
        check_imu(t, accel, gyro, self.t_last if init else -math.inf)

        if any(self.hard_iron):
            mag = mag - np.asarray(self.hard_iron)

        filters = (*self.accel_lp, *self.gyro_hp)
        cols = (accel[:, 0], accel[:, 1], accel[:, 2], gyro[:, 0], gyro[:, 1])
        if n and not init:
            for f, x in zip(filters, cols):
                f.prime(float(x[0]))
        fax, fay, faz, fgx, fgy = (f.run(x) for f, x in zip(filters, cols))

        rref, pref, tilt_ok = _tilt_from_accel(fax, fay, faz)
        dt = np.diff(t, prepend=self.t_last if init else 0.0)
        gap = dt > MAX_GYRO_GAP_S
        if not init:
            gap[:1] = False
        flags = np.where(gap, FLAG_GAP, 0).astype(np.uint8)
        flags[~tilt_ok] |= FLAG_NO_TILT_REF

        euler = np.empty((n, 3), dtype=np.float64)
        if n:
            self.roll, self.pitch, self.yaw = _attitude_blend(
                0 if init else 1, dt, gap, tilt_ok, rref, pref, fgx, fgy, gyro[:, 2], mag, has_mag,
                self.gains.gamma_rp, self.gains.gamma_yaw, self.declination_rad,
                (self.roll, self.pitch, self.yaw), euler, flags,
            )
            self.t_last = float(t[-1])
        return AttitudeTrack(t=t, euler=euler, q=_quat_from_euler(euler), flags=flags)
