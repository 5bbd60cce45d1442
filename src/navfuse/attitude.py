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

``AttitudeEstimator.run`` takes a block of rows as one ``ImuArrays`` of
float64 columns, as the readers make them. It makes array passes over the
columns for the parts that do not depend on the recursive state: the
pre-filters (``FilterState.run``), the tilt reference of the filtered accel,
the rate steps rate * dt and the Euler-to-quaternion assembly
(``quat.from_euler``). One loop, ``_angle_loop``, runs the blend of one
angle with its gap and reference branches: for roll, then pitch, then yaw.
Like the pre-filters' loop, it is a generator over ``.tolist()`` columns,
drained by one ``np.fromiter`` into the array it returns. The magnetometer
heading reads only the blended roll and pitch, so it is an array pass
between the pitch and yaw loops. The output is bit-identical to a per-sample
loop: numpy does only + - * / and sqrt, which IEEE 754 rounds exactly, and
fmod, which is exact, and every transcendental (atan2, cos, sin) is
``math.*`` mapped over the column, since numpy's vectorised versions may
differ in the last bit.

``AttitudeEstimator(cfg, sample_rate_hz)`` reads its options from a
``pipeline.FusionConfig``, which checks their values: the gains ``gamma_rp``
and ``gamma_yaw`` (1.0 = all gyro, 0.0 = all reference), the pre-filter
cutoffs ``accel_lp_hz`` and ``gyro_hp_hz`` and the magnetic
``declination_deg``. Only a cutoff outside (0, Nyquist), which needs the
sample rate, is refused by the estimator, in its filter design.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .errors import TimestampOrderError
from .filters import FilterState, design_first_order_hp, design_first_order_lp, design_option
from .quat import _map, from_euler

if TYPE_CHECKING:
    from .pipeline import FusionConfig

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
    """An IMU stream, or a block of its rows, as column arrays sharing the
    row index: what ``AttitudeEstimator.run`` takes. Units: t seconds, accel
    m/s^2, gyro rad/s, mag any consistent unit (gauss on the wire). Rows
    without a magnetometer reading (all in a gyro-only run) have ``has_mag`` 0.
    """

    t: np.ndarray         # (n,) seconds
    accel: np.ndarray     # (n, 3)
    gyro: np.ndarray      # (n, 3)
    mag: np.ndarray       # (n, 3)
    has_mag: np.ndarray   # (n,) uint8

    @property
    def t_ms(self) -> np.ndarray:
        return np.rint(self.t * 1000.0).astype(np.int64)


def _tilt_from_accel(ax: np.ndarray, ay: np.ndarray, az: np.ndarray):
    """Per-row (roll, pitch) of gravity-dominated accel columns, and the mask
    of the rows where they are observable (accel above 0.1 g).

    ``AttitudeEstimator.run`` flags the rows that are not observable
    (``FLAG_NO_TILT_REF``) and holds the previous estimate there.
    """
    ok = ~(ax * ax + ay * ay + az * az <= MIN_TILT_ACCEL_MPS2 * MIN_TILT_ACCEL_MPS2)
    roll = _map(math.atan2, ay, az)
    pitch = _map(math.atan2, -ax, np.sqrt(ay * ay + az * az))
    return roll, pitch, ok


def _heading_ref(mag: np.ndarray, has_mag: np.ndarray, roll: np.ndarray, pitch: np.ndarray,
                 declination: float) -> np.ndarray:
    """Per row, the tilt-compensated magnetometer heading plus ``declination``,
    wrapped to (-pi, pi]; NaN without a reading or a horizontal field. It
    de-rotates the field by the row's roll then pitch and reads the yaw that
    aligns the horizontal component with magnetic north."""
    href = np.full(len(roll), math.nan)
    rows = np.flatnonzero(has_mag)
    mx, my, mz = mag[rows].T
    cr, sr = _map(math.cos, roll[rows]), _map(math.sin, roll[rows])
    cp, sp = _map(math.cos, pitch[rows]), _map(math.sin, pitch[rows])
    ty = my * cr - mz * sr
    tz = my * sr + mz * cr
    mxp = mx * cp + tz * sp
    r = np.fmod(_map(math.atan2, -ty, mxp) + declination + math.pi, 2.0 * math.pi)
    r = np.where(r <= 0.0, r + 2.0 * math.pi, r) - math.pi
    href[rows] = np.where(mxp * mxp + ty * ty < MIN_HORIZONTAL_FIELD * MIN_HORIZONTAL_FIELD, math.nan, r)
    return href


def _angle_loop(angle: float, steps: np.ndarray, refs: np.ndarray, resets: np.ndarray, gain: float) -> np.ndarray:
    """The recursion of ``AttitudeEstimator.run`` for one angle: from
    ``angle``, each row's wrap-aware blend gain * (angle + step) + (1 - gain)
    * reference in (-pi, pi], along the shortest arc between the two, with
    step = rate * dt; or the step alone where the reference is NaN. A row
    with ``resets`` set takes its reference alone, or holds. Returns every
    row's angle as an array. A gain of 1 blends to the propagation bit for
    bit, so only a gain of 0 needs a short cut: the reference, wrapped.

    The loop is a generator over ``.tolist()`` columns, drained by one
    ``np.fromiter``. Inside (0, 2 pi), ``math.fmod(a, 2 pi)`` is ``a``
    itself, exactly, and takes no wrap, so both are skipped there.
    """
    fmod = math.fmod
    pi = math.pi
    two_pi = 2.0 * math.pi
    c = 1.0 - gain
    snap = gain == 0.0

    def angles(angle):
        for step, ref, reset in zip(steps.tolist(), refs.tolist(), resets.tolist()):
            if reset:
                if ref == ref:
                    angle = ref
            else:
                if ref != ref:
                    x = angle + step
                elif snap:
                    x = ref
                else:
                    x = angle + step
                    r = ref - x + pi
                    if not 0.0 < r < two_pi:
                        r = fmod(r, two_pi)
                        if r <= 0.0:
                            r += two_pi
                    x += c * (r - pi)
                r = x + pi
                if not 0.0 < r < two_pi:
                    r = fmod(r, two_pi)
                    if r <= 0.0:
                        r += two_pi
                angle = r - pi
            yield angle

    return np.fromiter(angles(angle), dtype=np.float64, count=len(steps))


@dataclass(frozen=True)
class AttitudeTrack:
    """Batch fusion output, one row per input sample."""

    euler: np.ndarray    # (n, 3) roll, pitch, yaw radians
    q: np.ndarray        # (n, 4) w, x, y, z
    flags: np.ndarray    # (n,) uint8 FLAG_* bits

    @property
    def gaps(self) -> int:
        """Rows whose gyro term was skipped for a timestamp gap."""
        return int(np.count_nonzero(self.flags & FLAG_GAP))


def warn_gaps(count: int) -> None:
    """Log one warning for a stream's ``count`` gaps, if it has any.
    ``logging`` is imported only then: a run without gaps does not load it."""
    if count:
        import logging

        logging.getLogger(__name__).warning(
            "%d sample gap(s) over %.1f s: gyro term skipped", count, MAX_GYRO_GAP_S)


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

    def __init__(self, cfg: FusionConfig, sample_rate_hz: float):
        self.cfg = cfg
        lp = design_option(design_first_order_lp, "accel_lp_hz", cfg.accel_lp_hz, sample_rate_hz)
        hp = design_option(design_first_order_hp, "gyro_hp_hz", cfg.gyro_hp_hz, sample_rate_hz)
        self.accel_lp = tuple(FilterState(lp) for _ in range(3))  # x, y, z
        self.gyro_hp = tuple(FilterState(hp) for _ in range(2))   # x, y
        self.t_last: float | None = None  # None before the first sample
        self.roll = self.pitch = self.yaw = 0.0

    def run(self, imu: ImuArrays) -> AttitudeTrack:
        """Fuse ``imu``, a stream or the next block of one, into the track of
        its rows. Gaps are flagged in the track, not logged: the owner of the
        stream reports them once with ``warn_gaps``."""
        t, accel, gyro, mag, has_mag = imu
        n = len(t)
        init = self.t_last is not None
        check_imu(t, accel, gyro, self.t_last if init else -math.inf)

        filters = (*self.accel_lp, *self.gyro_hp)
        cols = (accel[:, 0], accel[:, 1], accel[:, 2], gyro[:, 0], gyro[:, 1])
        if n and not init:
            for f, x in zip(filters, cols):
                f.prime(float(x[0]))
        fax, fay, faz, fgx, fgy = (f.run(x) for f, x in zip(filters, cols))

        rref, pref, tilt_ok = _tilt_from_accel(fax, fay, faz)
        dt = np.diff(t, prepend=self.t_last if init else 0.0)
        gap = dt > MAX_GYRO_GAP_S
        gap[:1] &= init
        # a fresh stream's first row takes its references as a row after a gap does
        reset = gap.copy()
        reset[:1] |= not init
        flags = np.where(gap, FLAG_GAP, 0).astype(np.uint8)
        flags[~tilt_ok] |= FLAG_NO_TILT_REF

        cfg = self.cfg
        rref[~tilt_ok] = pref[~tilt_ok] = math.nan  # no reference
        euler = np.empty((n, 3), dtype=np.float64)
        euler[:, 0] = _angle_loop(self.roll, fgx * dt, rref, reset, cfg.gamma_rp)
        euler[:, 1] = _angle_loop(self.pitch, fgy * dt, pref, reset, cfg.gamma_rp)
        href = _heading_ref(mag, has_mag, euler[:, 0], euler[:, 1], math.radians(cfg.declination_deg))
        flags[(has_mag != 0) & np.isnan(href)] |= FLAG_NO_HEADING_REF
        euler[:, 2] = _angle_loop(self.yaw, gyro[:, 2] * dt, href, reset, cfg.gamma_yaw)
        if n:
            self.roll, self.pitch, self.yaw = euler[-1].tolist()
            self.t_last = float(t[-1])
        return AttitudeTrack(euler=euler, q=from_euler(euler), flags=flags)
