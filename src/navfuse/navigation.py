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
(``FilterState.run``) and the rotation of the filtered accel to north/east
(``quat.rotate``, which computes only those two rows of R(q) v). Each block
runs ``blend_velocity`` (v_n, v_e), then ``blend_position`` (lat, lon) on its
output. Each pass keeps the time of the state it advances, so a stream split
into blocks blends as one call, and runs ``_blend_loop`` once per state:
x = w * (x + u) + g on the rows with a GPS reference, else x + u, a
generator over ``.tolist()`` columns drained by one ``np.fromiter`` into the
array it returns. The rest is array passes: the steps u, a * dt and
(v * dt) * k (``lon_scale_correction`` divides k by the cos of the latitude
each row starts from), and the GPS terms g. numpy does only + - * / and
sqrt, and cos/sin stay ``math.*``, so the output is bit-identical to a
per-sample loop.

GPS fixes are ``GpsArrays`` columns from the wire decoder, the recording
and the simulator through to ``prepare_gps_reference``. ``gps_in_range`` is
the one rule for their values, as a mask over the fixes: the wire decode
drops the fixes it clears, and ``check_gps``, made wherever fixes enter from
outside, refuses them, naming the first (``gps_range_error``).

``NavEstimator(cfg, sample_rate_hz)`` reads its options from a
``pipeline.FusionConfig``, which checks their values: ``alpha``, ``beta``,
the Butterworth ``cutoff_hz`` (``None``: ``default_position_cutoff_hz``),
``earth_radius_m``, ``lon_scale_correction``, ``stale_after_s`` and
``gps_mode``. Only a cutoff outside (0, Nyquist), which needs the sample
rate, is refused by the estimator, in its filter design. It starts at rest
at row 0 of its GPS reference, whose ``ref_lat``/``ref_lon`` hold the mode's
fix position on every row while ``has_pos`` says whether the blend may use
it; a ``lat``/``lon`` that its owner sets (``None`` until then) takes over
where row 0's ``has_pos`` is 0.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .errors import TimestampOrderError
from .filters import FilterState, design_butterworth2_lp, design_option
from .geo import bearing
from .quat import _map, rotate

if TYPE_CHECKING:
    from .pipeline import FusionConfig

# Same position twice within this tolerance (degrees) is "not distinct".
DISTINCT_FIX_DEG = 1e-12


class GpsArrays(NamedTuple):
    """GPS fixes as column arrays sharing the row index. ``course`` (never
    fused) and ``alt`` (recorded, never fused) are NaN where a fix has none;
    rows with ``valid`` False take no part in the blend. Each column is in
    the unit of the wire and of the recording, the course in degrees, so no
    layer converts it.
    """

    t: np.ndarray        # (m,) seconds
    lat: np.ndarray      # (m,) degrees
    lon: np.ndarray      # (m,) degrees
    speed: np.ndarray    # (m,) m/s
    course: np.ndarray   # (m,) degrees clockwise from north, as on the wire
    alt: np.ndarray      # (m,) m
    valid: np.ndarray    # (m,) bool


def _gps_checks(gps: GpsArrays) -> tuple:
    """(mask, reason, column) of each value rule that every fix, valid or not, must meet."""
    t, lat, lon, speed = gps[:4]
    return (
        (np.isfinite(t), "GPS time {} is not finite", t),
        ((lat >= -90.0) & (lat <= 90.0), "latitude {} outside [-90, 90]", lat),
        ((lon > -180.0) & (lon <= 180.0), "longitude {} outside (-180, 180]", lon),
        ((speed >= 0.0) & np.isfinite(speed), "GPS speed must be finite and >= 0, got {}", speed),
    )


def gps_in_range(gps: GpsArrays) -> np.ndarray:
    """Which fixes hold values a fix can: a finite time, lat in [-90, 90], lon
    in (-180, 180] and a finite speed >= 0. The wire decode drops the rest."""
    return np.logical_and.reduce([ok for ok, _, _ in _gps_checks(gps)])


def gps_range_error(gps: GpsArrays) -> tuple[int, str] | None:
    """The first fix that ``gps_in_range`` clears, as (row, reason), or None."""
    bad = np.flatnonzero(~gps_in_range(gps))
    if not len(bad):
        return None
    i = int(bad[0])
    return next((i, why.format(float(col[i]))) for ok, why, col in _gps_checks(gps) if not ok[i])


def check_gps(gps: GpsArrays) -> None:
    """Raise ValueError naming the first fix that ``gps_range_error`` finds."""
    err = gps_range_error(gps)
    if err is not None:
        raise ValueError(f"GPS fix {err[0]}: {err[1]}")


def default_position_cutoff_hz(sample_rate_hz: float) -> float:
    """fs/6, capped at 10 Hz (the cutoff of the reference 1 kHz design)."""
    return min(10.0, sample_rate_hz / 6.0)


class GpsReference(NamedTuple):
    """Per-sample reference arrays feeding the ``NavEstimator`` blend, sharing the row
    index of the samples, so a block of rows slices every column alike."""

    ref_lat: np.ndarray     # (n,) the mode's fix position on every row;
    ref_lon: np.ndarray     # (n,) has_pos says whether the blend may use it
    has_pos: np.ndarray     # (n,) uint8
    ref_speed: np.ndarray   # (n,)
    ref_cos: np.ndarray     # (n,) cos and sin of the fix-pair bearing theta_d
    ref_sin: np.ndarray     # (n,)
    has_vel: np.ndarray     # (n,) uint8


def prepare_gps_reference(t: np.ndarray, gps: GpsArrays, mode: str, stale_after_s: float) -> GpsReference:
    """Resolve, per sample, which GPS terms the blend may use.

    ``ref_lat``/``ref_lon`` hold the mode's fix position on every row, and
    ``has_pos`` says whether the blend may use it. Mode "live" holds the
    last valid fix at or before the row (else the first), used while fresh;
    mode "replay" interpolates the fix track, clamped to its first or last
    fix, used inside its span. So row 0 holds where a stream starts. The
    velocity stays fix-based. The mode is a ``FusionConfig.gps_mode``,
    which the config checks. The bearing's ``math.cos`` and ``math.sin``
    are taken once per fix and gathered per sample.
    """
    check_gps(gps)
    n = len(t)
    valid = np.asarray(gps.valid, dtype=bool)
    ft, flat, flon, fspeed = (c[valid] for c in gps[:4])
    m = len(ft)
    if not m:
        return GpsReference(*(np.zeros(n, dtype=d) for d in (float, float, np.uint8, float, float, float, np.uint8)))
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

    cos_at, sin_at = _map(math.cos, theta_at), _map(math.sin, theta_at)
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
        ref_lat, ref_lon, has_pos.astype(np.uint8),
        np.where(has_vel, fspeed[safe], 0.0),
        np.where(has_vel, cos_at[safe], 0.0), np.where(has_vel, sin_at[safe], 0.0), has_vel.astype(np.uint8),
    )


def _blend_loop(x: float, steps: np.ndarray, refs: np.ndarray, has_ref: np.ndarray, w: float) -> np.ndarray:
    """The recursive part of the ``NavEstimator`` blend, one state at a time:
    from ``x``, x = w * (x + u) + g on each row with ``has_ref`` set, else
    x + u, for the row's step u and GPS term g. Returns every row's x as an
    array: a generator over ``.tolist()`` columns, drained by one
    ``np.fromiter``."""

    def states(x):
        for u, g, h in zip(steps.tolist(), refs.tolist(), has_ref.tolist()):
            x += u
            if h:
                x = w * x + g
            yield x

    return np.fromiter(states(x), dtype=np.float64, count=len(steps))


def _rows(t_prev: float | None, t: np.ndarray, ref: GpsReference) -> tuple[int, np.ndarray, GpsReference]:
    """The count of rows that hold a pass's start state (1 when its last time
    ``t_prev`` is None, so ``t`` starts a stream, else 0), then the time steps
    and GPS reference of the rest."""
    s = int(t_prev is None and len(t) > 0)
    dt = np.diff(t, prepend=0.0 if t_prev is None else t_prev)
    return s, dt[s:], ref._make(col[s:] for col in ref)


class NavEstimator:
    """Stateful position fusion over an IMU stream, a block of rows at a
    time: ``world_accel`` of the accel and attitude, ``blend_velocity`` of it
    with ``prepare_gps_reference``'s GPS reference of the same rows, then
    ``blend_position`` of the velocity."""

    def __init__(self, cfg: FusionConfig, sample_rate_hz: float):
        self.cfg = cfg
        cutoff_hz = default_position_cutoff_hz(sample_rate_hz) if cfg.cutoff_hz is None else cfg.cutoff_hz
        coeffs = design_option(design_butterworth2_lp, "cutoff_hz", cutoff_hz, sample_rate_hz)
        self.accel_lp = tuple(FilterState(coeffs) for _ in range(3))  # x, y, z
        self.primed = False  # whether world_accel has primed accel_lp
        self.t_vel = self.t_pos = None  # each pass's last sample time, None before its first
        self.vn = self.ve = 0.0
        self.lat = self.lon = None  # unset: a stream starts at row 0 of its GPS reference

    def world_accel(self, accel: np.ndarray, q: np.ndarray) -> np.ndarray:
        """North/east components, (n, 2), of the Butterworth-filtered accel
        rotated to the world frame by the attitude quaternions ``q``.

        Advances the filter delay lines, which the first sample this
        estimator filters primes at their steady state, so a stream split
        across calls filters as one call. ``accel`` is finite (``check_imu``)
        and ``q`` unit length (``AttitudeEstimator.run``'s output).
        """
        if len(accel) and not self.primed:
            for f, x0 in zip(self.accel_lp, accel[0].tolist()):
                f.prime(x0)
            self.primed = True
        fax, fay, faz = (f.run(accel[:, k]) for k, f in enumerate(self.accel_lp))
        return rotate(q, fax, fay, faz, rows=2)

    def blend_velocity(self, t: np.ndarray, a_world: np.ndarray, ref: GpsReference) -> np.ndarray:
        """The velocity pass over world-frame accel from ``world_accel`` and
        the GPS reference of the same rows: (n, 2) v_north, v_east; advances
        ``vn``, ``ve`` and their time ``t_vel``."""
        alpha = self.cfg.alpha
        s, dt, rows = _rows(self.t_vel, t, ref)
        vel = np.empty((len(t), 2), dtype=np.float64)
        vel[:s] = self.vn, self.ve
        for k, (v, trig) in enumerate(((self.vn, rows.ref_cos), (self.ve, rows.ref_sin))):
            g = (1.0 - alpha) * rows.ref_speed * trig
            vel[s:, k] = _blend_loop(v, a_world[s:, k] * dt, g, rows.has_vel, alpha)
        if len(t):
            self.vn, self.ve = vel[-1].tolist()
            self.t_vel = float(t[-1])
        return vel

    def blend_position(self, t: np.ndarray, vel: np.ndarray, ref: GpsReference) -> tuple[np.ndarray, np.ndarray]:
        """The position pass over the same rows' velocity from
        ``blend_velocity``: lat, lon; advances them and their time ``t_pos``.
        A stream's first row snaps to its GPS reference, and starts there too
        when ``lat`` or ``lon`` is unset."""
        beta = self.cfg.beta
        k = 180.0 / (math.pi * self.cfg.earth_radius_m)
        s, dt, rows = _rows(self.t_pos, t, ref)
        lat0, lon0 = self.lat, self.lon
        if s and (ref.has_pos[0] or lat0 is None or lon0 is None):
            lat0, lon0 = float(ref.ref_lat[0]), float(ref.ref_lon[0])
        lat, lon = np.empty(len(t)), np.empty(len(t))
        lat[:s], lon[:s] = lat0, lon0
        vdt = vel[s:] * dt[:, None]
        lat[s:] = _blend_loop(lat0, vdt[:, 0] * k, (1.0 - beta) * rows.ref_lat, rows.has_pos, beta)
        if self.cfg.lon_scale_correction:  # over the latitude each row starts from
            k = k / _map(math.cos, np.concatenate(([lat0], lat[s:]))[:-1] * math.pi / 180.0)
        lon[s:] = _blend_loop(lon0, vdt[:, 1] * k, (1.0 - beta) * rows.ref_lon, rows.has_pos, beta)
        if len(t):
            self.lat, self.lon = lat[-1].tolist(), lon[-1].tolist()
            self.t_pos = float(t[-1])
        return lat, lon
