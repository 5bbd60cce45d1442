"""Synthetic-flight ground truth, sensor corruption, and error metrics.

A profile is a list of straight/turn/climb segments flown at constant (or
ramped) speed with roll held at zero. Truth kinematics are integrated in
TRUTH_OVERSAMPLE (10) micro-steps per IMU sample: heading, pitch and speed by
explicit Euler, position by the trapezoidal rule on the velocity at either
end of the micro-step. The sample instants sit on the IMU's
integer-millisecond time grid, which caps the IMU rate at 1000 Hz.

The integrator makes array passes over blocks of 1,024 samples, carrying the
state from block to block, which bounds its memory. Each micro-step clock,
the heading and the three position sums are running sums, and
``np.add.accumulate`` adds strictly left to right, so every sum takes the
same roundings as a scalar ``x += d`` loop and the truth is that loop's, bit
for bit. Segment lookup is one ``searchsorted``. Every sine and cosine is
``math.*``, mapped element by element (``_cos_sin``; numpy's may differ in
the last bit). Pitch and speed approach their targets at a clamped rate, so each
step depends on the value it updates, not only on the time; they keep a
Python loop, which runs only in the blocks where one of them is away from
its target.

The forward sensor model rotates gravity and linear acceleration into the
body frame, adds bias and seeded Gaussian noise, then quantizes every reading
to the wire-format resolution (the same integer counts the telemetry frames
carry), so simulated, encoded, recorded, and replayed streams all see exactly
the same sample values.

Generated GPS fixes land on IMU sample times at the requested rate, with
seeded dropouts (the first and last fix are exempt so the interpolated
reference always covers the flight).

The alpha/beta sweep is split as ``pipeline.fuse_blocks`` is:
``sweep_cells`` does the work its cells share once (the flight, the
attitude pass, the world-frame accel, the GPS reference and the alignment
of the IMU grid to the truth's, ``align_to_truth``) and raises before it
returns; its iterator blends and scores one cell per step, which pays only
for the cell's position pass, its velocity pass where its alpha is new,
and ``track_error``. A cell runs ``fuse_blocks``' two nav passes at its
sample rate (``estimate_sample_rate`` of ``_time_grid``) and starts, as its
replay does, at row 0 of the GPS reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterator, NamedTuple

import numpy as np

from .attitude import GRAVITY_MPS2, AttitudeEstimator, ImuArrays, warn_gaps
from .geo import EARTH_RADIUS_M, check_earth_radius
from .navigation import GpsArrays, NavEstimator, gps_track, prepare_gps_reference
from .pipeline import FusionConfig, csv_blocks, estimate_sample_rate, median, replace_fields
from .quat import _map, rotate_inverse
from .telemetry import gps_arrays_to_counts, gps_counts_to_arrays, imu_arrays_to_counts, imu_counts_to_arrays

# World magnetic field in gauss, (north, east, up) components.
MAG_FIELD_GAUSS = (0.28, 0.0, -0.12)

PITCH_RAMP_RATE = 0.1      # rad/s
SPEED_RAMP_ACCEL = 1.5     # m/s^2
TRUTH_OVERSAMPLE = 10
# samples integrated per block of array passes, which bounds the memory
_BLOCK_SAMPLES = 1024


def _check_finite(record, *names: str) -> None:
    for name in names:
        if not math.isfinite(getattr(record, name)):
            raise ValueError(f"{name} must be finite, got {getattr(record, name)}")


@dataclass(frozen=True)
class FlightSegment:
    """One leg of a profile. ``yaw_rate_dps`` applies to turns,
    ``climb_rate_mps`` to climbs; ``speed_mps`` optionally retargets speed."""

    kind: str                       # "straight" | "turn" | "climb"
    duration_s: float
    yaw_rate_dps: float = 0.0
    climb_rate_mps: float = 0.0
    speed_mps: float | None = None

    def __post_init__(self):
        if self.kind not in ("straight", "turn", "climb"):
            raise ValueError(f"unknown segment kind {self.kind!r}")
        _check_finite(self, "duration_s", "yaw_rate_dps", "climb_rate_mps")
        if self.duration_s <= 0:
            raise ValueError("segment duration must be positive")
        if self.speed_mps is not None and not 0.0 <= self.speed_mps < math.inf:
            raise ValueError(f"speed_mps must be finite and >= 0, got {self.speed_mps}")


@dataclass(frozen=True)
class FlightProfile:
    segments: tuple[FlightSegment, ...]
    imu_rate_hz: float = 60.0
    gps_rate_hz: float = 1.0
    seed: int = 42
    start_lat: float = -7.765
    start_lon: float = 110.37
    start_alt_m: float = 120.0
    start_heading_deg: float = 0.0
    speed_mps: float = 15.0
    earth_radius_m: float = EARTH_RADIUS_M

    def __post_init__(self):
        if not self.segments:
            raise ValueError("flight profile needs at least one segment")
        _check_finite(self, "imu_rate_hz", "gps_rate_hz", "start_alt_m", "start_heading_deg")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if not 0.0 <= self.speed_mps < math.inf:
            raise ValueError(f"speed_mps must be finite and >= 0, got {self.speed_mps}")
        if not -90.0 <= self.start_lat <= 90.0:
            raise ValueError(f"start_lat {self.start_lat} outside [-90, 90]")
        if not -180.0 < self.start_lon <= 180.0:
            raise ValueError(f"start_lon {self.start_lon} outside (-180, 180]")
        if self.imu_rate_hz <= 0 or self.gps_rate_hz <= 0:
            raise ValueError("sample rates must be positive")
        if self.imu_rate_hz < self.gps_rate_hz:
            raise ValueError("IMU rate must be at least the GPS rate")
        if self.imu_rate_hz > 1000.0:
            raise ValueError(
                "IMU rate above 1000 Hz: sample times lie on an integer-millisecond grid"
            )
        check_earth_radius(self.earth_radius_m)

    @property
    def duration_s(self) -> float:
        return sum(s.duration_s for s in self.segments)


@dataclass(frozen=True)
class SensorNoiseModel:
    accel_noise_sigma: float = 0.05    # m/s^2
    accel_bias: float = 0.0            # m/s^2, all axes
    gyro_noise_sigma: float = 0.005    # rad/s
    gyro_bias: float = 0.01            # rad/s, all axes
    mag_noise_sigma: float = 0.003     # gauss
    gps_pos_sigma_m: float = 2.5
    gps_dropout_prob: float = 0.1

    def __post_init__(self):
        _check_finite(self, "accel_noise_sigma", "accel_bias", "gyro_noise_sigma", "gyro_bias",
                      "mag_noise_sigma", "gps_pos_sigma_m")
        for name in ("accel_noise_sigma", "gyro_noise_sigma", "mag_noise_sigma", "gps_pos_sigma_m"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if not 0.0 <= self.gps_dropout_prob <= 1.0:
            raise ValueError("dropout probability must be in [0, 1]")


def standard_profile(seed: int = 42) -> FlightProfile:
    """218 s racetrack circuit: two 180-degree turns across all bearing quadrants."""
    return FlightProfile(
        segments=(
            FlightSegment("straight", 60.0),
            FlightSegment("turn", 45.0, yaw_rate_dps=4.0),
            FlightSegment("straight", 60.0),
            FlightSegment("turn", 45.0, yaw_rate_dps=4.0),
            FlightSegment("straight", 8.0),
        ),
        seed=seed,
    )


@dataclass(frozen=True)
class TruthSeries:
    """Reference trajectory sampled on the IMU time grid."""

    t: np.ndarray          # (n,) seconds
    lat: np.ndarray
    lon: np.ndarray
    alt_m: np.ndarray
    vn: np.ndarray         # m/s north
    ve: np.ndarray         # m/s east
    euler: np.ndarray      # (n, 3) roll, pitch, yaw
    q: np.ndarray          # (n, 4)


TRUTH_HEADER = "t_ms,lat,lon,alt_m,v_north,v_east,roll_deg,pitch_deg,yaw_deg"
_TRUTH_ROW = "%d" + ",%.9f" * 8


def truth_rows(truth: TruthSeries):
    """Yield the truth CSV rows in blocks of newline-terminated lines, header excluded."""
    cols = np.column_stack([
        np.rint(truth.t * 1000.0), truth.lat, truth.lon, truth.alt_m, truth.vn, truth.ve,
        truth.euler * (180.0 / math.pi),
    ])
    yield from csv_blocks(_TRUTH_ROW, cols)


def _segment_schedule(profile: FlightProfile):
    out = []
    t0 = 0.0
    speed = profile.speed_mps
    for seg in profile.segments:
        if seg.speed_mps is not None:
            speed = seg.speed_mps
        pitch_target = 0.0
        if seg.kind == "climb":
            s = max(speed, 1e-6)
            pitch_target = -math.asin(max(-1.0, min(1.0, seg.climb_rate_mps / s)))
        out.append(
            (t0, t0 + seg.duration_s, math.radians(seg.yaw_rate_dps) if seg.kind == "turn" else 0.0,
             pitch_target, speed)
        )
        t0 += seg.duration_s
    return out


def _ramp(x: float, targets: np.ndarray, dt: np.ndarray, limit: float):
    """The clamped approach ``x += max(-limit, min(limit, target - x)) * dt``
    over a block's micro-steps: x at each micro-step and after the last one,
    and the rate at each micro-step.

    A value at every target needs no loop: each step adds a zero, which
    leaves it as it is. Not so for -0.0 (it turns +0.0) or an infinity
    (inf - inf is NaN), so those take the loop.
    """
    if math.isfinite(x) and not (x == 0.0 and math.copysign(1.0, x) < 0.0) and (targets == x).all():
        # target - x is a zero: -0.0 for a -0.0 target (a climb at 0 m/s)
        return np.full(len(targets) + 1, x), targets - x
    xs, rates = [x], []
    for target, step in zip(targets.tolist(), dt.tolist()):
        d = max(-limit, min(limit, target - x))
        rates.append(d)
        x += d * step
        xs.append(x)
    return np.array(xs), np.array(rates)


def _cos_sin(x: np.ndarray):
    """``math.cos`` and ``math.sin`` of each element of a float64 column.

    A column of one value (the same bits throughout: a straight leg's
    heading, a level pitch) takes one call of each.
    """
    bits = x.view(np.int64)
    if (bits == bits[0]).all():
        return np.full(len(x), math.cos(x[0])), np.full(len(x), math.sin(x[0]))
    return _map(math.cos, x), _map(math.sin, x)


def _time_grid(profile: FlightProfile) -> tuple[np.ndarray, np.ndarray]:
    """The IMU sample instants of the flight, in integer ms and in s."""
    n = int(round(profile.duration_s * profile.imu_rate_hz)) + 1
    t_ms = np.rint(np.arange(n) * 1000.0 / profile.imu_rate_hz).astype(np.int64)
    return t_ms, t_ms / 1000.0


def _generate_truth(profile: FlightProfile):
    """Integrate the profile kinematics; returns truth plus the analytic
    world acceleration and body rates at every IMU sample instant."""
    t_ms, t = _time_grid(profile)
    n = len(t)
    # micro-step length per sample; the last sample takes no step
    dt = np.zeros(n)
    dt[:-1] = np.diff(t) / TRUTH_OVERSAMPLE

    schedule = _segment_schedule(profile)
    # a time selects the first segment it ends before, else the last one
    ends = np.array([t1 for _, t1, _, _, _ in schedule])
    targets = np.array([s[2:] for s in schedule] + [schedule[-1][2:]])   # yaw rate, pitch, speed
    deg_per_m = 180.0 / (math.pi * profile.earth_radius_m)

    psi = math.radians(profile.start_heading_deg)
    theta = 0.0
    speed = profile.speed_mps
    lat = profile.start_lat
    lon = profile.start_lon
    alt = profile.start_alt_m

    lat_s = np.empty(n)
    lon_s = np.empty(n)
    alt_s = np.empty(n)
    vn_s = np.empty(n)
    ve_s = np.empty(n)
    euler = np.zeros((n, 3))
    a_world = np.empty((n, 3))
    rates = np.empty((n, 2))   # dpsi, dtheta at the sample instant
    for lo in range(0, n, _BLOCK_SAMPLES):
        rows = slice(lo, lo + _BLOCK_SAMPLES)
        # each sample's micro-step clock starts at its own instant
        clock = np.empty((len(dt[rows]), TRUTH_OVERSAMPLE))
        clock[:, 0] = t[rows]
        clock[:, 1:] = dt[rows, None]
        times = np.add.accumulate(clock, axis=1).ravel()
        steps = np.repeat(dt[rows], TRUTH_OVERSAMPLE)
        dpsi, pitch_target, speed_target = targets[np.searchsorted(ends, times, side="right")].T

        # states at every micro-step and one past the block: add.accumulate
        # is a left fold, so each sum takes the same roundings as x += d
        psi_k = np.add.accumulate(np.concatenate(([psi], dpsi * steps)))
        theta_k, dtheta = _ramp(theta, pitch_target, steps, PITCH_RAMP_RATE)
        speed_k, dspeed = _ramp(speed, speed_target, steps, SPEED_RAMP_ACCEL)
        cp, sp = _cos_sin(psi_k)
        ct, st = _cos_sin(theta_k)
        vn, ve, vd = speed_k * (ct * cp), speed_k * (ct * sp), speed_k * -st
        # position by the trapezoidal rule on the velocity at either end
        lat_k = np.add.accumulate(np.concatenate(([lat], 0.5 * (vn[:-1] + vn[1:]) * steps * deg_per_m)))
        lon_k = np.add.accumulate(np.concatenate(([lon], 0.5 * (ve[:-1] + ve[1:]) * steps * deg_per_m)))
        alt_k = np.add.accumulate(np.concatenate(([alt], 0.5 * (vd[:-1] + vd[1:]) * steps)))

        # the sample instant is the first micro-step of its sample
        at = slice(0, -1, TRUTH_OVERSAMPLE)
        lat_s[rows], lon_s[rows], alt_s[rows] = lat_k[at], lon_k[at], alt_k[at]
        vn_s[rows], ve_s[rows] = vn[at], ve[at]
        euler[rows, 1], euler[rows, 2] = theta_k[at], psi_k[at]
        ct, st, cp, sp, v = ct[at], st[at], cp[at], sp[at], speed_k[at]
        w_psi, w_th, acc = dpsi[::TRUTH_OVERSAMPLE], dtheta[::TRUTH_OVERSAMPLE], dspeed[::TRUTH_OVERSAMPLE]
        a_world[rows, 0] = acc * (ct * cp) + v * (-st * w_th * cp - ct * sp * w_psi)
        a_world[rows, 1] = acc * (ct * sp) + v * (-st * w_th * sp + ct * cp * w_psi)
        a_world[rows, 2] = acc * -st + v * (-ct * w_th)
        rates[rows, 0], rates[rows, 1] = w_psi, w_th
        psi, theta, speed = float(psi_k[-1]), float(theta_k[-1]), float(speed_k[-1])
        lat, lon, alt = float(lat_k[-1]), float(lon_k[-1]), float(alt_k[-1])

    # quaternions from (0, theta, psi), vectorized ZYX composition. Not
    # quat.from_euler: its 0.0 - a is +0.0 where this -a is -0.0, and its
    # normalization moves some rows by an ulp, so every row's bits would change
    cz, sz = _cos_sin(0.5 * euler[:, 2])
    cy, sy = _cos_sin(0.5 * euler[:, 1])
    q = np.column_stack([cz * cy, -sz * sy, cz * sy, sz * cy])
    flip = q[:, 0] < 0.0
    q[flip] *= -1.0

    truth = TruthSeries(t=t, lat=lat_s, lon=lon_s, alt_m=alt_s, vn=vn_s, ve=ve_s, euler=euler, q=q)
    return truth, t_ms, a_world, rates


def generate_flight(
    profile: FlightProfile,
    noise: SensorNoiseModel = SensorNoiseModel(),
) -> tuple[TruthSeries, ImuArrays, GpsArrays]:
    """Synthesize (truth, IMU stream, GPS stream); deterministic per seed.

    The IMU readings are quantized to wire resolution, so encoded, recorded
    and replayed streams stay bit-identical.
    """
    truth, t_ms, a_world, rates = _generate_truth(profile)
    n = len(truth.t)
    rng = np.random.default_rng(profile.seed)

    f_body = rotate_inverse(truth.q, *(a_world + (0.0, 0.0, GRAVITY_MPS2)).T)

    dpsi, dtheta = rates[:, 0], rates[:, 1]
    cos_theta, sin_theta = _cos_sin(truth.euler[:, 1])
    omega_body = np.column_stack([-dpsi * sin_theta, dtheta, dpsi * cos_theta])

    mag_body = rotate_inverse(truth.q, *MAG_FIELD_GAUSS)

    acc_meas = f_body + noise.accel_bias + noise.accel_noise_sigma * rng.standard_normal((n, 3))
    gyr_meas = omega_body + noise.gyro_bias + noise.gyro_noise_sigma * rng.standard_normal((n, 3))
    mag_meas = mag_body + noise.mag_noise_sigma * rng.standard_normal((n, 3))

    imu = ImuArrays(t_ms / 1000.0, acc_meas, gyr_meas, mag_meas, np.ones(n, dtype=np.uint8))
    imu = imu_counts_to_arrays(t_ms, imu_arrays_to_counts(imu))

    stride = int(round(profile.imu_rate_hz / profile.gps_rate_hz))
    candidates = np.arange(0, n, stride)
    deg_per_m = 180.0 / (math.pi * profile.earth_radius_m)
    m = len(candidates)
    lat_noise = rng.standard_normal(m) * noise.gps_pos_sigma_m * deg_per_m
    lon_noise = rng.standard_normal(m) * noise.gps_pos_sigma_m * deg_per_m
    alt_noise = rng.standard_normal(m) * noise.gps_pos_sigma_m
    kept = rng.random(m) >= noise.gps_dropout_prob
    kept[[0, -1]] = True  # so the interpolated reference covers the flight

    rows = candidates[kept]
    # math.* per fix: np.arctan2 can differ from math.atan2 in the last bit
    vn, ve = truth.vn[rows].tolist(), truth.ve[rows].tolist()
    units = GpsArrays(
        t_ms[rows] / 1000.0,
        truth.lat[rows] + lat_noise[kept],
        truth.lon[rows] + lon_noise[kept],
        np.array([math.hypot(a, b) for a, b in zip(vn, ve)]),
        np.array([math.degrees(math.atan2(b, a)) for a, b in zip(vn, ve)]),
        truth.alt_m[rows] + alt_noise[kept],
        np.ones(len(rows), dtype=bool),
    )
    return truth, imu, gps_counts_to_arrays(t_ms[rows], gps_arrays_to_counts(units))


@dataclass(frozen=True)
class RmsError:
    lat_m: float
    lon_m: float
    total_m: float


class TrackAlignment(NamedTuple):
    """Which estimate row stands for each truth sample: ``nearest`` holds the
    nearest estimate row of every truth sample, and ``aligned`` is set where
    that row lies within one IMU period of the sample."""

    nearest: np.ndarray   # (n_truth,) int64
    aligned: np.ndarray   # (n_truth,) bool


def align_to_truth(est_t: np.ndarray, truth_t: np.ndarray) -> TrackAlignment:
    """Match each truth time to the nearest estimate time, within one IMU
    period (the truth's median interval). It depends on the two time grids
    alone, so every track on ``est_t`` shares it. Raises ``ValueError`` for an
    empty estimate grid or one that overlaps no truth sample."""
    est_t = np.asarray(est_t, dtype=np.float64)
    if len(est_t) == 0:
        raise ValueError("empty estimate track")
    dts = np.diff(truth_t)
    max_align_dt = median(dts) if len(dts) else math.inf
    idx = np.clip(np.searchsorted(est_t, truth_t), 0, len(est_t) - 1)
    left = np.clip(idx - 1, 0, len(est_t) - 1)
    use_left = np.abs(est_t[left] - truth_t) <= np.abs(est_t[idx] - truth_t)
    nearest = np.where(use_left, left, idx)
    aligned = np.abs(est_t[nearest] - truth_t) <= max_align_dt + 1e-12
    if not aligned.any():
        raise ValueError("estimate and truth tracks do not overlap in time")
    return TrackAlignment(nearest, aligned)


def track_error(
    alignment: TrackAlignment,
    est_lat: np.ndarray,
    est_lon: np.ndarray,
    truth: TruthSeries,
    earth_radius_m: float = EARTH_RADIUS_M,
) -> RmsError:
    """RMS deviation in meters of a track from truth, over the truth samples
    that ``alignment`` (``align_to_truth`` of the track's times) matched."""
    nearest, aligned = alignment
    m_per_deg = math.pi * earth_radius_m / 180.0
    dlat = (np.asarray(est_lat)[nearest] - truth.lat)[aligned] * m_per_deg
    dlon = (np.asarray(est_lon)[nearest] - truth.lon)[aligned] * m_per_deg
    lat_m = float(np.sqrt(np.mean(dlat**2)))
    lon_m = float(np.sqrt(np.mean(dlon**2)))
    return RmsError(lat_m, lon_m, float(math.hypot(lat_m, lon_m)))


@dataclass(frozen=True)
class SweepCell:
    alpha: float
    beta: float
    lat_err_m: float
    lon_err_m: float


def sweep_cells(
    profile: FlightProfile,
    noise: SensorNoiseModel,
    grid: list[tuple[float, float]],
    cfg: FusionConfig = FusionConfig(),
) -> Iterator[SweepCell]:
    """The error of each (alpha, beta) cell of ``grid``, in its order, each
    fusing the same streams.

    This call does the work the cells share and raises for a bad grid,
    option or flight: the flight, the attitude pass, the world-frame accel,
    the GPS reference (one call over the whole flight) and the alignment to
    truth. The iterator it returns only blends and scores, one cell per
    step. Only the nav blend reads the weights, and its velocity pass reads
    alpha alone, so that pass runs once per distinct alpha, when a cell
    first needs it.

    Position references use the interpolated fix track (replay mode), and
    errors are RMS against truth, so the table mirrors the alpha/beta impact
    study's shape. The fusion options are ``cfg``'s, less alpha and beta,
    which each cell sets, and the GPS mode, always replay. A cell is
    ``track_error`` of ``fuse_blocks``' replay of the flight, bit for bit, at
    the rate it estimates off the integer-ms grid (58.82 Hz at 60 Hz). The
    earth radius is the profile's: the truth, the estimators and the error
    all use ``profile.earth_radius_m``, and ``cfg.earth_radius_m`` is not read.
    """
    if not grid:
        raise ValueError("sweep grid must not be empty")
    cfg = replace(cfg, gps_mode="replay", earth_radius_m=profile.earth_radius_m)
    # built before the flight, so that a bad option or grid value costs no simulation
    fs = estimate_sample_rate(_time_grid(profile)[1])
    att = AttitudeEstimator(cfg, fs)
    navs = [NavEstimator(replace(cfg, alpha=a, beta=b), fs) for a, b in grid]
    truth, imu, gps = generate_flight(profile, noise)
    track = att.run(imu)
    warn_gaps(track.gaps)

    a_world = navs[0].world_accel(imu.accel, track.q)
    ref = prepare_gps_reference(imu.t, gps_track(gps), cfg.gps_mode, cfg.stale_after_s)
    alignment = align_to_truth(imu.t, truth.t)

    def cells():
        vels = {}  # the velocity pass of each distinct alpha, keyed by its bits: -0.0 is not 0.0
        for (a, b), nav in zip(grid, navs):
            key = float(a).hex()
            if key not in vels:
                vels[key] = nav.blend_velocity(imu.t, a_world, ref)
            lat, lon = nav.blend_position(imu.t, vels[key], ref)
            err = track_error(alignment, lat, lon, truth, profile.earth_radius_m)
            yield SweepCell(a, b, err.lat_m, err.lon_m)

    return cells()


def square_grid(values: list[float]) -> list[tuple[float, float]]:
    return [(a, b) for a in values for b in values]


def profile_from_dict(d: dict) -> FlightProfile:
    """The standard profile with the keys of the config-file schema (see
    README) replaced; raises ``ValueError`` for an unknown key or a value of
    the wrong kind, naming the segment that holds it."""
    d = dict(d)
    segments = d.pop("segments", [])
    if not isinstance(segments, list):
        raise ValueError(f"option 'segments': expected a list of objects, got {segments!r}")
    profile = replace_fields(standard_profile(), d)
    return replace(profile, segments=tuple(_segment_from_dict(i, s) for i, s in enumerate(segments))
                   or profile.segments)


def _segment_from_dict(index: int, d) -> FlightSegment:
    try:
        if not (isinstance(d, dict) and {"kind", "duration_s"} <= d.keys()):
            raise ValueError(f"expected an object with a kind and a duration_s, got {d!r}")
        return replace_fields(FlightSegment("straight", 1.0), d)
    except ValueError as exc:
        raise ValueError(f"segments[{index}]: {exc}") from None


def noise_from_dict(d: dict) -> SensorNoiseModel:
    return replace_fields(SensorNoiseModel(), d)
