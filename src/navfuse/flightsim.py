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
for bit. Segment lookup is one ``searchsorted``. The integrator's sines and
cosines are ``math.*``, mapped element by element (numpy's may differ in the
last bit). Pitch and speed approach their targets at a clamped rate, so each
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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .attitude import GRAVITY_MPS2, ImuArrays, _map, warn_gaps
from .geo import EarthModel
from .navigation import GpsArrays, prepare_gps_reference
from .pipeline import FusionConfig, build_estimators, csv_blocks, read_option, replace_fields
from .telemetry import gps_arrays_to_counts, gps_counts_to_arrays, imu_arrays_to_counts, imu_counts_to_arrays

# World magnetic field in gauss, (north, east, up) components.
MAG_FIELD_GAUSS = (0.28, 0.0, -0.12)

PITCH_RAMP_RATE = 0.1      # rad/s
SPEED_RAMP_ACCEL = 1.5     # m/s^2
TRUTH_OVERSAMPLE = 10
# samples integrated per block of array passes, which bounds the memory
_BLOCK_SAMPLES = 1024


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
        if self.duration_s <= 0:
            raise ValueError("segment duration must be positive")


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
    earth: EarthModel = field(default_factory=EarthModel)

    def __post_init__(self):
        if not self.segments:
            raise ValueError("flight profile needs at least one segment")
        if self.imu_rate_hz <= 0 or self.gps_rate_hz <= 0:
            raise ValueError("sample rates must be positive")
        if self.imu_rate_hz < self.gps_rate_hz:
            raise ValueError("IMU rate must be at least the GPS rate")
        if self.imu_rate_hz > 1000.0:
            raise ValueError(
                "IMU rate above 1000 Hz: sample times lie on an integer-millisecond grid"
            )

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
        for name in ("accel_noise_sigma", "gyro_noise_sigma", "mag_noise_sigma", "gps_pos_sigma_m"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if not 0.0 <= self.gps_dropout_prob <= 1.0:
            raise ValueError("dropout probability must be in [0, 1]")


ZERO_NOISE = SensorNoiseModel(
    accel_noise_sigma=0.0, accel_bias=0.0, gyro_noise_sigma=0.0, gyro_bias=0.0,
    mag_noise_sigma=0.0, gps_pos_sigma_m=0.0, gps_dropout_prob=0.0,
)


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


def _generate_truth(profile: FlightProfile):
    """Integrate the profile kinematics; returns truth plus the analytic
    world acceleration and body rates at every IMU sample instant."""
    rate = profile.imu_rate_hz
    n = int(round(profile.duration_s * rate)) + 1
    t_ms = np.rint(np.arange(n) * 1000.0 / rate).astype(np.int64)
    t = t_ms / 1000.0
    # micro-step length per sample; the last sample takes no step
    dt = np.zeros(n)
    dt[:-1] = np.diff(t) / TRUTH_OVERSAMPLE

    schedule = _segment_schedule(profile)
    # a time selects the first segment it ends before, else the last one
    ends = np.array([t1 for _, t1, _, _, _ in schedule])
    targets = np.array([s[2:] for s in schedule] + [schedule[-1][2:]])   # yaw rate, pitch, speed
    deg_per_m = 180.0 / (math.pi * profile.earth.radius_m)

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

    # quaternions from (0, theta, psi), vectorized ZYX composition
    half_psi = 0.5 * euler[:, 2]
    half_th = 0.5 * euler[:, 1]
    cz, sz = np.cos(half_psi), np.sin(half_psi)
    cy, sy = np.cos(half_th), np.sin(half_th)
    q = np.column_stack([cz * cy, -sz * sy, cz * sy, sz * cy])
    flip = q[:, 0] < 0.0
    q[flip] *= -1.0

    truth = TruthSeries(t=t, lat=lat_s, lon=lon_s, alt_m=alt_s, vn=vn_s, ve=ve_s, euler=euler, q=q)
    return truth, t_ms, a_world, rates


def _rotate_world_to_body(q: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Apply R(q)^T row-wise: world vectors expressed in the body frame."""
    w, x, y, z = q[:, 0], q[:, 1], q[:, 2], q[:, 3]
    vx, vy, vz = v[:, 0], v[:, 1], v[:, 2]
    bx = (1 - 2 * (y * y + z * z)) * vx + 2 * (x * y + w * z) * vy + 2 * (x * z - w * y) * vz
    by = 2 * (x * y - w * z) * vx + (1 - 2 * (x * x + z * z)) * vy + 2 * (y * z + w * x) * vz
    bz = 2 * (x * z + w * y) * vx + 2 * (y * z - w * x) * vy + (1 - 2 * (x * x + y * y)) * vz
    return np.column_stack([bx, by, bz])


def generate_flight(
    profile: FlightProfile,
    noise: SensorNoiseModel = SensorNoiseModel(),
    quantize: bool = True,
) -> tuple[TruthSeries, ImuArrays, GpsArrays]:
    """Synthesize (truth, IMU stream, GPS stream); deterministic per seed.

    ``quantize=False`` skips the wire-resolution rounding and yields
    oracle-grade continuous readings (analysis only; the CLI paths always
    quantize so encoded, recorded, and replayed streams stay bit-identical).
    """
    truth, t_ms, a_world, rates = _generate_truth(profile)
    n = len(truth.t)
    rng = np.random.default_rng(profile.seed)

    g_world = np.zeros((n, 3))
    g_world[:, 2] = GRAVITY_MPS2
    f_body = _rotate_world_to_body(truth.q, a_world + g_world)

    dpsi, dtheta = rates[:, 0], rates[:, 1]
    theta = truth.euler[:, 1]
    omega_body = np.column_stack([-dpsi * np.sin(theta), dtheta, dpsi * np.cos(theta)])

    mag_world = np.tile(np.array(MAG_FIELD_GAUSS), (n, 1))
    mag_body = _rotate_world_to_body(truth.q, mag_world)

    acc_meas = f_body + noise.accel_bias + noise.accel_noise_sigma * rng.standard_normal((n, 3))
    gyr_meas = omega_body + noise.gyro_bias + noise.gyro_noise_sigma * rng.standard_normal((n, 3))
    mag_meas = mag_body + noise.mag_noise_sigma * rng.standard_normal((n, 3))

    imu = ImuArrays(t_ms / 1000.0, acc_meas, gyr_meas, mag_meas, np.ones(n, dtype=np.uint8))
    if quantize:
        imu = imu_counts_to_arrays(t_ms, imu_arrays_to_counts(imu))

    stride = int(round(profile.imu_rate_hz / profile.gps_rate_hz))
    candidates = np.arange(0, n, stride)
    deg_per_m = 180.0 / (math.pi * profile.earth.radius_m)
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
        np.array([math.atan2(b, a) for a, b in zip(vn, ve)]),
        truth.alt_m[rows] + alt_noise[kept],
        np.ones(len(rows), dtype=bool),
    )
    return truth, imu, gps_counts_to_arrays(t_ms[rows], gps_arrays_to_counts(units))


@dataclass(frozen=True)
class RmsError:
    lat_m: float
    lon_m: float
    total_m: float


def rms_error(
    est_t: np.ndarray,
    est_lat: np.ndarray,
    est_lon: np.ndarray,
    truth: TruthSeries,
    earth: EarthModel = EarthModel(),
    max_align_dt: float | None = None,
) -> RmsError:
    """RMS deviation in meters, estimate matched to truth timestamps by
    nearest neighbor within one IMU period."""
    est_t = np.asarray(est_t, dtype=np.float64)
    if len(est_t) == 0:
        raise ValueError("empty estimate track")
    if max_align_dt is None:
        dts = np.diff(truth.t)
        max_align_dt = float(np.median(dts)) if len(dts) else math.inf
    idx = np.clip(np.searchsorted(est_t, truth.t), 0, len(est_t) - 1)
    left = np.clip(idx - 1, 0, len(est_t) - 1)
    use_left = np.abs(est_t[left] - truth.t) <= np.abs(est_t[idx] - truth.t)
    nearest = np.where(use_left, left, idx)
    aligned = np.abs(est_t[nearest] - truth.t) <= max_align_dt + 1e-12
    if not aligned.any():
        raise ValueError("estimate and truth tracks do not overlap in time")
    m_per_deg = math.pi * earth.radius_m / 180.0
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


def sweep_weights(
    profile: FlightProfile,
    noise: SensorNoiseModel,
    grid: list[tuple[float, float]],
    cfg: FusionConfig = FusionConfig(),
) -> list[SweepCell]:
    """Run the full pipeline once per (alpha, beta) cell on identical streams.

    Position references use the interpolated fix track (replay mode), and
    errors are RMS against truth, so the table mirrors the alpha/beta impact
    study's shape. The fusion options are ``cfg``'s, less alpha and beta,
    which each cell sets, and the GPS mode, always replay. The sample rate
    and the earth model are the profile's: the truth, the estimators and the
    error all use ``profile.earth``, and ``cfg.earth_radius_m`` is not read.
    """
    if not grid:
        raise ValueError("sweep grid must not be empty")
    for a, b in grid:
        if not (0.0 <= a <= 1.0 and 0.0 <= b <= 1.0):
            raise ValueError(f"grid cell ({a}, {b}) outside [0, 1]^2")
    cfg = replace(cfg, gps_mode="replay", earth_radius_m=profile.earth.radius_m)
    # built before the flight, so that a bad option costs no simulation
    estimators = [build_estimators(replace(cfg, alpha=a, beta=b), profile.imu_rate_hz) for a, b in grid]
    truth, imu, gps = generate_flight(profile, noise)
    att = estimators[0][0].run(*imu)
    warn_gaps(att.gaps)

    # the filtered world-frame accel and the GPS reference do not depend on the weights
    a_world = estimators[0][1].world_accel(imu.accel, att.q)
    ref = prepare_gps_reference(imu.t, gps, "replay", cfg.stale_after_s)
    cells = []
    for (a, b), (_, nav) in zip(grid, estimators):
        track = nav.blend(imu.t, a_world, ref)
        err = rms_error(imu.t, track.lat, track.lon, truth, profile.earth)
        cells.append(SweepCell(a, b, err.lat_m, err.lon_m))
    return cells


def square_grid(values: list[float]) -> list[tuple[float, float]]:
    return [(a, b) for a in values for b in values]


def sample_and_hold_track(t: np.ndarray, gps: GpsArrays):
    """Latest-fix position per sample (the non-interpolated GPS baseline).

    Returns (lat, lon, mask); mask marks samples with a fix available.
    """
    ref = prepare_gps_reference(t, gps, mode="live", stale_after_s=math.inf)
    mask = ref.has_pos.astype(bool)
    return ref.ref_lat, ref.ref_lon, mask


def profile_from_dict(d: dict) -> FlightProfile:
    """The standard profile with the keys of the config-file schema (see
    README) replaced; raises ``ValueError`` for an unknown key or a value of
    the wrong kind."""
    d = dict(d)
    segments = d.pop("segments", [])
    required = {"kind", "duration_s"}
    if not (isinstance(segments, list) and all(isinstance(s, dict) and required <= s.keys() for s in segments)):
        raise ValueError("profile segments must be a list of objects, each with a kind and a duration_s")
    base = standard_profile()
    earth = EarthModel(read_option("earth_radius_m", d.pop("earth_radius_m", base.earth.radius_m), 0.0))
    segments = tuple(replace_fields(FlightSegment("straight", 1.0), s) for s in segments) or base.segments
    return replace(replace_fields(base, d), segments=segments, earth=earth)


def noise_from_dict(d: dict) -> SensorNoiseModel:
    return replace_fields(SensorNoiseModel(), d)
