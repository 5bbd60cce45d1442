"""Synthetic-flight ground truth, sensor corruption, and error metrics.

A profile is a list of straight/turn/climb segments flown at constant (or
ramped) speed with roll held at zero. Truth kinematics are integrated in
TRUTH_OVERSAMPLE (10) micro-steps per IMU sample: heading, pitch and speed by
explicit Euler, position by the trapezoidal rule on the velocity at either
end of the micro-step. Velocity depends only on the state, so each micro-step
evaluates the derivatives once, and its end velocity starts the next one. The
sample instants sit on the IMU's integer-millisecond time grid, which caps the
IMU rate at 1000 Hz.

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
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from .attitude import GRAVITY_MPS2, AttitudeEstimator, FusionGains, ImuArrays
from .geo import EarthModel
from .navigation import BlendWeights, GpsArrays, NavEstimator, prepare_gps_reference
from .telemetry import (
    ACCEL_LSB_PER_G,
    GYRO_LSB_PER_DPS,
    MAG_LSB_PER_GAUSS,
    gps_arrays_to_counts,
    gps_counts_to_arrays,
    imu_counts_to_arrays,
)

# World magnetic field in gauss, (north, east, up) components.
MAG_FIELD_GAUSS = (0.28, 0.0, -0.12)

PITCH_RAMP_RATE = 0.1      # rad/s
SPEED_RAMP_ACCEL = 1.5     # m/s^2
TRUTH_OVERSAMPLE = 10


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
_TRUTH_BLOCK_ROWS = 1024


def truth_rows(truth: TruthSeries):
    """Yield truth CSV lines (without newline), header excluded."""
    t_ms = np.rint(truth.t * 1000.0).astype(np.int64)
    # columns become Python lists one block at a time, which bounds the memory
    for lo in range(0, len(t_ms), _TRUTH_BLOCK_ROWS):
        block = slice(lo, lo + _TRUTH_BLOCK_ROWS)
        cols = np.column_stack([
            truth.lat[block], truth.lon[block], truth.alt_m[block], truth.vn[block], truth.ve[block],
            truth.euler[block] * (180.0 / math.pi),
        ])
        for t, row in zip(t_ms[block].tolist(), cols.tolist()):
            yield _TRUTH_ROW % (t, *row)


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


def _generate_truth(profile: FlightProfile):
    """Integrate the profile kinematics; returns truth plus the analytic
    world acceleration and body rates at every IMU sample instant."""
    rate = profile.imu_rate_hz
    n = int(round(profile.duration_s * rate)) + 1
    t_ms = np.array([round(i * 1000.0 / rate) for i in range(n)], dtype=np.int64)
    t = t_ms / 1000.0

    schedule = _segment_schedule(profile)
    # a time selects the first segment it ends before, else the last one
    ends = [t1 for _, t1, _, _, _ in schedule]
    targets = [(yaw_rate, pitch, speed) for _, _, yaw_rate, pitch, speed in schedule]
    targets.append(targets[-1])
    deg_per_m = 180.0 / (math.pi * profile.earth.radius_m)

    psi = math.radians(profile.start_heading_deg)
    theta = 0.0
    speed = profile.speed_mps
    lat = profile.start_lat
    lon = profile.start_lon
    alt = profile.start_alt_m
    # cos/sin are recomputed only when an angle changes. psi can go from a
    # -0.0 start heading to +0.0, which compares equal but flips the sign of
    # sin, hence the zero test; theta starts at +0.0 and a float sum is -0.0
    # only when both terms are, so theta never does
    psi_trig, theta_trig = psi, theta
    cp, sp = math.cos(psi), math.sin(psi)
    ct, st = math.cos(theta), math.sin(theta)
    vn, ve, vd = speed * (ct * cp), speed * (ct * sp), speed * -st

    lat_s = np.empty(n)
    lon_s = np.empty(n)
    alt_s = np.empty(n)
    vn_s = np.empty(n)
    ve_s = np.empty(n)
    euler = np.zeros((n, 3))
    a_world = np.empty((n, 3))
    rates = np.empty((n, 2))   # dpsi, dtheta at the sample instant
    for i in range(n):
        time_s = float(t[i])
        for m in range(TRUTH_OVERSAMPLE):
            dpsi, pitch_target, speed_target = targets[bisect_right(ends, time_s)]
            dtheta = max(-PITCH_RAMP_RATE, min(PITCH_RAMP_RATE, pitch_target - theta))
            dspeed = max(-SPEED_RAMP_ACCEL, min(SPEED_RAMP_ACCEL, speed_target - speed))
            if m == 0:
                # the sample instant shares the first micro-step's derivatives
                lat_s[i] = lat
                lon_s[i] = lon
                alt_s[i] = alt
                vn_s[i] = vn
                ve_s[i] = ve
                euler[i, 1] = theta
                euler[i, 2] = psi
                a_world[i] = (
                    dspeed * (ct * cp) + speed * (-st * dtheta * cp - ct * sp * dpsi),
                    dspeed * (ct * sp) + speed * (-st * dtheta * sp + ct * cp * dpsi),
                    dspeed * -st + speed * (-ct * dtheta),
                )
                rates[i] = (dpsi, dtheta)
                if i == n - 1:
                    break
                dt_micro = float(t[i + 1] - t[i]) / TRUTH_OVERSAMPLE
            psi += dpsi * dt_micro
            theta += dtheta * dt_micro
            speed += dspeed * dt_micro
            time_s += dt_micro
            if psi != psi_trig or psi == 0.0:
                psi_trig = psi
                cp, sp = math.cos(psi), math.sin(psi)
            if theta != theta_trig:
                theta_trig = theta
                ct, st = math.cos(theta), math.sin(theta)
            vn1, ve1, vd1 = speed * (ct * cp), speed * (ct * sp), speed * -st
            lat += 0.5 * (vn + vn1) * dt_micro * deg_per_m
            lon += 0.5 * (ve + ve1) * dt_micro * deg_per_m
            alt += 0.5 * (vd + vd1) * dt_micro
            vn, ve, vd = vn1, ve1, vd1

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

    if quantize:
        acc_counts = np.round(acc_meas * (ACCEL_LSB_PER_G / GRAVITY_MPS2)).astype(np.int64)
        gyr_counts = np.round(gyr_meas * (GYRO_LSB_PER_DPS * (180.0 / math.pi))).astype(np.int64)
        mag_counts = np.round(mag_meas * MAG_LSB_PER_GAUSS).astype(np.int64)
        for counts, what in ((acc_counts, "accel"), (gyr_counts, "gyro"), (mag_counts, "mag")):
            if counts.max() > 32767 or counts.min() < -32768:
                raise ValueError(f"{what} exceeds the sensor full-scale range")
        imu = imu_counts_to_arrays(t_ms, np.hstack([acc_counts, gyr_counts, mag_counts]))
    else:
        imu = ImuArrays(t_ms / 1000.0, acc_meas, gyr_meas, mag_meas, np.ones(n, dtype=np.uint8))

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
    gains: FusionGains = FusionGains(),
) -> list[SweepCell]:
    """Run the full pipeline once per (alpha, beta) cell on identical streams.

    Position references use the interpolated fix track (replay mode), and
    errors are RMS against truth, so the table mirrors the alpha/beta impact
    study's shape.
    """
    if not grid:
        raise ValueError("sweep grid must not be empty")
    for a, b in grid:
        if not (0.0 <= a <= 1.0 and 0.0 <= b <= 1.0):
            raise ValueError(f"grid cell ({a}, {b}) outside [0, 1]^2")
    truth, imu, gps = generate_flight(profile, noise)
    att = AttitudeEstimator(gains=gains, sample_rate_hz=profile.imu_rate_hz).run(*imu)

    def estimator(a: float, b: float) -> NavEstimator:
        return NavEstimator(
            weights=BlendWeights(a, b), sample_rate_hz=profile.imu_rate_hz, earth=profile.earth, mode="replay",
        )

    # the filtered world-frame accel and the GPS reference do not depend on the weights
    a_world = estimator(*grid[0]).world_accel(imu.accel, att.q)
    ref = prepare_gps_reference(imu.t, gps, mode="replay")
    cells = []
    for a, b in grid:
        nav = estimator(a, b).blend(imu.t, a_world, ref)
        err = rms_error(imu.t, nav.lat, nav.lon, truth, profile.earth)
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
    """Build a profile from the config-file schema (see README)."""
    segments = tuple(
        FlightSegment(
            kind=s["kind"],
            duration_s=float(s["duration_s"]),
            yaw_rate_dps=float(s.get("yaw_rate_dps", 0.0)),
            climb_rate_mps=float(s.get("climb_rate_mps", 0.0)),
            speed_mps=float(s["speed_mps"]) if "speed_mps" in s else None,
        )
        for s in d.get("segments", [])
    )
    base = standard_profile()
    return FlightProfile(
        segments=segments or base.segments,
        imu_rate_hz=float(d.get("imu_rate_hz", base.imu_rate_hz)),
        gps_rate_hz=float(d.get("gps_rate_hz", base.gps_rate_hz)),
        seed=int(d.get("seed", base.seed)),
        start_lat=float(d.get("start_lat", base.start_lat)),
        start_lon=float(d.get("start_lon", base.start_lon)),
        start_alt_m=float(d.get("start_alt_m", base.start_alt_m)),
        start_heading_deg=float(d.get("start_heading_deg", base.start_heading_deg)),
        speed_mps=float(d.get("speed_mps", base.speed_mps)),
        earth=EarthModel(float(d["earth_radius_m"])) if "earth_radius_m" in d else EarthModel(),
    )


def noise_from_dict(d: dict) -> SensorNoiseModel:
    base = SensorNoiseModel()
    return SensorNoiseModel(
        **{
            name: float(d.get(name, getattr(base, name)))
            for name in (
                "accel_noise_sigma", "accel_bias", "gyro_noise_sigma", "gyro_bias",
                "mag_noise_sigma", "gps_pos_sigma_m", "gps_dropout_prob",
            )
        }
    )
