"""End-to-end fusion orchestration shared by the CLI modes.

Takes an IMU stream as ``ImuArrays`` columns and a list of GPS fixes, runs
the attitude and then the position estimator over it, and formats the fused
output rows. Live and replay runs differ only in the GPS
position reference (latest fix vs linear interpolation), so replaying a
recording reproduces the live attitude output bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .attitude import AttitudeEstimator, FusionGains, ImuArrays
from .geo import EARTH_RADIUS_M, EarthModel
from .navigation import BlendWeights, GpsFix, NavEstimator

FUSED_HEADER = "t_ms,qw,qx,qy,qz,roll_deg,pitch_deg,yaw_deg,lat,lon,v_north,v_east"
_FUSED_ROW = "%d" + ",%.9f" * 11


@dataclass(frozen=True)
class FusionConfig:
    alpha: float = 0.1
    beta: float = 0.1
    gamma_rp: float = 0.98
    gamma_yaw: float = 0.98
    accel_lp_hz: float = 5.0
    gyro_hp_hz: float = 0.1
    cutoff_hz: float | None = None          # None: 10 Hz at fs=1000, else fs/6 capped at 10
    declination_deg: float = 0.0
    hard_iron: tuple[float, float, float] = (0.0, 0.0, 0.0)
    lon_scale_correction: bool = False
    earth_radius_m: float = EARTH_RADIUS_M
    stale_after_s: float = 3.0
    gps_mode: str = "live"                  # "live" | "replay"
    sample_rate_hz: float | None = None     # None: estimated from the stream


@dataclass(frozen=True)
class FusionOutput:
    t: np.ndarray
    t_ms: np.ndarray
    euler: np.ndarray   # (n, 3) radians
    q: np.ndarray       # (n, 4)
    vel: np.ndarray     # (n, 2) v_north, v_east
    lat: np.ndarray
    lon: np.ndarray
    att_flags: np.ndarray = field(repr=False, default=None)


def estimate_sample_rate(t: np.ndarray) -> float:
    if len(t) < 2:
        return 60.0
    return 1.0 / float(np.median(np.diff(t)))


def fuse_streams(imu: ImuArrays, fixes: list[GpsFix], cfg: FusionConfig = FusionConfig()) -> FusionOutput:
    if len(imu.t) == 0:
        raise ValueError("no IMU samples to fuse")
    t = imu.t
    fs = cfg.sample_rate_hz or estimate_sample_rate(t)

    att = AttitudeEstimator(
        gains=FusionGains(cfg.gamma_rp, cfg.gamma_yaw),
        sample_rate_hz=fs,
        accel_lp_hz=cfg.accel_lp_hz,
        gyro_hp_hz=cfg.gyro_hp_hz,
        declination_rad=math.radians(cfg.declination_deg),
        hard_iron=cfg.hard_iron,
    ).run(*imu)

    nav = NavEstimator(
        weights=BlendWeights(cfg.alpha, cfg.beta),
        sample_rate_hz=fs,
        cutoff_hz=cfg.cutoff_hz,
        earth=EarthModel(cfg.earth_radius_m),
        lon_scale_correction=cfg.lon_scale_correction,
        stale_after_s=cfg.stale_after_s,
        mode=cfg.gps_mode,
    ).run(t, imu.accel, att.q, fixes)

    return FusionOutput(
        t=t, t_ms=imu.t_ms, euler=att.euler, q=att.q, vel=nav.vel, lat=nav.lat, lon=nav.lon,
        att_flags=att.flags,
    )


def fused_rows(out: FusionOutput):
    """Yield output CSV lines (without newline), header excluded."""
    cols = np.column_stack([out.q, out.euler * (180.0 / math.pi), out.lat, out.lon, out.vel])
    for t_ms, row in zip(out.t_ms.tolist(), cols.tolist()):
        yield _FUSED_ROW % (t_ms, *row)
