"""End-to-end fusion orchestration shared by the CLI modes.

Takes an IMU stream as ``ImuArrays`` columns and the GPS fixes as
``GpsArrays`` columns, runs the attitude and then the position estimator
over them, and formats the fused output rows. Live and replay runs differ only in the GPS
position reference (latest fix vs linear interpolation), so replaying a
recording reproduces the live attitude output bit for bit.

``fuse_blocks`` fuses a stream in blocks of ``_BLOCK_ROWS`` (1,024) rows,
the block the CSV formatter writes, so the CLI writes each block's rows as
soon as it is fused instead of after the whole flight. Everything that can
refuse the input (the config, the IMU columns, the GPS fixes) is checked
before the first block, so an input error leaves no row behind. The
estimators carry their state from block to block, and ``fuse_streams`` is
the same blocks concatenated: the output does not depend on the block size,
bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import Iterator, NamedTuple

import numpy as np

from .attitude import AttitudeEstimator, FusionGains, ImuArrays, check_imu, warn_gaps
from .geo import EARTH_RADIUS_M, EarthModel
from .navigation import BlendWeights, GpsArrays, NavEstimator, prepare_gps_reference

FUSED_HEADER = "t_ms,qw,qx,qy,qz,roll_deg,pitch_deg,yaw_deg,lat,lon,v_north,v_east"
_FUSED_ROW = "%d" + ",%.9f" * 11
_BLOCK_ROWS = 1024


@dataclass(frozen=True)
class FusionConfig:
    alpha: float = 0.1
    beta: float = 0.1
    gamma_rp: float = 0.98
    gamma_yaw: float = 0.98
    accel_lp_hz: float = 5.0
    gyro_hp_hz: float = 0.1
    cutoff_hz: float | None = None          # None: default_position_cutoff_hz(fs), fs/6 capped at 10
    declination_deg: float = 0.0
    lon_scale_correction: bool = False
    earth_radius_m: float = EARTH_RADIUS_M
    stale_after_s: float = 3.0
    gps_mode: str = "live"                  # "live" | "replay"


class FusionOutput(NamedTuple):
    t: np.ndarray
    t_ms: np.ndarray
    euler: np.ndarray   # (n, 3) radians
    q: np.ndarray       # (n, 4)
    vel: np.ndarray     # (n, 2) v_north, v_east
    lat: np.ndarray
    lon: np.ndarray
    att_flags: np.ndarray   # (n,) uint8 attitude FLAG_* bits


def read_option(name: str, value, like):
    """``value`` read as the kind of ``like``: a bool must be a bool, any
    other kind (``int``, ``float``, ``str``, ``dict``) reads the value
    through itself, and a ``None`` takes ``None`` or a float; no other kind
    takes ``None``. Raises ``ValueError`` naming ``name`` for a value of
    another kind."""
    kind = float if like is None else type(like)
    if value is None and like is None:
        return None
    try:
        if value is None or isinstance(value, bool) != (kind is bool):
            raise TypeError
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"option {name!r}: expected {kind.__name__}, got {value!r}") from None


def replace_fields(record, values: dict):
    """The frozen dataclass ``record`` with the scalar fields named in
    ``values`` replaced, each value read by ``read_option`` as the kind of
    the field's value in ``record``. Raises ``ValueError`` for a name that
    is not such a field, a value of the wrong kind, or whatever ``record``'s
    own checks raise."""
    scalar = (bool, int, float, str, type(None))
    names = {f.name for f in fields(record) if isinstance(getattr(record, f.name), scalar)}
    unknown = sorted(values.keys() - names)
    if unknown:
        raise ValueError("unknown option " + ", ".join(map(repr, unknown)))
    return replace(record, **{k: read_option(k, v, getattr(record, k)) for k, v in values.items()})


def estimate_sample_rate(t: np.ndarray) -> float:
    if len(t) < 2:
        return 60.0
    return 1.0 / float(np.median(np.diff(t)))


def build_estimators(cfg: FusionConfig, sample_rate_hz: float) -> tuple[AttitudeEstimator, NavEstimator]:
    """The attitude and position estimators ``cfg`` sets up for a stream
    sampled at ``sample_rate_hz``; raises ``ValueError`` for a bad option."""
    att = AttitudeEstimator(
        gains=FusionGains(cfg.gamma_rp, cfg.gamma_yaw),
        sample_rate_hz=sample_rate_hz,
        accel_lp_hz=cfg.accel_lp_hz,
        gyro_hp_hz=cfg.gyro_hp_hz,
        declination_rad=math.radians(cfg.declination_deg),
    )
    nav = NavEstimator(
        weights=BlendWeights(cfg.alpha, cfg.beta),
        sample_rate_hz=sample_rate_hz,
        cutoff_hz=cfg.cutoff_hz,
        earth=EarthModel(cfg.earth_radius_m),
        lon_scale_correction=cfg.lon_scale_correction,
        stale_after_s=cfg.stale_after_s,
        mode=cfg.gps_mode,
    )
    return att, nav


def fuse_blocks(imu: ImuArrays, gps: GpsArrays, cfg: FusionConfig = FusionConfig()) -> Iterator[FusionOutput]:
    """The fusion of ``imu`` and ``gps`` as one ``FusionOutput`` per block of
    ``_BLOCK_ROWS`` rows.

    This call does the per-stream work and raises for a bad input or config;
    the iterator it returns only fuses. The sample rate is the whole
    stream's, and the GPS reference is prepared over all rows, then sliced
    per block. After the last block, one warning names the stream's gaps.
    """
    if len(imu.t) == 0:
        raise ValueError("no IMU samples to fuse")
    check_imu(imu.t, imu.accel, imu.gyro)
    att, nav = build_estimators(cfg, estimate_sample_rate(imu.t))
    ref = prepare_gps_reference(imu.t, gps, cfg.gps_mode, cfg.stale_after_s)
    t_ms = imu.t_ms

    def blocks():
        gaps = 0
        for lo in range(0, len(t_ms), _BLOCK_ROWS):
            rows = slice(lo, lo + _BLOCK_ROWS)
            block = imu._make(col[rows] for col in imu)
            a = att.run(*block)
            gaps += a.gaps
            track = nav.blend(a.t, nav.world_accel(block.accel, a.q), ref._make(col[rows] for col in ref))
            yield FusionOutput(a.t, t_ms[rows], a.euler, a.q, track.vel, track.lat, track.lon, a.flags)
        warn_gaps(gaps)

    return blocks()


def fuse_streams(imu: ImuArrays, gps: GpsArrays, cfg: FusionConfig = FusionConfig()) -> FusionOutput:
    """The whole streams fused at once: the blocks of ``fuse_blocks``, concatenated."""
    return FusionOutput._make(map(np.concatenate, zip(*fuse_blocks(imu, gps, cfg))))


def csv_blocks(row_format: str, cols: np.ndarray):
    """Format the rows of a float64 (n, k) array, yielding strings of up to
    1,024 newline-terminated lines, each block one ``%`` call.

    A ``%d`` cell takes an integral float, which prints as the int does.
    """
    for lo in range(0, len(cols), _BLOCK_ROWS):
        block = cols[lo:lo + _BLOCK_ROWS]
        yield (row_format + "\n") * len(block) % tuple(block.ravel().tolist())


def fused_rows(out: FusionOutput):
    """Yield the output CSV rows in blocks of newline-terminated lines, header excluded."""
    cols = np.column_stack([out.t_ms, out.q, out.euler * (180.0 / math.pi), out.lat, out.lon, out.vel])
    yield from csv_blocks(_FUSED_ROW, cols)
