"""Binary telemetry frame codec standing in for the radio payload link.

Frame layout, little-endian throughout:

    magic 0xA5 (1B) | kind (1B) | seq (2B) | t_ms (4B) | payload | crc (2B)

The CRC is CRC-16/CCITT-FALSE (poly 0x1021, init 0xFFFF, check 0x29B1) over
every byte before it, magic included.

IMU payload (18B): 9 x int16 raw counts at the sensors' full-scale ranges —
accel 2048 LSB/g (+-16 g), gyro 16.4 LSB/(deg/s) (+-2000 deg/s), mag
1090 LSB/gauss. Frame total 28 bytes.

GPS payload (17B): lat, lon int32 x 1e-7 deg; speed uint16 cm/s; course
uint16 x 0.01 deg; altitude int32 x 0.01 m; flags 1B (bit0 = fix valid,
bit1 = altitude valid). Frame total 27 bytes.

Frames carry raw integer counts so encode/decode is an exact bijection; the
count-to-physical conversions round to 9 decimal places, which keeps the
values bit-stable through the flight-recording CSV round trip.

A byte stream is scanned into column arrays (``scan_frames``): one walk finds
the accepted frames, and numpy gathers them as ``IMU_WIRE``/``GPS_WIRE``
records, which ``imu_counts_to_arrays`` and ``gps_counts_to_arrays`` convert
to units in one call each. ``imu_arrays_to_counts`` and
``gps_arrays_to_counts`` are their exact inverses, for the encoders of the
simulator and the tests; this module alone holds the wire scales.
``scan_stream`` is the same result as ``TelemetryFrame`` objects.
"""

from __future__ import annotations

import binascii
import enum
import math
import struct
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .attitude import GRAVITY_MPS2, ImuArrays
from .errors import CorruptionError, EncodeRangeError, FramingError, TruncationError
from .navigation import GpsArrays

MAGIC = 0xA5

ACCEL_LSB_PER_G = 2048.0
GYRO_LSB_PER_DPS = 16.4
MAG_LSB_PER_GAUSS = 1090.0

_HEADER = struct.Struct("<BBHI")
_IMU_PAYLOAD = struct.Struct("<9h")
_GPS_PAYLOAD = struct.Struct("<iiHHiB")
_CRC = struct.Struct("<H")

IMU_FRAME_LEN = _HEADER.size + _IMU_PAYLOAD.size + _CRC.size   # 28
GPS_FRAME_LEN = _HEADER.size + _GPS_PAYLOAD.size + _CRC.size   # 27
MAX_FRAME_LEN = 32


class FrameKind(enum.IntEnum):
    IMU = 0x01
    GPS = 0x02


_FRAME_LEN = {FrameKind.IMU: IMU_FRAME_LEN, FrameKind.GPS: GPS_FRAME_LEN}
# plain ints: the scan compares every frame's kind byte, and an enum compare costs more
_IMU_KIND, _GPS_KIND = int(FrameKind.IMU), int(FrameKind.GPS)

# Whole frames as numpy records, for the column scan.
_WIRE_HEADER = [("magic", "u1"), ("kind", "u1"), ("seq", "<u2"), ("t_ms", "<u4")]
IMU_WIRE = np.dtype(_WIRE_HEADER + [("counts", "<i2", (9,)), ("crc", "<u2")])
GPS_WIRE = np.dtype(_WIRE_HEADER + [
    ("lat_e7", "<i4"), ("lon_e7", "<i4"), ("speed_cmps", "<u2"), ("course_cdeg", "<u2"),
    ("alt_cm", "<i4"), ("flags", "u1"), ("crc", "<u2"),
])


def crc16_ccitt_false(data: bytes) -> int:
    # binascii's CRC-CCITT (XMODEM) is the same unreflected poly-0x1021 CRC;
    # seeding it with 0xFFFF makes it CCITT-FALSE.
    return binascii.crc_hqx(data, 0xFFFF)


def _crc_mismatch(crc_rx: int, crc_calc: int) -> str:
    return f"CRC mismatch: received 0x{crc_rx:04X}, computed 0x{crc_calc:04X}"


class ImuPayload(NamedTuple):
    """Raw signed 16-bit sensor counts."""

    ax: int
    ay: int
    az: int
    gx: int
    gy: int
    gz: int
    mx: int
    my: int
    mz: int


@dataclass(frozen=True)
class GpsPayload:
    """Raw fixed-point GPS fields."""

    lat_e7: int
    lon_e7: int
    speed_cmps: int
    course_cdeg: int
    valid: bool
    alt_cm: int = 0
    alt_valid: bool = False


@dataclass(frozen=True)
class TelemetryFrame:
    kind: FrameKind
    seq: int
    t_ms: int
    payload: ImuPayload | GpsPayload


def _check_range(name: str, value: int, lo: int, hi: int) -> None:
    if not isinstance(value, int) or isinstance(value, bool):
        raise EncodeRangeError(f"{name} must be an integer, got {value!r}")
    if not lo <= value <= hi:
        raise EncodeRangeError(f"{name}={value} outside [{lo}, {hi}]")


def encode_frame(frame: TelemetryFrame) -> bytes:
    _check_range("seq", frame.seq, 0, 0xFFFF)
    _check_range("t_ms", frame.t_ms, 0, 0xFFFFFFFF)
    if frame.kind == FrameKind.IMU:
        p = frame.payload
        for name in ("ax", "ay", "az", "gx", "gy", "gz", "mx", "my", "mz"):
            _check_range(name, getattr(p, name), -32768, 32767)
        body = _HEADER.pack(MAGIC, frame.kind, frame.seq, frame.t_ms) + _IMU_PAYLOAD.pack(
            p.ax, p.ay, p.az, p.gx, p.gy, p.gz, p.mx, p.my, p.mz
        )
    elif frame.kind == FrameKind.GPS:
        p = frame.payload
        _check_range("lat_e7", p.lat_e7, -(2**31), 2**31 - 1)
        _check_range("lon_e7", p.lon_e7, -(2**31), 2**31 - 1)
        _check_range("speed_cmps", p.speed_cmps, 0, 0xFFFF)
        _check_range("course_cdeg", p.course_cdeg, 0, 0xFFFF)
        _check_range("alt_cm", p.alt_cm, -(2**31), 2**31 - 1)
        flags = (0x01 if p.valid else 0x00) | (0x02 if p.alt_valid else 0x00)
        body = _HEADER.pack(MAGIC, frame.kind, frame.seq, frame.t_ms) + _GPS_PAYLOAD.pack(
            p.lat_e7, p.lon_e7, p.speed_cmps, p.course_cdeg, p.alt_cm, flags
        )
    else:
        raise EncodeRangeError(f"unknown frame kind {frame.kind!r}")
    return body + _CRC.pack(crc16_ccitt_false(body))


def decode_frame(data: bytes) -> TelemetryFrame:
    """Inverse of encode_frame; raises a distinct error per failure mode."""
    if len(data) < 2:
        raise TruncationError(f"need at least 2 bytes, got {len(data)}", offset=len(data))
    if data[0] != MAGIC:
        raise FramingError(f"bad magic byte 0x{data[0]:02X}", offset=0)
    try:
        kind = FrameKind(data[1])
    except ValueError:
        raise FramingError(f"unknown frame kind 0x{data[1]:02X}", offset=1) from None
    need = _FRAME_LEN[kind]
    if len(data) < need:
        raise TruncationError(f"{kind.name} frame needs {need} bytes, got {len(data)}", offset=len(data))
    if len(data) != need:
        raise FramingError(f"{kind.name} frame must be exactly {need} bytes, got {len(data)}", offset=need)
    body, crc_bytes = data[: need - 2], data[need - 2 :]
    (crc_rx,) = _CRC.unpack(crc_bytes)
    crc_calc = crc16_ccitt_false(body)
    if crc_rx != crc_calc:
        raise CorruptionError(_crc_mismatch(crc_rx, crc_calc), offset=need - 2)
    _, _, seq, t_ms = _HEADER.unpack_from(body)
    if kind == FrameKind.IMU:
        payload = ImuPayload(*_IMU_PAYLOAD.unpack_from(body, _HEADER.size))
    else:
        payload = _gps_payload(*_GPS_PAYLOAD.unpack_from(body, _HEADER.size))
    return TelemetryFrame(kind=kind, seq=seq, t_ms=t_ms, payload=payload)


def _gps_payload(lat_e7, lon_e7, speed, course, alt_cm, flags) -> GpsPayload:
    """The payload of the wire fields; flag bits 2-7 carry nothing."""
    return GpsPayload(lat_e7, lon_e7, speed, course, bool(flags & 0x01), alt_cm, bool(flags & 0x02))


def gps_payloads(gps: np.ndarray) -> list[GpsPayload]:
    """One ``GpsPayload`` per ``GPS_WIRE`` record."""
    fields = ("lat_e7", "lon_e7", "speed_cmps", "course_cdeg", "alt_cm", "flags")
    return [_gps_payload(*row) for row in zip(*(gps[f].tolist() for f in fields))]


@dataclass(frozen=True)
class StreamDiagnostic:
    offset: int
    reason: str    # "skip" | "framing" | "truncation" | "corruption"
    detail: str


def _walk(data: bytes) -> tuple[list[int], list[int], list[StreamDiagnostic]]:
    """Find the valid frames in a possibly dirty byte stream.

    Scans for the magic byte, checks the kind, the length and the CRC of a
    candidate frame, and resyncs by advancing a single byte on failure, so a
    valid frame is never lost to preceding garbage. Returns the byte offsets
    of the IMU and of the GPS frames, and every failure as a diagnostic.
    """
    imu_at: list[int] = []
    gps_at: list[int] = []
    diags: list[StreamDiagnostic] = []
    view = memoryview(data)
    crc_hqx = binascii.crc_hqx
    i = 0
    n = len(data)
    while i < n:
        if data[i] != MAGIC:
            j = data.find(MAGIC, i)
            if j < 0:
                j = n
            diags.append(StreamDiagnostic(i, "skip", f"skipped {j - i} non-frame byte(s)"))
            i = j
            continue
        if n - i < 2:
            diags.append(StreamDiagnostic(i, "truncation", "stream ends after magic byte"))
            break
        kind_byte = data[i + 1]
        if kind_byte == _IMU_KIND:
            need, found = IMU_FRAME_LEN, imu_at
        elif kind_byte == _GPS_KIND:
            need, found = GPS_FRAME_LEN, gps_at
        else:
            diags.append(StreamDiagnostic(i, "framing", f"unknown frame kind 0x{kind_byte:02X}"))
            i += 1
            continue
        if n - i < need:
            # No complete frame fits in the remaining bytes (min frame 27B).
            diags.append(
                StreamDiagnostic(i, "truncation", f"stream ends {need - (n - i)} byte(s) into a frame")
            )
            break
        crc_at = i + need - 2
        crc_rx = data[crc_at] | data[crc_at + 1] << 8
        crc_calc = crc_hqx(view[i:crc_at], 0xFFFF)
        if crc_rx != crc_calc:
            diags.append(StreamDiagnostic(i, "corruption", _crc_mismatch(crc_rx, crc_calc)))
            i += 1
            continue
        found.append(i)
        i += need
    return imu_at, gps_at, diags


def _records(data: bytes, at: list[int], wire: np.dtype) -> np.ndarray:
    """The frames starting at byte offsets ``at``, gathered as ``wire`` records."""
    if not at:
        return np.empty(0, dtype=wire)
    # a window view indexes whole frames without an (n, frame length) index matrix
    frames = sliding_window_view(np.frombuffer(data, dtype=np.uint8), wire.itemsize)[at]
    return frames.view(wire)[:, 0]


def scan_frames(data: bytes) -> tuple[np.ndarray, np.ndarray, list[StreamDiagnostic]]:
    """Recover every valid frame from a possibly dirty byte stream, as columns.

    Returns the IMU frames as ``IMU_WIRE`` records and the GPS frames as
    ``GPS_WIRE`` records, each kind in stream order, and the diagnostics.
    """
    imu_at, gps_at, diags = _walk(data)
    return _records(data, imu_at, IMU_WIRE), _records(data, gps_at, GPS_WIRE), diags


def scan_stream(data: bytes) -> tuple[list[TelemetryFrame], list[StreamDiagnostic]]:
    """``scan_frames`` as ``TelemetryFrame`` objects in stream order."""
    imu_at, gps_at, diags = _walk(data)
    imu, gps = _records(data, imu_at, IMU_WIRE), _records(data, gps_at, GPS_WIRE)
    frames = [
        TelemetryFrame(FrameKind.IMU, seq, t_ms, ImuPayload(*counts))
        for seq, t_ms, counts in zip(imu["seq"].tolist(), imu["t_ms"].tolist(), imu["counts"].tolist())
    ] + [
        TelemetryFrame(FrameKind.GPS, seq, t_ms, payload)
        for seq, t_ms, payload in zip(gps["seq"].tolist(), gps["t_ms"].tolist(), gps_payloads(gps))
    ]
    at = imu_at + gps_at
    return [frames[k] for k in sorted(range(len(frames)), key=at.__getitem__)], diags


def _round9(x: np.ndarray) -> np.ndarray:
    """Python's ``round(v, 9)`` of each value; ``np.round`` differs from it."""
    return np.array([round(v, 9) for v in x.tolist()], dtype=np.float64)


# Counts to units, and units to counts, for the accel, gyro and mag column
# triples of a payload.
_IMU_UNITS_PER_COUNT = (
    GRAVITY_MPS2 / ACCEL_LSB_PER_G,
    (math.pi / 180.0) / GYRO_LSB_PER_DPS,
    1.0 / MAG_LSB_PER_GAUSS,
)
_IMU_COUNTS_PER_UNIT = (
    ACCEL_LSB_PER_G / GRAVITY_MPS2,
    GYRO_LSB_PER_DPS * (180.0 / math.pi),
    MAG_LSB_PER_GAUSS,
)


def imu_counts_to_arrays(t_ms, counts) -> ImuArrays:
    """Physical-unit columns from raw counts (values exact at 9 decimals).

    ``t_ms`` holds n integer times and ``counts`` an (n, 9) integer array in
    ``ImuPayload`` field order. Each value is Python's ``round(count * k, 9)``;
    ``np.round`` differs from it for some counts, so the rounding runs once
    per distinct count and is scattered back.
    """
    t_ms = np.asarray(t_ms, dtype=np.int64)
    counts = np.asarray(counts, dtype=np.int64).reshape(len(t_ms), 9)
    cols = []
    for k, scale in enumerate(_IMU_UNITS_PER_COUNT):
        distinct, where = np.unique(counts[:, 3 * k : 3 * k + 3], return_inverse=True)
        cols.append(_round9(distinct * scale)[where.reshape(-1)].reshape(-1, 3))
    return ImuArrays(t_ms / 1000.0, *cols, np.ones(len(t_ms), dtype=np.uint8))


def imu_arrays_to_counts(imu: ImuArrays) -> np.ndarray:
    """The (n, 9) int64 raw counts of IMU columns in ``ImuPayload`` field
    order, rounded half to even: the exact inverse of ``imu_counts_to_arrays``.
    Raises ``EncodeRangeError`` for a row without a magnetometer reading and
    for a count outside int16.
    """
    if not np.all(imu.has_mag):
        raise EncodeRangeError("IMU frame payload requires a magnetometer reading")
    counts = np.empty((len(imu.t), 9), dtype=np.int64)
    columns = (("accel", imu.accel), ("gyro", imu.gyro), ("mag", imu.mag))
    for k, ((what, col), scale) in enumerate(zip(columns, _IMU_COUNTS_PER_UNIT)):
        c = np.rint(np.asarray(col, dtype=np.float64) * scale)
        if not ((c >= -32768) & (c <= 32767)).all():
            raise EncodeRangeError(f"{what} exceeds the sensor full-scale range")
        counts[:, 3 * k : 3 * k + 3] = c
    return counts


def gps_counts_to_arrays(t_ms, counts) -> GpsArrays:
    """Fix columns from raw wire fields, which ``counts`` maps by their
    ``GPS_WIRE`` names (values exact at 9 decimals). Each value is Python's
    ``round(v, 9)``, the course in radians by ``math.radians``; a fix without
    the altitude flag has a NaN altitude.
    """
    flags = np.asarray(counts["flags"])
    course = np.array([math.radians(c) for c in (counts["course_cdeg"] / 100.0).tolist()])
    return GpsArrays(
        np.asarray(t_ms, dtype=np.int64) / 1000.0,
        _round9(counts["lat_e7"] / 1e7), _round9(counts["lon_e7"] / 1e7),
        _round9(counts["speed_cmps"] / 100.0), _round9(course),
        np.where(flags & 0x02, _round9(counts["alt_cm"] / 100.0), np.nan),
        (flags & 0x01) != 0,
    )


def gps_arrays_to_counts(gps: GpsArrays) -> dict[str, np.ndarray]:
    """The raw wire fields of fix columns by ``GPS_WIRE`` name, rounded half
    to even as Python's ``round`` does: the inverse of
    ``gps_counts_to_arrays``. A NaN course encodes as 0 and a NaN altitude as
    0 without the altitude flag.
    """
    course_deg = np.array([math.degrees(c) % 360.0 for c in gps.course.tolist()], dtype=np.float64)
    has_alt = ~np.isnan(gps.alt)
    scaled = (gps.lat * 1e7, gps.lon * 1e7, gps.speed * 100.0, np.nan_to_num(course_deg) * 100.0,
              np.where(has_alt, gps.alt, 0.0) * 100.0)
    lat, lon, speed, course, alt = (np.rint(x).astype(np.int64) for x in scaled)
    flags = np.asarray(gps.valid, dtype=np.int64) | 2 * has_alt
    return dict(lat_e7=lat, lon_e7=lon, speed_cmps=speed, course_cdeg=course % 36000, alt_cm=alt, flags=flags)
