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

Frames are ``IMU_WIRE``/``GPS_WIRE`` numpy records in both directions.
``encode_frames`` builds the records of integer field columns, and the
``.tobytes()`` of its result is the wire stream. ``scan_frames`` recovers the
records from a possibly dirty byte stream: one walk finds the accepted frames,
and numpy gathers them. A single frame decodes as ``scan_frames(frame)``; when
it fails, the reason is its ``StreamDiagnostic.reason`` (``framing``,
``truncation`` or ``corruption``, or ``skip`` for bytes before a magic byte).
``imu_counts_to_arrays`` and ``gps_counts_to_arrays`` convert the records'
counts to units in one call each. ``imu_arrays_to_counts`` and
``gps_arrays_to_counts`` are their exact inverses, for the encoders of the
simulator and the tests; this module alone holds the wire scales.
"""

from __future__ import annotations

import binascii
import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .attitude import GRAVITY_MPS2, ImuArrays
from .errors import EncodeRangeError
from .navigation import GpsArrays

MAGIC = 0xA5

ACCEL_LSB_PER_G = 2048.0
GYRO_LSB_PER_DPS = 16.4
MAG_LSB_PER_GAUSS = 1090.0

# The kind byte of each frame, after the magic byte.
_IMU_KIND, _GPS_KIND = 0x01, 0x02

# Whole frames as numpy records.
_WIRE_HEADER = [("magic", "u1"), ("kind", "u1"), ("seq", "<u2"), ("t_ms", "<u4")]
IMU_WIRE = np.dtype(_WIRE_HEADER + [("counts", "<i2", (9,)), ("crc", "<u2")])
GPS_WIRE = np.dtype(_WIRE_HEADER + [
    ("lat_e7", "<i4"), ("lon_e7", "<i4"), ("speed_cmps", "<u2"), ("course_cdeg", "<u2"),
    ("alt_cm", "<i4"), ("flags", "u1"), ("crc", "<u2"),
])

IMU_FRAME_LEN = IMU_WIRE.itemsize   # 28
GPS_FRAME_LEN = GPS_WIRE.itemsize   # 27
MAX_FRAME_LEN = 32


def crc16_ccitt_false(data: bytes) -> int:
    # binascii's CRC-CCITT (XMODEM) is the same unreflected poly-0x1021 CRC;
    # seeding it with 0xFFFF makes it CCITT-FALSE.
    return binascii.crc_hqx(data, 0xFFFF)


def _crc_mismatch(crc_rx: int, crc_calc: int) -> str:
    return f"CRC mismatch: received 0x{crc_rx:04X}, computed 0x{crc_calc:04X}"


def encode_frames(wire: np.dtype, t_ms, seq=None, **fields) -> np.ndarray:
    """The ``wire`` records (``IMU_WIRE`` or ``GPS_WIRE``) of frames with the
    times ``t_ms`` and the payload ``fields``, each a column of integers by
    its ``wire`` name, with the magic, kind and CRC filled in. ``seq``
    defaults to the row index mod 2**16. Raises ``TypeError`` unless
    ``fields`` names every payload field and no other, and
    ``EncodeRangeError`` naming the field of a value that is not an integer
    or does not fit its type.
    """
    kind = {IMU_WIRE: _IMU_KIND, GPS_WIRE: _GPS_KIND}[wire]
    payload = wire.names[4:-1]
    if fields.keys() != set(payload):
        raise TypeError(f"the payload fields are {payload}, got {tuple(fields)}")
    n = len(t_ms)
    frames = np.zeros(n, dtype=wire)
    frames["magic"], frames["kind"] = MAGIC, kind
    columns = {"seq": np.arange(n) % 0x10000 if seq is None else seq, "t_ms": t_ms, **fields}
    for name, column in columns.items():
        column, info = np.asarray(column), np.iinfo(wire[name].base)
        if column.dtype.kind not in "iu":
            raise EncodeRangeError(f"{name} must be integers in [{info.min}, {info.max}], got {column.dtype}")
        if column.size and not info.min <= int(column.min()) <= int(column.max()) <= info.max:
            raise EncodeRangeError(f"{name} outside [{info.min}, {info.max}]")
        frames[name] = column
    raw, size = memoryview(frames.tobytes()), wire.itemsize
    frames["crc"] = [binascii.crc_hqx(raw[k : k + size - 2], 0xFFFF) for k in range(0, n * size, size)]
    return frames


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
    ``IMU_WIRE`` order: accel, gyro and mag, each x, y, z. Each value is
    Python's ``round(count * k, 9)``; ``np.round`` differs from it for some
    counts, so the rounding runs once per distinct count and is scattered
    back.
    """
    t_ms = np.asarray(t_ms, dtype=np.int64)
    counts = np.asarray(counts, dtype=np.int64).reshape(len(t_ms), 9)
    cols = []
    for k, scale in enumerate(_IMU_UNITS_PER_COUNT):
        distinct, where = np.unique(counts[:, 3 * k : 3 * k + 3], return_inverse=True)
        cols.append(_round9(distinct * scale)[where.reshape(-1)].reshape(-1, 3))
    return ImuArrays(t_ms / 1000.0, *cols, np.ones(len(t_ms), dtype=np.uint8))


def imu_arrays_to_counts(imu: ImuArrays) -> np.ndarray:
    """The (n, 9) int64 raw counts of IMU columns in ``IMU_WIRE`` order,
    rounded half to even: the exact inverse of ``imu_counts_to_arrays``.
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
