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
records from a possibly dirty byte stream: array passes find the frames that a
byte walk with resync would accept, and that walk's diagnostics, and numpy
gathers the frames. Both directions compute the CRC with one lookup in a
256-entry table per byte column, over all frames at once. A single frame
decodes as ``scan_frames(frame)``; when it fails, the reason is its
``StreamDiagnostic.reason`` (``framing``, ``truncation`` or ``corruption``, or
``skip`` for bytes before a magic byte). ``imu_counts_to_arrays`` and
``gps_counts_to_arrays`` convert the records' counts to units in one call
each. ``imu_arrays_to_counts`` and ``gps_arrays_to_counts`` are their exact
inverses, for the encoders of the simulator and the tests; this module alone
holds the wire scales. ``decode_stream`` is the decode of ``live`` and
``record``: the scan, the wire's drop rules, then the conversions to units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .attitude import GRAVITY_MPS2, ImuArrays
from .errors import EncodeRangeError
from .navigation import GpsArrays, gps_in_range

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


def _crc_table() -> np.ndarray:
    """The CRC of each byte value shifted into the high byte, as uint16."""
    crc = np.arange(256, dtype=np.uint16) << 8
    for _ in range(8):
        crc = np.where(crc & 0x8000, (crc << 1) ^ 0x1021, crc << 1)
    return crc


_CRC_TABLE = _crc_table()


def _crc16(rows: np.ndarray) -> np.ndarray:
    """The CRC-16/CCITT-FALSE of each row of an (n, k) uint8 array, as uint16:
    one table step per byte column, over all rows at once."""
    crc = np.full(len(rows), 0xFFFF, dtype=np.uint16)
    for k in range(rows.shape[1]):
        crc = (crc << 8) ^ _CRC_TABLE.take((crc >> 8) ^ rows[:, k])
    return crc


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
    frames["crc"] = _crc16(frames.view(np.uint8).reshape(n, wire.itemsize)[:, :-2])
    return frames


@dataclass(frozen=True)
class StreamDiagnostic:
    offset: int
    reason: str    # "skip" | "framing" | "truncation" | "corruption"
    detail: str


def _records(buf: np.ndarray, at: np.ndarray, wire: np.dtype) -> np.ndarray:
    """The frames starting at byte offsets ``at`` of ``buf``, gathered as ``wire`` records."""
    if not len(at):
        return np.empty(0, dtype=wire)
    # a window view indexes whole frames without an (n, frame length) index matrix
    frames = sliding_window_view(buf, wire.itemsize)[at]
    return frames.view(wire)[:, 0]


def _first_fit(starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Which of the frames ``[starts, ends)``, sorted by start, a walk from the
    left accepts: each one that does not start inside an accepted one."""
    if not (starts[1:] < ends[:-1]).any():
        return np.ones(len(starts), dtype=bool)
    keep = []
    end = 0
    for start, stop in zip(starts.tolist(), ends.tolist()):
        keep.append(start >= end)
        if keep[-1]:
            end = stop
    return np.array(keep, dtype=bool)


def scan_frames(data: bytes) -> tuple[np.ndarray, np.ndarray, list[StreamDiagnostic]]:
    """Recover every valid frame from a possibly dirty byte stream, as columns.

    Returns the IMU frames as ``IMU_WIRE`` records and the GPS frames as
    ``GPS_WIRE`` records, each kind in stream order, and the diagnostics.
    The result is that of a walk that checks the kind, the length and the
    CRC of the candidate frame at each magic byte it meets, advances past a
    frame it accepts and by one byte past a candidate it refuses, so that a
    valid frame is never lost to the garbage before it, and stops at a
    candidate that the stream ends inside. Each refusal is a diagnostic, as
    is each run of bytes before the next magic byte (``skip``).

    The walk runs as array passes: every candidate's kind, length and CRC at
    once; then the frames the walk accepts, which are all the CRC-valid
    candidates unless one starts inside another (then one pass over the
    valid candidates picks them); then the candidates the walk meets, those
    outside the accepted frames, and the places it lands after each.
    """
    buf = np.frombuffer(data, dtype=np.uint8)
    n = len(buf)
    at = np.flatnonzero(buf == MAGIC)
    kind = buf[np.minimum(at + 1, n - 1)]  # a magic byte that ends the stream reads itself, no kind
    need = np.where(kind == _IMU_KIND, IMU_FRAME_LEN, np.where(kind == _GPS_KIND, GPS_FRAME_LEN, 0))
    fits = (need > 0) & (at + need <= n)
    crc_rx = np.zeros(len(at), dtype=np.uint16)
    crc_calc = crc_rx.copy()
    for length in (IMU_FRAME_LEN, GPS_FRAME_LEN):
        rows = np.flatnonzero(fits & (need == length))
        if len(rows):
            frames = sliding_window_view(buf, length)[at[rows]]
            crc_rx[rows] = frames[:, -2] | frames[:, -1].astype(np.uint16) << 8
            crc_calc[rows] = _crc16(frames[:, :-2])
    valid = np.flatnonzero(fits & (crc_rx == crc_calc))
    valid = valid[_first_fit(at[valid], at[valid] + need[valid])]
    starts, ends = at[valid], at[valid] + need[valid]

    # a candidate lies inside an accepted frame when the first accepted frame
    # that ends after it starts before it; the walk meets every other one, up
    # to the first that the stream ends inside, where it stops
    met = np.append(starts, n)[np.searchsorted(ends, at, side="right")] >= at
    stop = np.flatnonzero(met & ((at == n - 1) | (need > 0) & ~fits))[:1]
    if len(stop):
        met[stop[0]:] = False
    bad_kind = met & (need == 0)
    bad_crc = met & fits & (crc_rx != crc_calc)
    # it lands at 0, one byte past each refusal and past each accepted frame,
    # and skips from there to the next magic byte
    lands = np.concatenate([[0], at[bad_kind | bad_crc] + 1, ends])
    lands = lands[lands < n]
    lands = lands[buf[lands] != MAGIC]
    skip_to = np.append(at, n)[np.searchsorted(at, lands)]

    diags = [(i, "skip", f"skipped {j - i} non-frame byte(s)") for i, j in zip(lands.tolist(), skip_to.tolist())]
    diags += [(i, "framing", f"unknown frame kind 0x{k:02X}")
              for i, k in zip(at[bad_kind].tolist(), kind[bad_kind].tolist())]
    diags += [(i, "corruption", _crc_mismatch(rx, calc))
              for i, rx, calc in zip(at[bad_crc].tolist(), crc_rx[bad_crc].tolist(), crc_calc[bad_crc].tolist())]
    if len(stop):
        i = int(at[stop[0]])
        short = int(need[stop[0]]) - (n - i)
        diags.append((i, "truncation", "stream ends after magic byte" if i == n - 1
                      else f"stream ends {short} byte(s) into a frame"))
    diags.sort()
    is_imu = need[valid] == IMU_FRAME_LEN
    return (
        _records(buf, starts[is_imu], IMU_WIRE),
        _records(buf, starts[~is_imu], GPS_WIRE),
        [StreamDiagnostic(*d) for d in diags],
    )


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
    counts, so the rounding runs once per distinct count of a sensor's
    columns and is looked up from there.
    """
    t_ms = np.asarray(t_ms, dtype=np.int64)
    counts = np.asarray(counts).reshape(len(t_ms), 9)
    cols = [_per_distinct_count(counts[:, 3 * k : 3 * k + 3], scale)
            for k, scale in enumerate(_IMU_UNITS_PER_COUNT)]
    return ImuArrays(t_ms / 1000.0, *cols, np.ones(len(t_ms), dtype=np.uint8))


def _per_distinct_count(counts: np.ndarray, scale: float) -> np.ndarray:
    """``round(c * scale, 9)`` of each integer count ``c``, rounded once per
    distinct count: through a table over the counts' range when that range is
    no longer than 2**16 or the number of counts, else through a sort. The
    counts widen to int64 here, one sensor's columns at a time."""
    if not counts.size:
        return np.zeros(counts.shape)
    counts = counts.astype(np.int64)
    lo = int(counts.min())
    span = int(counts.max()) - lo + 1
    if span > max(2**16, counts.size):
        distinct, where = np.unique(counts, return_inverse=True)
        return _round9(distinct * scale)[where.reshape(-1)].reshape(counts.shape)
    index = np.subtract(counts, lo, out=counts)  # in place: the int64 copy is this call's own
    seen = np.zeros(span, dtype=bool)
    seen[index] = True
    distinct = np.flatnonzero(seen)
    table = np.empty(span)
    table[distinct] = _round9((distinct + lo) * scale)
    return table[index]


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
    ``GPS_WIRE`` names (values exact at 9 decimals), each in its wire unit:
    the course stays in deg clockwise from north. Each value is Python's
    ``round(v, 9)``; a fix without the altitude flag has a NaN altitude.

    Every field is a count k over 10**p, p <= 7, as one IEEE division of the
    exact float of k (|k| <= 2**31). Such an x is the double nearest the
    p-decimal d = k / 10**p, so ``round(x, 9) == x``: where half an ulp of x
    is below 5e-10, d is also the 9-decimal number nearest x, and x the
    double nearest d; elsewhere the 9-decimal number nearest x lies within
    5e-10 of it, which is less than half an ulp, so x is again the double
    nearest it.
    """
    flags = np.asarray(counts["flags"])
    return GpsArrays(
        np.asarray(t_ms, dtype=np.int64) / 1000.0,
        counts["lat_e7"] / 1e7, counts["lon_e7"] / 1e7,
        counts["speed_cmps"] / 100.0, counts["course_cdeg"] / 100.0,
        np.where(flags & 0x02, counts["alt_cm"] / 100.0, np.nan),
        (flags & 0x01) != 0,
    )


def gps_arrays_to_counts(gps: GpsArrays) -> dict[str, np.ndarray]:
    """The raw wire fields of fix columns by ``GPS_WIRE`` name, rounded half
    to even as Python's ``round`` does: the inverse of
    ``gps_counts_to_arrays``. A course wraps into [0, 360) deg, a NaN or
    infinite course encodes as 0, and a NaN altitude as 0 without the
    altitude flag.
    """
    course = np.where(np.isfinite(gps.course), gps.course, 0.0) % 360.0
    has_alt = ~np.isnan(gps.alt)
    scaled = (gps.lat * 1e7, gps.lon * 1e7, gps.speed * 100.0, course * 100.0,
              np.where(has_alt, gps.alt, 0.0) * 100.0)
    lat, lon, speed, course, alt = (np.rint(x).astype(np.int64) for x in scaled)
    flags = np.asarray(gps.valid, dtype=np.int64) | 2 * has_alt
    return dict(lat_e7=lat, lon_e7=lon, speed_cmps=speed, course_cdeg=course % 36000, alt_cm=alt, flags=flags)


def decode_stream(data: bytes) -> tuple[ImuArrays, GpsArrays, list[str]]:
    """The IMU and GPS columns of a possibly dirty wire stream, and the
    stderr lines (the ``scan_frames`` diagnostics, then a count of each drop)
    that report it. Of the frames of a kind sharing a t_ms the first is kept.
    A GPS lon of -180 deg reads as +180 deg on the wire counts, and the GPS
    fixes that ``navigation.gps_in_range`` clears are dropped before their
    repeats are looked for."""
    imu, gps, diags = scan_frames(data)
    lines = [f"navfuse: stream diagnostic at byte {d.offset}: {d.reason}: {d.detail}\n" for d in diags]
    imu = imu[_first_per_t_ms("IMU", imu["t_ms"], imu["counts"], lines)]

    gps = gps.copy()  # the scan's records are a view of the read-only input
    gps["lon_e7"][gps["lon_e7"] == -1_800_000_000] = 1_800_000_000  # -180 deg is the +180 deg meridian
    fixes = gps_counts_to_arrays(gps["t_ms"], gps)
    keep = np.flatnonzero(gps_in_range(fixes))
    if len(keep) < len(gps):
        lines.append(f"navfuse: dropped GPS frames with a position out of range: {len(gps) - len(keep)}\n")
    gps = gps[keep]
    # flag bits 2-7 carry nothing, so they cannot make a conflict
    payload = np.column_stack([gps[f] for f in GPS_WIRE.names[4:-2]] + [gps["flags"] & 0x03])
    keep = keep[_first_per_t_ms("GPS", gps["t_ms"], payload, lines)]
    return imu_counts_to_arrays(imu["t_ms"], imu["counts"]), fixes._make(col[keep] for col in fixes), lines


def _first_per_t_ms(kind: str, t_ms: np.ndarray, payload: np.ndarray, lines: list[str]) -> np.ndarray:
    """Indices of the frames to keep, in t_ms order; a line for ``lines``
    counts the repeats, split by whether their payload rows differ from the
    first frame of their t_ms. Transmitters merge by timestamp, stream order
    breaking ties (a stable sort)."""
    order = np.argsort(t_ms, kind="stable")
    t_ms, payload = t_ms[order], payload[order]
    repeat = np.zeros(len(t_ms), dtype=bool)
    repeat[1:] = t_ms[1:] == t_ms[:-1]
    # compare each repeat with the first frame of its t_ms
    first_row = np.maximum.accumulate(np.where(repeat, 0, np.arange(len(t_ms))))
    dropped = int(repeat.sum())
    conflicting = int((payload[repeat] != payload[first_row[repeat]]).any(axis=1).sum())
    if dropped:
        lines.append(f"navfuse: dropped {kind} frames repeating an earlier t_ms: {dropped} "
                     f"({dropped - conflicting} exact duplicates, {conflicting} with a conflicting payload)\n")
    return order[~repeat]
