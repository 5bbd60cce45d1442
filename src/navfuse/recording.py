"""Flight-recording persistence: one merged CSV at IMU row rate with sparse
GPS columns.

Schema (exact header, UTF-8; written with LF line endings, read with LF,
CRLF or a lone CR):

    t_ms,ax,ay,az,gx,gy,gz,mx,my,mz,gps_valid,lat,lon,speed_mps,course_deg,alt_m

Floats carry 9 decimal places. Each cell holds its column in the unit it
has in memory (the course in deg, as on the wire), and every column of the
frame decoder's output (``telemetry.decode_stream``) is exact at that
precision, so a write/read round trip reproduces them bit-for-bit. GPS
cells (and mag cells for samples without a magnetometer reading) are empty
strings when absent. Optional ``# key=value`` comment lines before the
header carry run metadata.

In memory a recording is the IMU stream as ``ImuArrays`` plus the fixes as
``GpsArrays``. A fix is written on the first row at or after its time (the
latest such fix wins, valid or not) and read back with that row's time; an
invalid fix writes empty GPS cells, and fixes after the last row are
dropped. A longitude of -180 reads as +180, as on the wire. Fix values that
no fix can hold (``navigation.gps_in_range``, the rule by which the wire
decode drops fixes, named by ``gps_range_error``) and non-finite sensor
values (mag only where ``has_mag`` is set) are refused on both write and
read, the write refusing before it writes the header.

Rows are printed 1,024 at a time by ``pipeline.format_rows``, as one ``%``
per cell would print them (its docstring gives the exact-rounding argument
and the per-cell fallback for a block with a value out of range): one float
matrix of the 16 cells, with a mask of the empty ones. They are written in
blocks of whole lines of at most ``PIPE_BUF`` bytes, carried across the
formatter's blocks and each flushed as it is written, so an interrupted
recording is still a valid (shorter) file, also when the reader is a pipe.

A recording is read from its bytes, as columns where it is well formed: one
``np.loadtxt`` call over the body, then column checks (``_read_columns``).
Whatever that parse cannot vouch for (a damaged row, a cell that numpy and
Python read differently, blank lines, CR line ends) the line walk
(``_read_lines``) reads as UTF-8, to the same result or naming the bad line.
"""

from __future__ import annotations

import io
import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .attitude import ImuArrays
from .errors import RecordingFormatError, TimestampOrderError
from .navigation import GpsArrays, check_gps, gps_range_error
from .pipeline import format_rows

HEADER = "t_ms,ax,ay,az,gx,gy,gz,mx,my,mz,gps_valid,lat,lon,speed_mps,course_deg,alt_m"
_NCOLS = len(HEADER.split(","))

_ROW_FORMAT = "%d" + ",%.9f" * 9 + ",%d" + ",%.9f" * 5
_SENSOR_NAMES = ("accel",) * 3 + ("gyro",) * 3 + ("mag",) * 3
_GPS_NAMES = ("lat", "lon", "speed_mps", "course_deg", "alt_m")
_BLOCK_ROWS = 1024
# PIPE_BUF on Linux: a write of at most this many bytes into a pipe is atomic,
# so a killed writer leaves only whole lines behind
_PIPE_BUF = 4096
# the bytes of the body that write_recording writes: plain decimals, commas
# and LFs; in such cells numpy and Python read the same number
_CELL_BYTES = b"0123456789.-,\n"
# t_ms and the nine sensor cells, as _read_columns parses them
_ROW = np.dtype([("t_ms", np.int64), ("sensors", np.float64, (9,))])


@dataclass
class FlightRecording:
    imu: ImuArrays
    gps: GpsArrays
    metadata: dict[str, str]


def write_recording(imu: ImuArrays, gps: GpsArrays, dest, metadata: dict[str, str] | None = None) -> int:
    """Write a recording to a path or text file; returns the row count."""
    if isinstance(dest, (str, Path)):
        with open(dest, "w", encoding="utf-8", newline="") as f:
            return write_recording(imu, gps, f, metadata)
    t_ms = imu.t_ms
    bad = np.flatnonzero(np.diff(t_ms) <= 0)
    if len(bad):
        raise TimestampOrderError(f"row time {t_ms[bad[0] + 1]} ms not after {t_ms[bad[0]]} ms")
    # read_recording refuses a non-finite sensor cell; mag cells are written only where has_mag is set
    finite = np.column_stack([np.isfinite(imu.accel).all(axis=1), np.isfinite(imu.gyro).all(axis=1),
                              np.isfinite(imu.mag).all(axis=1) | (imu.has_mag == 0)])
    bad = np.flatnonzero(~finite.all(axis=1))
    if len(bad):
        name = _SENSOR_NAMES[3 * int(np.argmin(finite[bad[0]]))]
        raise ValueError(f"row {bad[0]} (t_ms {t_ms[bad[0]]}): non-finite {name}")
    check_gps(gps)
    # first row at or after each fix's time; the latest fix wins a shared
    # row, valid or not, and only a valid one fills its GPS cells
    order = np.argsort(gps.t, kind="stable")
    at_row = np.searchsorted(imu.t, gps.t[order])
    latest = np.ones(len(at_row), dtype=bool)
    latest[:-1] = at_row[1:] != at_row[:-1]
    written = latest & (at_row < len(t_ms)) & np.asarray(gps.valid, dtype=bool)[order]
    fix_rows = at_row[written]
    fix_cells = np.column_stack([gps.lat, gps.lon, gps.speed, gps.course, gps.alt])
    fix_cells = fix_cells[order[written]]
    for key, value in (metadata or {}).items():
        dest.write(f"# {key}={value}\n")
    dest.write(HEADER + "\n")
    dest.flush()
    pending = ""
    # one block of rows at a time, which bounds the memory
    for lo in range(0, len(t_ms), _BLOCK_ROWS):
        rows = slice(lo, lo + _BLOCK_ROWS)
        cells = np.column_stack([t_ms[rows], imu.accel[rows], imu.gyro[rows], imu.mag[rows],
                                 np.zeros((len(t_ms[rows]), 6))])
        empty = np.zeros(cells.shape, dtype=bool)
        empty[:, 7:10] = (imu.has_mag[rows] == 0)[:, None]
        empty[:, 11:] = True
        first, last = np.searchsorted(fix_rows, (lo, lo + _BLOCK_ROWS))
        at = fix_rows[first:last] - lo
        cells[at, 10] = 1.0
        cells[at, 11:] = fix_cells[first:last]
        empty[at, 11:] = np.isnan(fix_cells[first:last])
        pending = _write_whole_lines(dest, pending + format_rows(_ROW_FORMAT, cells, empty))
    dest.write(pending)
    dest.flush()
    return len(t_ms)


def _write_whole_lines(dest, text: str) -> str:
    """Write the leading lines of ``text`` in flushed writes, each of as many
    whole lines as fit in ``_PIPE_BUF`` bytes, for as long as the rest does
    not fit in one; return the rest. The lines are ASCII, so characters count
    bytes."""
    start = 0
    while len(text) - start > _PIPE_BUF:
        end = text.rfind("\n", start, start + _PIPE_BUF) + 1
        if end <= start:  # a line longer than PIPE_BUF is written alone
            end = text.index("\n", start) + 1
        dest.write(text[start:end])
        dest.flush()
        start = end
    return text[start:]


def _parse_float(cell: str, name: str, line_no: int) -> float:
    try:
        v = float(cell)
    except ValueError:
        raise RecordingFormatError(f"line {line_no}: bad {name} value {cell!r}", line=line_no) from None
    if not math.isfinite(v):
        raise RecordingFormatError(f"line {line_no}: non-finite {name}", line=line_no)
    return v


def _put_metadata(line: str, metadata: dict[str, str]) -> None:
    """Take ``key=value`` from a comment line; other comments carry nothing."""
    body = line.lstrip("#").strip()
    if "=" in body:
        key, _, value = body.partition("=")
        metadata[key.strip()] = value.strip()


def _fix(cells: list[str], t: int, line_no: int) -> list:
    """[t, lat, lon, speed, course, alt] of a row with gps_valid=1."""
    # lat, lon and speed are required; course and alt may be empty
    return [t] + [
        _parse_float(cell, name, line_no) if cell or k < 3 else math.nan
        for k, (cell, name) in enumerate(zip(cells[11:], _GPS_NAMES))
    ]


def _recording(t_ms, sensors, has_mag, fixes, fix_lines, metadata) -> FlightRecording:
    """The recording of parsed rows; refuses a fix that no fix can hold."""
    imu = ImuArrays(t_ms / 1000.0, sensors[:, 0:3], sensors[:, 3:6], sensors[:, 6:9], has_mag)
    t, lat, lon, speed, course, alt = np.array(fixes, dtype=np.float64).reshape(-1, 6).T.copy()
    lon[lon == -180.0] = 180.0
    gps = GpsArrays(t / 1000.0, lat, lon, speed, course, alt, np.ones(len(t), dtype=bool))
    err = gps_range_error(gps)
    if err is not None:
        line = fix_lines[err[0]]
        raise RecordingFormatError(f"line {line}: {err[1]}", line=line)
    return FlightRecording(imu, gps, metadata)


def read_recording(source) -> FlightRecording:
    """Parse a recording from its bytes, a path or a (text) file; a damaged
    one raises RecordingFormatError or TimestampOrderError naming the line,
    bytes that are not UTF-8 UnicodeDecodeError."""
    if isinstance(source, (str, Path)):
        source = Path(source).read_bytes()
    data = source if isinstance(source, bytes) else source.read()
    if isinstance(data, str):  # a text file's; a lone surrogate spells bytes that are no UTF-8
        return _read_columns(data.encode("utf-8", "surrogatepass")) or _read_lines(data)
    return _read_columns(data) or _read_lines(data.decode("utf-8"))


def _read_columns(data: bytes) -> FlightRecording | None:
    """The recording parsed as columns, or None where this parse cannot vouch
    that ``_read_lines`` reads ``data`` the same way.

    It takes LF-ended UTF-8 ``#`` lines, the header, then rows of 16 cells
    that hold only ``_CELL_BYTES``: there numpy reads a number as Python's
    ``int()`` or ``float()`` does, or refuses it.
    """
    metadata: dict[str, str] = {}
    pos = line_no = 0
    while True:
        end = data.find(b"\n", pos)
        line = data[pos:end]
        line_no += 1
        pos = end + 1
        if end < 0 or b"\r" in line:
            return None
        if line == HEADER.encode():
            break
        if not line.startswith(b"#"):
            return None
        try:
            _put_metadata(line.decode("utf-8"), metadata)
        except UnicodeDecodeError:
            return None
    body = data[pos:]
    if not body.endswith(b"\n"):
        body += b"\n"
    if body.translate(None, _CELL_BYTES):
        return None
    # the separators of every row: 15 commas, then its LF ("," and LF are
    # the only _CELL_BYTES up to ",")
    buf = np.frombuffer(body, dtype=np.uint8)
    n = body.count(b"\n")
    sep = np.flatnonzero(buf <= ord(","))
    if len(sep) != _NCOLS * n:
        return None
    sep = sep.reshape(n, _NCOLS)
    if not (buf[sep[:, -1]] == ord("\n")).all():
        return None
    flag = buf[sep[:, 9] + 1]
    if not ((sep[:, 10] - sep[:, 9] == 2) & ((flag == ord("0")) | (flag == ord("1")))).all():
        return None
    # three empty mag cells read as zeros: a "0" goes before each of their commas
    no_mag = sep[:, 9] - sep[:, 6] == 3
    cells = np.insert(buf, sep[no_mag, 7:10].ravel(), ord("0")).tobytes() if no_mag.any() else body
    with warnings.catch_warnings():
        # numpy 1.23-1.24 read an int cell such as "1.0" through float, with
        # a DeprecationWarning; int() refuses it
        warnings.simplefilter("error")
        try:
            rows = np.loadtxt(io.BytesIO(cells), dtype=_ROW, delimiter=",",
                              usecols=tuple(range(10)), ndmin=1)
        except (ValueError, Warning):
            return None
    t_ms, sensors = rows["t_ms"], rows["sensors"]
    # compared, not differenced: an int64 difference can wrap
    if not ((t_ms[1:] > t_ms[:-1]).all() and np.isfinite(sensors).all()):
        return None
    fixes, fix_lines = [], []
    for r in np.flatnonzero(flag == ord("1")).tolist():
        start = sep[r - 1, -1] + 1 if r else 0
        fix_lines.append(line_no + 1 + r)
        try:
            fixes.append(_fix(body[start:sep[r, -1]].decode().split(","), int(t_ms[r]), fix_lines[-1]))
        except RecordingFormatError:
            return None
    return _recording(t_ms, sensors, (~no_mag).astype(np.uint8), fixes, fix_lines, metadata)


def _read_lines(text: str) -> FlightRecording:
    """The line walk: reads any text, and names the first bad line."""
    metadata: dict[str, str] = {}
    t_ms: list[int] = []
    sensors: list[list[float]] = []
    has_mag: list[bool] = []
    fixes: list[list[float]] = []
    fix_lines: list[int] = []
    line_no = 0
    header_seen = False
    for raw in io.StringIO(text, newline=""):
        line_no += 1
        line = raw.rstrip("\r\n")
        if not line:
            continue
        if line.startswith("#"):
            if header_seen:
                raise RecordingFormatError(f"line {line_no}: comment after header", line=line_no)
            _put_metadata(line, metadata)
            continue
        if not header_seen:
            if line != HEADER:
                raise RecordingFormatError(f"line {line_no}: unexpected header {line!r}", line=line_no)
            header_seen = True
            continue
        cells = line.split(",")
        if len(cells) != _NCOLS:
            raise RecordingFormatError(
                f"line {line_no}: expected {_NCOLS} columns, got {len(cells)}", line=line_no
            )
        try:
            t = int(cells[0])
        except ValueError:
            raise RecordingFormatError(f"line {line_no}: bad t_ms {cells[0]!r}", line=line_no) from None
        if not -(2**63) <= t < 2**63:
            raise RecordingFormatError(f"line {line_no}: t_ms {t} outside the int64 range", line=line_no)
        if t_ms and t <= t_ms[-1]:
            raise TimestampOrderError(f"line {line_no}: time {t} ms not after {t_ms[-1]} ms")
        mag = any(cells[7:10])
        names = _SENSOR_NAMES if mag else _SENSOR_NAMES[:6]
        values = [_parse_float(cells[k], name, line_no) for k, name in enumerate(names, start=1)]
        if not mag:
            values += (0.0, 0.0, 0.0)
        if cells[10] not in ("0", "1"):
            raise RecordingFormatError(f"line {line_no}: gps_valid must be 0 or 1", line=line_no)
        if cells[10] == "1":
            fixes.append(_fix(cells, t, line_no))
            fix_lines.append(line_no)
        t_ms.append(t)
        sensors.append(values)
        has_mag.append(mag)
    if not header_seen:
        raise RecordingFormatError("missing header line", line=line_no or 1)
    return _recording(
        np.array(t_ms, dtype=np.int64), np.array(sensors, dtype=np.float64).reshape(len(t_ms), 9),
        np.array(has_mag, dtype=np.uint8), fixes, fix_lines, metadata,
    )
