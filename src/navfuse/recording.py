"""Flight-recording persistence: one merged CSV at IMU row rate with sparse
GPS columns.

Schema (exact header, UTF-8, LF line endings):

    t_ms,ax,ay,az,gx,gy,gz,mx,my,mz,gps_valid,lat,lon,speed_mps,course_deg,alt_m

Floats carry 9 decimal places; sensor values produced by the frame decoder
are exact at that precision, so a write/read round trip reproduces them
bit-for-bit. GPS cells (and mag cells for samples without a magnetometer
reading) are empty strings when absent. Optional ``# key=value`` comment
lines before the header carry run metadata.

In memory a recording is the IMU stream as ``ImuArrays`` plus the list of
fixes. A fix is written on the first row at or after its time (the latest
such fix wins) and read back with that row's time; fixes after the last row
are dropped.

Rows are flushed as they are written, so an interrupted recording is still a
valid (shorter) file.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .attitude import ImuArrays
from .errors import RecordingFormatError, TimestampOrderError
from .geo import GeoPoint
from .navigation import GpsFix

HEADER = "t_ms,ax,ay,az,gx,gy,gz,mx,my,mz,gps_valid,lat,lon,speed_mps,course_deg,alt_m"
_NCOLS = len(HEADER.split(","))

_IMU_CELLS = "%d" + ",%.9f" * 6
_MAG_CELLS = ",%.9f,%.9f,%.9f"
_SENSOR_NAMES = ("accel",) * 3 + ("gyro",) * 3 + ("mag",) * 3


@dataclass
class FlightRecording:
    imu: ImuArrays
    fixes: list[GpsFix]
    metadata: dict[str, str]


def _fmt(x: float | None) -> str:
    return "" if x is None else "%.9f" % x


def _gps_cells(fix: GpsFix | None) -> str:
    if fix is None or not fix.valid:
        return ",0,,,,,"
    course = math.degrees(fix.course) if fix.course is not None else None
    return ",1,%.9f,%.9f,%.9f,%s,%s" % (fix.pos.lat, fix.pos.lon, fix.speed, _fmt(course), _fmt(fix.alt_m))


def write_recording(imu: ImuArrays, fixes: list[GpsFix], dest, metadata: dict[str, str] | None = None) -> int:
    """Write a recording to a path or text file; returns the row count."""
    if isinstance(dest, (str, Path)):
        with open(dest, "w", encoding="utf-8", newline="") as f:
            return write_recording(imu, fixes, f, metadata)
    t_ms = imu.t_ms
    bad = np.flatnonzero(np.diff(t_ms) <= 0)
    if len(bad):
        raise TimestampOrderError(f"row time {t_ms[bad[0] + 1]} ms not after {t_ms[bad[0]]} ms")
    # first row at or after each fix's time; the latest fix wins a shared row
    row_fix = {int(np.searchsorted(imu.t, f.t)): f for f in sorted(fixes, key=lambda f: f.t)}
    for key, value in (metadata or {}).items():
        dest.write(f"# {key}={value}\n")
    dest.write(HEADER + "\n")
    dest.flush()
    rows = zip(t_ms.tolist(), imu.accel.tolist(), imu.gyro.tolist(), imu.mag.tolist(), imu.has_mag.tolist())
    for i, (t, acc, gyr, mag, has_mag) in enumerate(rows):
        line = _IMU_CELLS % (t, *acc, *gyr)
        line += _MAG_CELLS % tuple(mag) if has_mag else ",,,"
        dest.write(line + _gps_cells(row_fix.get(i)) + "\n")
        dest.flush()
    return len(t_ms)


def _parse_float(cell: str, name: str, line_no: int) -> float:
    try:
        v = float(cell)
    except ValueError:
        raise RecordingFormatError(f"line {line_no}: bad {name} value {cell!r}", line=line_no) from None
    if not math.isfinite(v):
        raise RecordingFormatError(f"line {line_no}: non-finite {name}", line=line_no)
    return v


def read_recording(source) -> FlightRecording:
    """Parse a recording; raises RecordingFormatError with the line number."""
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8", newline="") as f:
            return read_recording(f)
    metadata: dict[str, str] = {}
    t_ms: list[int] = []
    sensors: list[list[float]] = []
    has_mag: list[bool] = []
    fixes: list[GpsFix] = []
    line_no = 0
    header_seen = False
    for raw in source:
        line_no += 1
        line = raw.rstrip("\r\n")
        if not line:
            continue
        if line.startswith("#"):
            if header_seen:
                raise RecordingFormatError(f"line {line_no}: comment after header", line=line_no)
            body = line.lstrip("#").strip()
            if "=" in body:
                key, _, value = body.partition("=")
                metadata[key.strip()] = value.strip()
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
            course_deg = _parse_float(cells[14], "course_deg", line_no) if cells[14] else None
            alt = _parse_float(cells[15], "alt_m", line_no) if cells[15] else None
            fixes.append(GpsFix(
                t=t / 1000.0,
                pos=GeoPoint(
                    _parse_float(cells[11], "lat", line_no),
                    _parse_float(cells[12], "lon", line_no),
                ),
                speed=_parse_float(cells[13], "speed_mps", line_no),
                course=math.radians(course_deg) if course_deg is not None else None,
                valid=True,
                alt_m=alt,
            ))
        t_ms.append(t)
        sensors.append(values)
        has_mag.append(mag)
    if not header_seen:
        raise RecordingFormatError("missing header line", line=line_no or 1)
    cols = np.array(sensors, dtype=np.float64).reshape(len(t_ms), 9)
    imu = ImuArrays(
        np.array(t_ms, dtype=np.int64) / 1000.0,
        cols[:, 0:3], cols[:, 3:6], cols[:, 6:9],
        np.array(has_mag, dtype=np.uint8),
    )
    return FlightRecording(imu, fixes, metadata)
