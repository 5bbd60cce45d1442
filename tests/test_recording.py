import io
import math

import numpy as np
import pytest

from navfuse.attitude import ImuArrays
from navfuse.errors import RecordingFormatError, TimestampOrderError
from navfuse.geo import GeoPoint
from navfuse.navigation import GpsFix
from navfuse.recording import HEADER, read_recording, write_recording
from navfuse.telemetry import imu_counts_to_arrays


def imu(*times, ax=0.1, mag=True):
    """Rows of one constant reading at the given times."""
    n = len(times)
    return ImuArrays(
        np.array(times, dtype=np.float64),
        np.tile((ax, -0.25, 9.81), (n, 1)),
        np.tile((0.001, -0.002, 0.003), (n, 1)),
        np.tile((0.28, 0.0, -0.12) if mag else (0.0, 0.0, 0.0), (n, 1)),
        np.full(n, 1 if mag else 0, dtype=np.uint8),
    )


def written_lines(stream, fixes=()):
    buf = io.StringIO()
    write_recording(stream, list(fixes), buf)
    return buf.getvalue().splitlines()[1:]


def format_row(stream, fix=None):
    """The CSV line of a one-row stream."""
    (line,) = written_lines(stream, [fix] if fix is not None else [])
    return line


def roundtrip(stream, fixes=(), metadata=None):
    buf = io.StringIO()
    write_recording(stream, list(fixes), buf, metadata)
    buf.seek(0)
    return read_recording(buf)


class TestWrite:
    def test_exact_header(self):
        buf = io.StringIO()
        write_recording(imu(), [], buf)
        assert buf.getvalue() == HEADER + "\n"
        assert HEADER == (
            "t_ms,ax,ay,az,gx,gy,gz,mx,my,mz,gps_valid,lat,lon,speed_mps,course_deg,alt_m"
        )

    def test_lf_line_endings(self):
        buf = io.StringIO()
        write_recording(imu(0.0), [], buf)
        assert "\r" not in buf.getvalue()

    def test_gps_cells_empty_without_fix(self):
        line = format_row(imu(0.0))
        assert line.endswith(",0,,,,,")

    def test_invalid_fix_not_persisted(self):
        f = GpsFix(t=0.0, pos=GeoPoint(1, 2), speed=3.0, valid=False)
        line = format_row(imu(0.0), f)
        assert line.endswith(",0,,,,,")

    def test_mag_cells_empty_without_mag(self):
        line = format_row(imu(0.0, mag=False))
        cells = line.split(",")
        assert cells[7:10] == ["", "", ""]

    def test_nine_decimal_places(self):
        line = format_row(imu(0.0))
        ax_cell = line.split(",")[1]
        assert ax_cell == "0.100000000"

    def test_non_monotonic_rows_rejected(self):
        with pytest.raises(TimestampOrderError):
            write_recording(imu(0.1, 0.1), [], io.StringIO())


class TestRead:
    def test_empty_recording(self):
        rec = roundtrip(imu())
        assert len(rec.imu.t) == 0
        assert rec.fixes == []

    def test_roundtrip_values_exact(self):
        # values at wire resolution survive bit-for-bit
        rng = np.random.default_rng(61)
        counts = rng.integers(-32768, 32768, (500, 9))
        stream = imu_counts_to_arrays([int(round(i * 1000 / 60)) for i in range(500)], counts)
        fixes = [
            GpsFix(
                t=stream.t[i], pos=GeoPoint(-7.1234567, 110.7654321),
                speed=12.34, course=math.radians(45.67), alt_m=120.55,
            )
            for i in range(0, 500, 60)
        ]
        rec = roundtrip(stream, fixes)
        assert len(rec.imu.t) == 500
        for orig, back in zip(stream, rec.imu):
            np.testing.assert_array_equal(back, orig)
        assert len(rec.fixes) == len(fixes)
        for orig, back in zip(fixes, rec.fixes):
            assert back.t == orig.t
            assert back.pos.lat == orig.pos.lat
            assert back.pos.lon == orig.pos.lon
            assert back.speed == orig.speed
            assert back.alt_m == orig.alt_m

    def test_metadata_roundtrip(self):
        rec = roundtrip(imu(0.0), metadata={"seed": "42", "alpha": "0.1"})
        assert rec.metadata == {"seed": "42", "alpha": "0.1"}

    def test_bad_header(self):
        with pytest.raises(RecordingFormatError) as exc:
            read_recording(io.StringIO("nope,nope\n"))
        assert exc.value.line == 1

    def test_missing_header(self):
        with pytest.raises(RecordingFormatError):
            read_recording(io.StringIO(""))

    def test_wrong_column_count_line_number(self):
        text = HEADER + "\n1,2,3\n"
        with pytest.raises(RecordingFormatError) as exc:
            read_recording(io.StringIO(text))
        assert exc.value.line == 2

    def test_bad_float_line_number(self):
        good = format_row(imu(0.0))
        bad = good.replace("0.100000000", "zzz", 1)
        text = HEADER + "\n" + good + "\n" + bad.replace("0,", "17,", 1) + "\n"
        with pytest.raises(RecordingFormatError) as exc:
            read_recording(io.StringIO(text))
        assert exc.value.line == 3

    def test_non_monotonic_time_rejected(self):
        row = format_row(imu(1.0))
        text = HEADER + "\n" + row + "\n" + row + "\n"
        with pytest.raises(TimestampOrderError):
            read_recording(io.StringIO(text))

    def test_gps_valid_flag_must_be_binary(self):
        row = format_row(imu(0.0)).split(",")
        row[10] = "2"
        with pytest.raises(RecordingFormatError):
            read_recording(io.StringIO(HEADER + "\n" + ",".join(row) + "\n"))


def gps_rows(lines):
    """Indices of the written rows that carry a fix."""
    return [i for i, line in enumerate(lines) if line.split(",")[10] == "1"]


class TestMerge:
    def test_fix_attached_to_following_row(self):
        stream = imu(*(i / 10.0 for i in range(10)))
        fixes = [GpsFix(t=0.25, pos=GeoPoint(1, 1), speed=1.0)]
        lines = written_lines(stream, fixes)
        assert gps_rows(lines) == [3]
        assert lines[3].endswith(",1,1.000000000,1.000000000,1.000000000,,")

    def test_fix_at_sample_time(self):
        stream = imu(*(i / 10.0 for i in range(10)))
        fixes = [GpsFix(t=0.5, pos=GeoPoint(1, 1), speed=1.0)]
        assert gps_rows(written_lines(stream, fixes)) == [5]

    def test_fix_after_last_sample_dropped(self):
        stream = imu(0.0)
        fixes = [GpsFix(t=5.0, pos=GeoPoint(1, 1), speed=1.0)]
        assert gps_rows(written_lines(stream, fixes)) == []
