import io
import math
import re

import numpy as np
import pytest
from conftest import gps_arrays
from hypothesis import example, given, settings
from hypothesis import strategies as st

from navfuse.attitude import ImuArrays
from navfuse.errors import RecordingFormatError, TimestampOrderError
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


def written_lines(stream, gps=gps_arrays()):
    buf = io.StringIO()
    write_recording(stream, gps, buf)
    return buf.getvalue().splitlines()[1:]


def format_row(stream, gps=gps_arrays()):
    """The CSV line of a one-row stream."""
    (line,) = written_lines(stream, gps)
    return line


def roundtrip(stream, gps=gps_arrays(), metadata=None):
    buf = io.StringIO()
    write_recording(stream, gps, buf, metadata)
    buf.seek(0)
    return read_recording(buf)


class TestWrite:
    def test_exact_header(self):
        buf = io.StringIO()
        write_recording(imu(), gps_arrays(), buf)
        assert buf.getvalue() == HEADER + "\n"
        assert HEADER == (
            "t_ms,ax,ay,az,gx,gy,gz,mx,my,mz,gps_valid,lat,lon,speed_mps,course_deg,alt_m"
        )

    def test_lf_line_endings(self):
        buf = io.StringIO()
        write_recording(imu(0.0), gps_arrays(), buf)
        assert "\r" not in buf.getvalue()

    def test_gps_cells_empty_without_fix(self):
        line = format_row(imu(0.0))
        assert line.endswith(",0,,,,,")

    def test_invalid_fix_not_persisted(self):
        f = gps_arrays([0.0], 1.0, 2.0, speed=3.0, valid=False)
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
            write_recording(imu(0.1, 0.1), gps_arrays(), io.StringIO())


class TestRead:
    def test_empty_recording(self):
        rec = roundtrip(imu())
        assert len(rec.imu.t) == 0
        assert all(len(col) == 0 for col in rec.gps)

    def test_roundtrip_values_exact(self):
        # values at wire resolution survive bit-for-bit
        rng = np.random.default_rng(61)
        counts = rng.integers(-32768, 32768, (500, 9))
        stream = imu_counts_to_arrays([int(round(i * 1000 / 60)) for i in range(500)], counts)
        fixes = gps_arrays(
            stream.t[::60], -7.1234567, 110.7654321, speed=12.34, course=math.radians(45.67), alt=120.55,
        )
        rec = roundtrip(stream, fixes)
        assert len(rec.imu.t) == 500
        for orig, back in zip(stream, rec.imu):
            np.testing.assert_array_equal(back, orig)
        assert len(rec.gps.t) == len(fixes.t)
        for name in ("t", "lat", "lon", "speed", "alt", "valid"):
            np.testing.assert_array_equal(getattr(rec.gps, name), getattr(fixes, name))

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
        fixes = gps_arrays([0.25], 1.0, 1.0, speed=1.0)
        lines = written_lines(stream, fixes)
        assert gps_rows(lines) == [3]
        assert lines[3].endswith(",1,1.000000000,1.000000000,1.000000000,,")

    def test_fix_at_sample_time(self):
        stream = imu(*(i / 10.0 for i in range(10)))
        fixes = gps_arrays([0.5], 1.0, 1.0, speed=1.0)
        assert gps_rows(written_lines(stream, fixes)) == [5]

    def test_latest_fix_on_shared_row_wins(self):
        stream = imu(*(i / 10.0 for i in range(10)))
        # rows 3, 5 and 7 each get several fixes, given out of time order;
        # of two at one time the later given is the latest
        fixes = gps_arrays([0.3, 0.22, 0.41, 0.25, 0.5, 0.7, 0.7], [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0], 1.0,
                           speed=1.0, valid=[True, True, True, True, False, True, True])
        lines = written_lines(stream, fixes)
        assert gps_rows(lines) == [3, 7]
        assert lines[3].endswith(",1,1.000000000,1.000000000,1.000000000,,")
        assert lines[5].endswith(",0,,,,,")
        assert lines[7].endswith(",1,7.000000000,1.000000000,1.000000000,,")

    def test_fix_after_last_sample_dropped(self):
        stream = imu(0.0)
        fixes = gps_arrays([5.0], 1.0, 1.0, speed=1.0)
        assert gps_rows(written_lines(stream, fixes)) == []


def with_cell(lines, row, cell, value):
    """The recording text of written rows, one cell of row ``row`` replaced."""
    cells = lines[row].split(",")
    cells[cell] = value
    return HEADER + "\n" + "\n".join(lines[:row] + [",".join(cells)] + lines[row + 1:]) + "\n"


class TestGpsCells:
    """A fix that no fix can hold is refused with its line number, and a
    longitude of -180 reads as +180, as the wire decode reads it."""

    FIX_ROW = written_lines(imu(0.0, 0.1, 0.2), gps_arrays([0.1], 1.0, 2.0, speed=3.0))

    @pytest.mark.parametrize("cell, value, message", [
        (11, "95", "line 3: latitude 95.0 outside [-90, 90]"),
        (12, "190", "line 3: longitude 190.0 outside (-180, 180]"),
        (12, "-180.5", "line 3: longitude -180.5 outside (-180, 180]"),
        (13, "-1", "line 3: GPS speed must be finite and >= 0, got -1.0"),
    ])
    def test_out_of_range_fix_line_number(self, cell, value, message):
        with pytest.raises(RecordingFormatError) as exc:
            read_recording(io.StringIO(with_cell(self.FIX_ROW, 1, cell, value)))
        assert exc.value.line == 3
        assert str(exc.value) == message

    def test_bounds_accepted(self):
        for cell, value in ((11, "90"), (11, "-90"), (12, "180"), (13, "0")):
            rec = read_recording(io.StringIO(with_cell(self.FIX_ROW, 1, cell, value)))
            assert len(rec.gps.t) == 1

    def test_lon_minus_180_reads_as_plus_180(self):
        rec = read_recording(io.StringIO(with_cell(self.FIX_ROW, 1, 12, "-180.000000000")))
        assert rec.gps.lon.tolist() == [180.0]

    def test_replay_exits_2(self, tmp_path, capsys):
        from navfuse.cli import main

        path = tmp_path / "bad.csv"
        path.write_text(with_cell(self.FIX_ROW, 1, 11, "95"))
        assert main(["--mode", "replay", "--input", str(path)]) == 2
        assert "line 3: latitude 95.0" in capsys.readouterr().err


# Cells a damaged recording may hold: out of range for a fix or for an
# int64 time, non-finite, empty or not a number.
_BAD_CELLS = ("95", "190", "-180", "-1", "nan", "1e400", "99999999999999999999", "", "x")
_FUZZ_LINES = (
    ["# seed=3", "# alpha=0.1", HEADER]
    + written_lines(
        imu(*(k / 10.0 for k in range(8))),
        gps_arrays([0.0, 0.3, 0.5, 0.7], [1.0, 1.001, 1.002, 1.003], [2.0, 2.001, 2.002, 2.003],
                   speed=3.0, course=math.radians(45.0), alt=[120.0, 121.0, math.nan, 123.0]),
    )
)
_MUTATION = st.one_of(
    st.tuples(st.just("cell"), st.integers(0, 10**6), st.integers(0, 15), st.sampled_from(_BAD_CELLS)),
    st.tuples(st.sampled_from(["delete", "duplicate"]), st.integers(0, 10**6)),
    st.tuples(st.just("swap"), st.integers(0, 10**6), st.integers(0, 10**6)),
)


@given(st.lists(_MUTATION, min_size=1, max_size=4))
@example([("cell", 3, 11, "95")])  # lat 95 on the first row, which has a fix
@example([("cell", 10, 0, "99999999999999999999")])  # t_ms past int64 on the last row
@settings(max_examples=300, deadline=None)
def test_mutated_recording_parses_or_names_the_line(mutations):
    lines = list(_FUZZ_LINES)
    for kind, i, *args in mutations:
        i %= len(lines)
        if kind == "cell":
            cells = lines[i].split(",")
            cells[args[0] % len(cells)] = args[1]
            lines[i] = ",".join(cells)
        elif kind == "delete" and len(lines) > 1:
            del lines[i]
        elif kind == "duplicate":
            lines.insert(i, lines[i])
        elif kind == "swap":
            j = args[0] % len(lines)
            lines[i], lines[j] = lines[j], lines[i]
    try:
        read_recording(io.StringIO("\n".join(lines) + "\n"))
    except RecordingFormatError as exc:
        assert 1 <= exc.line <= len(lines)
        assert str(exc).startswith(f"line {exc.line}: ") or str(exc) == "missing header line"
    except TimestampOrderError as exc:
        assert re.match(r"line \d+: ", str(exc))
