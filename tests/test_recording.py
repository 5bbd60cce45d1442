import io
import math
import re

import numpy as np
import pytest
from conftest import GPS_FIELDS, GPS_NAMES, gps_arrays
from hypothesis import example, given, settings
from hypothesis import strategies as st

from navfuse.attitude import ImuArrays
from navfuse.errors import RecordingFormatError, TimestampOrderError
from navfuse.recording import HEADER, _read_columns, _read_lines, read_recording, write_recording
from navfuse.telemetry import GPS_WIRE, IMU_WIRE, decode_stream, encode_frames, imu_counts_to_arrays


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


class FlushLog(io.StringIO):
    """The text written between flushes."""

    def __init__(self):
        super().__init__()
        self.blocks = []

    def flush(self):
        done = sum(map(len, self.blocks))
        self.blocks.append(self.getvalue()[done:])


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

    @pytest.mark.parametrize("column, row, value, error", [
        ("accel", 2, math.nan, "row 2 (t_ms 20): non-finite accel"),
        ("gyro", 1, -math.inf, "row 1 (t_ms 10): non-finite gyro"),
        ("mag", 3, math.inf, "row 3 (t_ms 30): non-finite mag"),
    ])
    def test_non_finite_sensor_value_rejected_before_the_header(self, column, row, value, error):
        """What read_recording would refuse is not written at all."""
        stream = imu(0.0, 0.01, 0.02, 0.03)
        getattr(stream, column)[row, 1] = value
        buf = FlushLog()
        with pytest.raises(ValueError) as exc:
            write_recording(stream, gps_arrays(), buf, {"seed": "1"})
        assert str(exc.value) == error
        assert (buf.getvalue(), buf.blocks) == ("", [])

    def test_non_finite_mag_without_a_reading_is_written_empty(self):
        stream = imu(0.0, 0.01, mag=False)
        stream.mag[1] = math.nan
        assert roundtrip(stream).imu.mag.tolist() == [[0.0] * 3] * 2

    def test_rows_flushed_in_whole_line_blocks_under_pipe_buf(self):
        stream = imu(*(k / 100.0 for k in range(300)))
        buf = FlushLog()
        write_recording(stream, gps_arrays([0.5, 1.5], 1.0, 2.0), buf, {"seed": "1"})
        assert "".join(buf.blocks) == buf.getvalue()
        rows = buf.blocks[1:]
        assert sum(block.count("\n") for block in rows) == 300
        assert all(block.endswith("\n") and len(block.encode()) <= 4096 for block in rows)
        # a block ends only where its next row would not fit
        assert all(len(a) + len(b.partition("\n")[0]) + 1 > 4096 for a, b in zip(rows, rows[1:]))


    def test_rows_across_a_formatter_block_edge_match_per_cell_formatting(self):
        """1,500 rows cross the 1,024-row block edge of the formatter: rows
        with and without mag, fixes valid or not, with a NaN course or
        altitude. The bytes are those of one ``%`` per cell, and the flushed
        writes keep the whole-line PIPE_BUF rule across the edge."""
        rng = np.random.default_rng(7)
        n = 1500
        t = np.arange(n) / 60.0
        sensors = rng.normal(0.0, 1.0, (n, 9)) * 10.0 ** rng.integers(-4, 4, (n, 9))
        sensors[5, 0], sensors[6, 1] = -0.0, -1e-12
        has_mag = (rng.random(n) < 0.7).astype(np.uint8)
        stream = ImuArrays(t, sensors[:, 0:3], sensors[:, 3:6], np.where(has_mag[:, None] == 1, sensors[:, 6:9], 0.0),
                           has_mag)
        rows = np.arange(3, n, 7)
        m = len(rows)
        course = rng.uniform(0.0, 360.0, m)
        alt = rng.normal(100.0, 30.0, m)
        course[::3], alt[1::4] = math.nan, math.nan
        fixes = gps_arrays(t[rows], rng.uniform(-89, 89, m), rng.uniform(-179, 179, m), speed=rng.uniform(0, 40, m),
                           valid=rng.random(m) < 0.8, course=course, alt=alt)
        gps_cells = {
            int(r): "1,%.9f,%.9f,%.9f,%s,%s" % (
                lat, lon, speed, "" if math.isnan(c) else "%.9f" % c, "" if math.isnan(a) else "%.9f" % a
            )
            for r, lat, lon, speed, c, a, ok in zip(rows, *fixes[1:])
            if ok
        }
        want = [
            ",".join(["%d" % t_ms] + ["%.9f" % x for x in cells[:6]]
                     + (["%.9f" % x for x in cells[6:]] if mag else ["", "", ""])
                     + [gps_cells.get(i, "0,,,,,")]) + "\n"
            for i, (t_ms, cells, mag) in enumerate(zip(stream.t_ms.tolist(), sensors.tolist(), has_mag.tolist()))
        ]
        buf = FlushLog()
        assert write_recording(stream, fixes, buf) == n
        assert buf.getvalue() == HEADER + "\n" + "".join(want)
        writes = buf.blocks[1:]
        assert "".join(writes) == "".join(want)
        assert all(w.endswith("\n") and len(w) <= 4096 for w in writes)
        assert all(len(a) + len(b.partition("\n")[0]) + 1 > 4096 for a, b in zip(writes, writes[1:]))
        # no write ends at the block edge: the lines before it carry over
        assert 1024 not in np.cumsum([w.count("\n") for w in writes])


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
            stream.t[::60], -7.1234567, 110.7654321, speed=12.34, course=45.67, alt=120.55,
        )
        rec = roundtrip(stream, fixes)
        assert len(rec.imu.t) == 500
        for orig, back in zip(stream, rec.imu):
            np.testing.assert_array_equal(back, orig)
        assert len(rec.gps.t) == len(fixes.t)
        for orig, back in zip(fixes, rec.gps):
            np.testing.assert_array_equal(back, orig)

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_decoded_stream_reads_back_bit_for_bit(self, data):
        """Every column of ``decode_stream``'s output, the course included,
        reads back from its recording with the same bits: IMU frames at
        distinct times, and valid fixes of any wire value on some of them."""
        t_ms = sorted(data.draw(st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=30, unique=True)))
        counts = data.draw(st.lists(st.lists(st.integers(-32768, 32767), min_size=9, max_size=9),
                                    min_size=len(t_ms), max_size=len(t_ms)))
        rows = data.draw(st.lists(st.sampled_from(range(len(t_ms))), max_size=len(t_ms), unique=True))
        fields = data.draw(st.lists(GPS_FIELDS, min_size=len(rows), max_size=len(rows)))
        fix_t = np.array([t_ms[r] for r in rows], dtype=np.int64)
        columns = [np.array(c, dtype=np.int64).reshape(-1) for c in (zip(*fields) if fields else [()] * 6)]
        columns[-1] |= 1  # a recording holds only valid fixes
        wire = (encode_frames(IMU_WIRE, t_ms, counts=np.array(counts, dtype=np.int64)).tobytes()
                + encode_frames(GPS_WIRE, fix_t, **dict(zip(GPS_NAMES, columns))).tobytes())
        stream, fixes, lines = decode_stream(wire)
        assert lines == [] and len(fixes.t) == len(rows)
        rec = roundtrip(stream, fixes)
        for orig, back in zip((*stream, *fixes), (*rec.imu, *rec.gps)):
            assert back.dtype == orig.dtype and back.shape == orig.shape
            assert back.tobytes() == orig.tobytes()

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
# int64 time, non-finite, empty or not a number; and cells that numpy and
# Python's int() and float() read differently.
_BAD_CELLS = ("95", "190", "-180", "-1", "nan", "1e400", "99999999999999999999", "", "x",
              "1.0", "+1", " 1", "1_0.5", "infinity", "NaN", " ")
_FUZZ_LINES = (
    ["# seed=3", "# alpha=0.1", HEADER]
    + written_lines(
        imu(*(k / 10.0 for k in range(8))),
        gps_arrays([0.0, 0.3, 0.5, 0.7], [1.0, 1.001, 1.002, 1.003], [2.0, 2.001, 2.002, 2.003],
                   speed=3.0, course=45.0, alt=[120.0, 121.0, math.nan, 123.0]),
    )
)
_MUTATION = st.one_of(
    st.tuples(st.just("cell"), st.integers(0, 10**6), st.integers(0, 15), st.sampled_from(_BAD_CELLS)),
    st.tuples(st.sampled_from(["delete", "duplicate"]), st.integers(0, 10**6)),
    st.tuples(st.just("swap"), st.integers(0, 10**6), st.integers(0, 10**6)),
)


def mutated(mutations):
    """The fuzz recording's text after the mutations."""
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
        elif kind == "insert":
            lines.insert(i, args[0])
        elif kind == "crlf":
            lines[i] += "\r"
        elif kind == "drop":
            cells = lines[i].split(",")
            del cells[args[0] % len(cells)]
            lines[i] = ",".join(cells)
    return "\n".join(lines) + "\n"


@given(st.lists(_MUTATION, min_size=1, max_size=4))
@example([("cell", 3, 11, "95")])  # lat 95 on the first row, which has a fix
@example([("cell", 10, 0, "99999999999999999999")])  # t_ms past int64 on the last row
@settings(max_examples=300, deadline=None)
def test_mutated_recording_parses_or_names_the_line(mutations):
    text = mutated(mutations)
    try:
        read_recording(io.StringIO(text))
    except RecordingFormatError as exc:
        assert 1 <= exc.line <= text.count("\n")
        assert str(exc).startswith(f"line {exc.line}: ") or str(exc) == "missing header line"
    except TimestampOrderError as exc:
        assert re.match(r"line \d+: ", str(exc))


def outcome(read, text):
    """What a parse makes of ``text``: every column's dtype, shape and bytes
    plus the metadata, the error's type, message and line, or None."""
    try:
        rec = read(text)
    except (RecordingFormatError, TimestampOrderError) as exc:
        return type(exc), str(exc), getattr(exc, "line", None)
    if rec is None:
        return None
    return [(col.dtype.str, col.shape, col.tobytes()) for col in (*rec.imu, *rec.gps)], rec.metadata


_EQUIV_MUTATION = st.one_of(
    _MUTATION,
    st.tuples(st.just("insert"), st.integers(0, 10**6), st.sampled_from(["", " ", "\t", "# late=1", "# a=1\rb", "\r"])),
    st.tuples(st.just("crlf"), st.integers(0, 10**6)),
    st.tuples(st.just("cell"), st.integers(0, 10**6), st.sampled_from([7, 8, 9, 14, 15]), st.just("")),
    st.tuples(st.just("cell"), st.integers(0, 10**6), st.integers(0, 15), st.just("0,0")),
    st.tuples(st.just("drop"), st.integers(0, 10**6), st.integers(0, 15)),
)


@given(st.lists(_EQUIV_MUTATION, max_size=4))
@example([("crlf", i) for i in range(len(_FUZZ_LINES))])  # a CRLF file
@example([("insert", 6, " ")])  # a whitespace-only line among the rows
@example([("cell", 4, k, "") for k in (7, 8, 9)])  # no mag reading on a row
@example([("cell", 3, 14, ""), ("cell", 3, 15, "")])  # a fix without course and alt
@example([("cell", 6, 11, "95")])  # a fix out of range: the column parse names its line
@example([("cell", 6, 10, "1.0")])  # cells that numpy and Python read differently
@example([("cell", 6, 10, "+1")])
@example([("cell", 6, 10, " 1")])
@example([("insert", 1, "# a=1\rb")])  # a lone CR ends a metadata line
@example([("drop", 4, 13), ("cell", 5, 11, "0,0")])  # 15 cells, then 17
@example([("cell", 4, 0, "1.0")])
@example([("cell", 4, 2, "1_0.5")])
@example([("cell", 4, 0, "\uff11\uff10\uff10")])  # t_ms 100 in full-width digits
@example([("cell", 4, 2, "\ud800")])  # a lone surrogate: no UTF-8 spelling
@settings(max_examples=300, deadline=None)
def test_column_parse_reads_as_the_line_walk(mutations):
    # read_recording parses columns and walks only what that parse refuses
    # (None); either way it must match the walk bit for bit, or its error
    text = mutated(mutations)
    walked = outcome(_read_lines, text)
    assert outcome(lambda t: read_recording(io.StringIO(t)), text) == walked
    assert outcome(_read_columns, text) in (None, walked)


def test_written_recording_is_parsed_as_columns(tmp_path):
    # mag-less rows and fixes without course or alt stay on the column path
    has_mag = np.array([1, 0, 0, 1, 0, 1], np.uint8)
    stream = imu(*(k / 10.0 for k in range(6)))._replace(has_mag=has_mag)
    fixes = gps_arrays([0.0, 0.2, 0.4], 1.0, 2.0, speed=3.0, course=[math.nan, 0.5, math.nan],
                       alt=[math.nan, math.nan, 7.0])
    path = tmp_path / "rec.csv"
    write_recording(stream, fixes, path, {"seed": "5"})
    text = path.read_text()
    assert outcome(_read_columns, text) == outcome(_read_lines, text)
    rec = _read_columns(text)
    assert rec.imu.has_mag.tolist() == has_mag.tolist()
    assert rec.imu.mag[has_mag == 0].tolist() == [[0.0, 0.0, 0.0]] * 3
    assert np.isnan(rec.gps.course).tolist() == [True, False, True]


def test_lone_cr_ends_a_line_for_every_source(tmp_path):
    row = format_row(imu(0.0))
    text = HEADER + "\n" + row.replace(",0,,,,,", ",0,,\r,,,") + "\n"
    path = tmp_path / "cr.csv"
    path.write_bytes(text.encode())
    for source in (io.StringIO(text), path):
        with pytest.raises(RecordingFormatError) as exc:
            read_recording(source)
        assert str(exc.value) == "line 2: expected 16 columns, got 13"
