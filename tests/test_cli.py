import ast
import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from conftest import (
    assert_same_bits,
    build_stream,
    encode_one,
    interleave,
    joined,
    needs_worker,
    reframe,
    stream_frames,
)
from hypothesis import given, settings
from hypothesis import strategies as st

import navfuse
from navfuse import cli, flightsim, pipeline
from navfuse.cli import main
from navfuse.flightsim import (
    FlightProfile,
    FlightSegment,
    SensorNoiseModel,
    generate_flight,
)
from navfuse.navigation import NavEstimator
from navfuse.pipeline import FUSED_HEADER, FusionConfig
from navfuse.recording import read_recording, write_recording
from navfuse.telemetry import scan_frames


@pytest.fixture(scope="module")
def short_flight():
    profile = FlightProfile(segments=(FlightSegment("straight", 8.0),), seed=5)
    truth, imu, gps = generate_flight(profile, SensorNoiseModel())
    return truth, imu, gps


@pytest.fixture(scope="module")
def stream_file(short_flight, tmp_path_factory):
    truth, imu, gps = short_flight
    path = tmp_path_factory.mktemp("stream") / "stream.bin"
    path.write_bytes(build_stream(imu, gps))
    return path, len(imu.t)


@pytest.fixture(scope="module")
def recorded_file(short_flight, tmp_path_factory):
    _, imu, gps = short_flight
    path = tmp_path_factory.mktemp("recording") / "flight.csv"
    write_recording(imu, gps, path, {})
    return path


@pytest.fixture(scope="module")
def flight_200hz(tmp_path_factory):
    """A 5 s straight flight recorded at 200 Hz: 1,001 rows 5 ms apart."""
    profile = FlightProfile(segments=(FlightSegment("straight", 5.0),), imu_rate_hz=200.0)
    _, imu, gps = generate_flight(profile, SensorNoiseModel())
    path = tmp_path_factory.mktemp("rec200") / "flight.csv"
    write_recording(imu, gps, path, {})
    return path


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestLive:
    def test_row_per_imu_sample(self, stream_file, capsys, tmp_path):
        path, n = stream_file
        out_path = tmp_path / "fused.csv"
        code, _, _ = run_cli(["--mode", "live", "--input", str(path), "--output", str(out_path)], capsys)
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0].startswith("t_ms,qw,qx,qy,qz,roll_deg,pitch_deg,yaw_deg,lat,lon,v_north,v_east")
        assert len(lines) == n + 1

    def test_stdout_default(self, stream_file, capsys):
        path, n = stream_file
        code, out, _ = run_cli(["--mode", "live", "--input", str(path)], capsys)
        assert code == 0
        assert len(out.splitlines()) == n + 1

    def test_empty_input_exit_3(self, capsys, tmp_path):
        empty = tmp_path / "empty.bin"
        empty.write_bytes(b"")
        code, _, err = run_cli(["--mode", "live", "--input", str(empty)], capsys)
        assert code == 3

    def test_garbage_only_exit_3(self, capsys, tmp_path):
        junk = tmp_path / "junk.bin"
        junk.write_bytes(b"\x00\x5a" * 500)
        code, _, _ = run_cli(["--mode", "live", "--input", str(junk)], capsys)
        assert code == 3

    def test_missing_input_exit_2(self, capsys, tmp_path):
        code, _, err = run_cli(["--mode", "live", "--input", str(tmp_path / "nope.bin")], capsys)
        assert code == 2

    def test_corrupted_stream_diagnostics_match_scan(self, stream_file, capsys, tmp_path):
        path, n = stream_file
        data = path.read_bytes()
        rng = np.random.default_rng(55)
        dirty = bytearray()
        # inject garbage between frame boundaries (~10% extra bytes)
        step = 280
        for i in range(0, len(data), step):
            dirty += data[i : i + step]
            dirty += bytes(rng.integers(0, 256, 28, dtype=np.uint8))
        dirty_path = tmp_path / "dirty.bin"
        dirty_path.write_bytes(bytes(dirty))
        imu, _, diags = scan_frames(bytes(dirty))
        code, out, err = run_cli(["--mode", "live", "--input", str(dirty_path)], capsys)
        assert code == 0
        assert len(out.splitlines()) == len(imu) + 1
        assert err.count("stream diagnostic") == len(diags)

    def test_stdin_input(self, stream_file, capsys, monkeypatch):
        path, n = stream_file
        fake = type("F", (), {"buffer": io.BytesIO(path.read_bytes())})()
        monkeypatch.setattr(sys, "stdin", fake)
        code, out, _ = run_cli(["--mode", "live", "--input", "-"], capsys)
        assert code == 0
        assert len(out.splitlines()) == n + 1

    def test_bad_option_exits_before_reading_input(self, capsys, monkeypatch):
        class Unread:
            def read(self, *args):
                raise AssertionError("stdin read")

        monkeypatch.setattr(sys, "stdin", type("F", (), {"buffer": Unread()})())
        code, out, err = run_cli(["--mode", "live", "--input", "-", "--alpha", "5"], capsys)
        assert (code, out) == (2, "")
        assert err == "navfuse: bad config: alpha must be in [0, 1], got 5.0\n"

    def test_stream_without_early_fixes_starts_at_the_first(self, short_flight, capsys, tmp_path):
        """The rows before the first fix have no position reference: the
        track starts at that fix, not at lat/lon 0."""
        truth, imu, gps = short_flight
        late = gps.t >= 3.0
        gps = gps._make(col[late] for col in gps)
        path = tmp_path / "late.bin"
        path.write_bytes(build_stream(imu, gps))
        code, out, _ = run_cli(["--mode", "live", "--input", str(path)], capsys)
        assert code == 0
        rows = np.loadtxt(io.StringIO(out), delimiter=",", skiprows=1, ndmin=2)
        assert (rows[0, 8:10] == np.round([gps.lat[0], gps.lon[0]], 9)).all()
        assert worst_distance_m(rows, truth) < 100.0


def worst_distance_m(rows, truth):
    """The largest distance of the fused CSV ``rows`` from the truth at their times."""
    at = np.searchsorted(truth.t, rows[:, 0] / 1000.0)
    assert (np.rint(truth.t[at] * 1000.0) == rows[:, 0]).all()
    m_per_deg = math.pi * 6_371_000.0 / 180.0
    return float(np.hypot(rows[:, 8] - truth.lat[at], rows[:, 9] - truth.lon[at]).max() * m_per_deg)


def live_frames(frames, capsys, tmp_path, name):
    """``live`` on a stream of the IMU records, then the GPS records, of
    ``frames``: the output does not depend on how the kinds interleave."""
    path = tmp_path / name
    path.write_bytes(frames["IMU"].tobytes() + frames["GPS"].tobytes())
    return run_cli(["--mode", "live", "--input", str(path)], capsys)


@pytest.fixture(scope="module")
def stream_records(stream_file):
    """The short flight's frames as records by kind."""
    imu, gps, diags = scan_frames(stream_file[0].read_bytes())
    assert not diags
    return {"IMU": imu, "GPS": gps}


class TestRetransmittedFrames:
    """Frames repeating an earlier frame's t_ms: the first in stream order
    is kept and one summary line per kind goes to stderr."""

    @staticmethod
    def with_copy(frames, kind, k):
        """The frames with a copy of the k-th frame of ``kind`` sent again
        right after it."""
        return {**frames, kind: np.insert(frames[kind], k + 1, frames[kind][k])}

    @pytest.mark.parametrize("kind", ["IMU", "GPS"])
    def test_duplicate_frame_output_matches_clean(self, stream_records, kind, capsys, tmp_path):
        clean = live_frames(stream_records, capsys, tmp_path, "clean.bin")
        dup = live_frames(self.with_copy(stream_records, kind, 3), capsys, tmp_path, "dup.bin")
        assert clean[0] == dup[0] == 0
        assert dup[1] == clean[1]
        assert clean[2] == ""
        assert dup[2] == (
            f"navfuse: dropped {kind} frames repeating an earlier t_ms: 1 "
            "(1 exact duplicates, 0 with a conflicting payload)\n"
        )

    def test_conflicting_frame_keeps_first(self, stream_records, capsys, tmp_path):
        clean = live_frames(stream_records, capsys, tmp_path, "clean.bin")
        stream = self.with_copy(stream_records, "IMU", 5)
        stream["IMU"]["counts"][6, 0] = 1234
        stream["IMU"] = reframe(stream["IMU"])
        for k in (10, 20, 30):
            stream = self.with_copy(stream, "IMU", k)
        code, out, err = live_frames(stream, capsys, tmp_path, "conflict.bin")
        assert code == 0
        assert out == clean[1]
        assert err.splitlines() == [
            "navfuse: dropped IMU frames repeating an earlier t_ms: 4 "
            "(3 exact duplicates, 1 with a conflicting payload)"
        ]


class TestGpsPositionRange:
    """A CRC-valid fix outside [-90, 90] latitude or [-180, 180] longitude is
    dropped and counted; -180 deg longitude is the +180 deg meridian."""

    @pytest.mark.parametrize("field,value", [
        ("lat_e7", 950_000_000), ("lat_e7", -900_000_001),
        ("lon_e7", 1_800_000_001), ("lon_e7", -(2**31)),
    ])
    def test_out_of_range_fix_dropped(self, stream_records, field, value, capsys, tmp_path):
        clean = live_frames(stream_records, capsys, tmp_path, "clean.bin")
        gps = np.insert(stream_records["GPS"], 3, stream_records["GPS"][2])
        gps["t_ms"][3] += 500
        gps[field][3] = value
        code, out, err = live_frames({**stream_records, "GPS": reframe(gps)}, capsys, tmp_path, "bad.bin")
        assert clean[0] == code == 0
        assert out == clean[1]
        assert err == "navfuse: dropped GPS frames with a position out of range: 1\n"

    def test_lon_minus_180_is_plus_180(self, stream_records, capsys, tmp_path):
        runs = []
        for lon_e7 in (1_800_000_000, -1_800_000_000):
            gps = stream_records["GPS"].copy()
            gps["lon_e7"][2] = lon_e7
            runs.append(live_frames({**stream_records, "GPS": reframe(gps)}, capsys, tmp_path, "meridian.bin"))
        assert runs[0] == runs[1]
        assert runs[0][0] == 0 and runs[0][2] == ""


@pytest.mark.parametrize("mode", ["live", "record", "replay", "simulate", "sweep"])
def test_no_frame_objects_on_cli_path(mode, stream_file, capsys, tmp_path, monkeypatch):
    """Every mode runs to exit 0, a damaged stream with a retransmitted frame
    included."""
    output = ["--output", str(tmp_path / "out.csv")]
    if mode in ("replay", "simulate", "sweep"):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"profile": {"segments": [{"kind": "turn", "duration_s": 5, "yaw_rate_dps": 6}]}}))
        monkeypatch.setenv("NAVFUSE_CONFIG", str(cfg))
        rec = str(tmp_path / "rec.csv")
        assert run_cli(["--mode", "simulate", "--output", rec], capsys)[0] == 0
        args = ["--input", rec, "--from-ms", "1000"] if mode == "replay" else []
        assert run_cli(["--mode", mode, *args, *output], capsys)[0] == 0
        return
    data = stream_file[0].read_bytes()
    # a damaged stream with a retransmitted frame at its end
    dirty = data[:1000] + b"\xa5\x01\x00" + data[1000:5000] + data[4000:] + data[-28:]
    dirty_path = tmp_path / "dirty.bin"
    dirty_path.write_bytes(dirty)
    code, out, err = run_cli(["--mode", mode, "--input", str(dirty_path), *output], capsys)
    assert code == 0
    assert "stream diagnostic" in err and "repeating an earlier t_ms" in err


def live_bytes(data, tmp_path_factory):
    """``live``'s exit code and stdout on ``data``, for tests that hypothesis
    runs many times (no function-scoped fixture)."""
    path = tmp_path_factory.getbasetemp() / "fuzz.bin"
    path.write_bytes(data)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["--mode", "live", "--input", str(path)])
    return code, out.getvalue()


class TestFuzzLive:
    """``live`` on damaged and arbitrary bytes: a damaged stream still fuses,
    and no input lets an exception escape."""

    @pytest.fixture(scope="class")
    def base(self):
        profile = FlightProfile(segments=(FlightSegment("straight", 3.0),), seed=8)
        _, imu, gps = generate_flight(profile, SensorNoiseModel())
        return stream_frames(imu, gps)

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_damaged_stream_fuses(self, base, tmp_path_factory, data):
        blobs = list(base)
        for _ in range(data.draw(st.integers(0, 4), label="resent")):
            k = data.draw(st.integers(0, len(blobs) - 1))
            blobs.insert(k + data.draw(st.integers(1, 3)), blobs[k])
        for _ in range(data.draw(st.integers(0, 6), label="forged")):
            t_ms = data.draw(st.integers(0, 2**32 - 1))
            if data.draw(st.booleans()):
                fields = data.draw(st.lists(st.integers(-32768, 32767), min_size=9, max_size=9))
                frame = encode_one(0x01, 0, t_ms, fields)
            else:
                lat, lon = data.draw(st.integers(-(2**31), 2**31 - 1)), data.draw(st.integers(-(2**31), 2**31 - 1))
                rest = data.draw(st.tuples(st.integers(0, 2**16 - 1), st.integers(0, 2**16 - 1),
                                           st.integers(-(2**31), 2**31 - 1), st.integers(0, 255)))
                frame = encode_one(0x02, 0, t_ms, (lat, lon, *rest))
            blobs.insert(data.draw(st.integers(0, len(blobs))), frame)
        # the benchmark's damage: bit flips, frames cut short, garbage bursts
        for _ in range(data.draw(st.integers(0, 12), label="damaged")):
            k = data.draw(st.integers(0, len(blobs) - 1))
            blob = bytearray(blobs[k])
            how = data.draw(st.sampled_from(["flip", "cut", "garbage"]))
            if how == "flip":
                blob[data.draw(st.integers(0, len(blob) - 1))] ^= 1 << data.draw(st.integers(0, 7))
            elif how == "cut":
                del blob[data.draw(st.integers(1, max(1, len(blob) - 3))):]
            else:
                blob[:0] = data.draw(st.binary(min_size=1, max_size=40))
            blobs[k] = bytes(blob)
        stream = b"".join(blobs)
        stream = stream[: len(stream) - data.draw(st.integers(0, 30), label="tail cut")]
        t_ms = sorted(set(scan_frames(stream)[0]["t_ms"].tolist()))

        code, out = live_bytes(stream, tmp_path_factory)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == FUSED_HEADER
        rows = [line.split(",") for line in lines[1:]]
        assert [int(r[0]) for r in rows] == t_ms
        assert all(len(r) == 12 for r in rows)
        assert all(math.isfinite(float(cell)) for r in rows for cell in r[1:])

    @given(st.lists(st.one_of(st.sampled_from([0xA5, 0x01, 0x02]), st.integers(0, 255)), max_size=600))
    @settings(max_examples=100, deadline=None)
    def test_arbitrary_bytes_never_raise(self, tmp_path_factory, data):
        code, _ = live_bytes(bytes(data), tmp_path_factory)
        assert code in (0, 2, 3)


class TestKindInterleaving:
    """``live`` output does not depend on how the IMU and GPS frames
    interleave, as long as each kind keeps its own order."""

    @pytest.fixture(scope="class")
    def by_time(self, stream_file, tmp_path_factory):
        return live_bytes(stream_file[0].read_bytes(), tmp_path_factory)

    @staticmethod
    def live(records, before, tmp_path_factory):
        stream = b"".join(interleave(records["IMU"], records["GPS"], before))
        return live_bytes(stream, tmp_path_factory)

    @pytest.mark.parametrize("gps_at", ["start", "end"])
    def test_kinds_in_blocks(self, stream_records, by_time, gps_at, tmp_path_factory):
        before = np.full(len(stream_records["GPS"]), 0 if gps_at == "start" else len(stream_records["IMU"]))
        assert by_time[0] == 0
        assert self.live(stream_records, before, tmp_path_factory) == by_time

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_any_interleaving(self, stream_records, by_time, tmp_path_factory, data):
        n_imu, n_gps = len(stream_records["IMU"]), len(stream_records["GPS"])
        before = sorted(data.draw(st.lists(st.integers(0, n_imu), min_size=n_gps, max_size=n_gps)))
        assert self.live(stream_records, before, tmp_path_factory) == by_time


# Option values that would make NaN rows or drop every GPS correction, and
# the error each exits 2 with.
VOIDING_OPTIONS = [
    (["--earth-radius-m", "nan"], "earth radius must be positive and finite, got earth_radius_m=nan"),
    (["--declination-deg", "nan"], "declination_deg must be finite, got nan"),
    (["--stale-after-s", "nan"], "stale_after_s must be >= 0, got nan"),
    (["--stale-after-s", "-1"], "stale_after_s must be >= 0, got -1.0"),
]


class TestRecordReplay:
    @pytest.fixture()
    def recorded(self, stream_file, capsys, tmp_path):
        path, n = stream_file
        rec_path = tmp_path / "rec.csv"
        code, out, _ = run_cli(
            ["--mode", "record", "--input", str(path), "--output", str(rec_path)], capsys
        )
        assert code == 0
        return rec_path, out, n

    def test_record_row_count(self, recorded):
        rec_path, fused_out, n = recorded
        rec = read_recording(rec_path)
        assert len(rec.imu.t) == n
        assert len(fused_out.splitlines()) == n + 1

    def test_record_fused_matches_live(self, stream_file, recorded, capsys):
        path, _ = stream_file
        rec_path, record_out, _ = recorded
        code, live_out, _ = run_cli(["--mode", "live", "--input", str(path)], capsys)
        assert code == 0
        assert live_out == record_out

    def test_replay_attitude_bit_identical(self, stream_file, recorded, capsys):
        path, _ = stream_file
        rec_path, record_out, _ = recorded
        code, replay_out, _ = run_cli(["--mode", "replay", "--input", str(rec_path)], capsys)
        assert code == 0
        rec_lines = record_out.splitlines()
        rep_lines = replay_out.splitlines()
        assert len(rec_lines) == len(rep_lines)
        for a, b in zip(rec_lines, rep_lines):
            assert a.split(",")[:8] == b.split(",")[:8]
        # position columns legitimately differ (interpolated reference)
        assert any(a.split(",")[8:] != b.split(",")[8:] for a, b in zip(rec_lines[1:], rep_lines[1:]))

    def test_replay_deterministic(self, recorded, capsys):
        rec_path, _, _ = recorded
        _, out1, _ = run_cli(["--mode", "replay", "--input", str(rec_path)], capsys)
        _, out2, _ = run_cli(["--mode", "replay", "--input", str(rec_path)], capsys)
        assert out1 == out2

    def test_window_selection(self, recorded, capsys):
        rec_path, _, n = recorded
        code, out, _ = run_cli(
            ["--mode", "replay", "--input", str(rec_path), "--from-ms", "1000", "--to-ms", "3000"],
            capsys,
        )
        assert code == 0
        rows = out.splitlines()[1:]
        assert all(1000 <= int(r.split(",")[0]) < 3000 for r in rows)
        assert rows

    @pytest.mark.parametrize("window", [("1500", "4000"), ("2000", "4000"), ("0", "100"), ("1500", "9000")])
    def test_window_rows_match_the_full_replay(self, window, recorded, capsys):
        """A window's rows lie on the full replay's track, wherever the window
        starts and ends relative to the fixes."""
        rec_path, _, _ = recorded
        argv = ["--mode", "replay", "--input", str(rec_path)]
        full, part = (
            np.loadtxt(io.StringIO(run_cli(args, capsys)[1]), delimiter=",", skiprows=1, ndmin=2)
            for args in (argv, argv + ["--from-ms", window[0], "--to-ms", window[1]])
        )
        rows = np.searchsorted(full[:, 0], part[:, 0])
        assert len(part) and (full[rows, 0] == part[:, 0]).all()
        m_per_deg = math.pi * 6_371_000.0 / 180.0
        assert (np.hypot(*(part[:, 8:10] - full[rows, 8:10]).T) * m_per_deg < 1.0).all()

    @pytest.mark.parametrize("fixes, window, nearest", [
        ((0.0, 6.0), ("6500", "9000"), -1),   # wholly after the last fix
        ((3.0, 8.0), ("0", "2500"), 0),       # wholly before the first fix
    ])
    def test_window_beyond_the_fixes_starts_at_the_nearest(self, fixes, window, nearest, short_flight, capsys,
                                                           tmp_path):
        """A window with fixes on one side only keeps the nearest one, which
        gives the interpolated reference no position; its first row starts at
        that fix, not at lat/lon 0, and the rest dead-reckon from there."""
        _, imu, gps = short_flight
        kept = (gps.t >= fixes[0]) & (gps.t <= fixes[1])
        gps = gps._make(col[kept] for col in gps)
        rec_path = tmp_path / "rec.csv"
        write_recording(imu, gps, rec_path, {})
        argv = ["--mode", "replay", "--input", str(rec_path), "--from-ms", window[0], "--to-ms", window[1]]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        rows = np.loadtxt(io.StringIO(out), delimiter=",", skiprows=1, ndmin=2)
        fix = np.array([gps.lat[nearest], gps.lon[nearest]])
        assert (rows[0, 8:10] == np.round(fix, 9)).all()
        m_per_deg = math.pi * 6_371_000.0 / 180.0
        assert (np.hypot(*(rows[:, 8:10] - fix).T) * m_per_deg < 100.0).all()

    def test_one_fix_replay_starts_at_it(self, short_flight, capsys, tmp_path):
        """One fix gives the interpolated reference no position: the whole
        track starts at that fix and dead-reckons from there, with the
        fix-based velocity reference."""
        truth, imu, gps = short_flight
        one = gps.t == 4.0
        gps = gps._make(col[one] for col in gps)
        rec_path = tmp_path / "rec.csv"
        write_recording(imu, gps, rec_path, {})
        code, out, _ = run_cli(["--mode", "replay", "--input", str(rec_path)], capsys)
        assert code == 0
        rows = np.loadtxt(io.StringIO(out), delimiter=",", skiprows=1, ndmin=2)
        assert (rows[0, 8:10] == np.round([gps.lat[0], gps.lon[0]], 9)).all()
        assert worst_distance_m(rows, truth) < 100.0

    def test_empty_window_exit_0(self, recorded, capsys):
        rec_path, _, _ = recorded
        code, out, _ = run_cli(
            ["--mode", "replay", "--input", str(rec_path), "--from-ms", "0", "--to-ms", "0"], capsys
        )
        assert code == 0
        assert out.splitlines() == [out.splitlines()[0]]

    @pytest.mark.parametrize("options", [["--alpha", "5", "--cutoff-hz", "0"], ["--cutoff-hz", "0"]])
    @pytest.mark.parametrize("window", [("0", "0"), ("1000", "3000"), ("0", "1")])
    def test_window_with_or_without_rows_checks_the_options(self, window, options, recorded, capsys):
        rec_path, _, _ = recorded
        argv = ["--mode", "replay", "--input", str(rec_path), "--from-ms", window[0], "--to-ms", window[1]]
        code, out, err = run_cli(argv + options, capsys)
        assert (code, out) == (2, "")
        want = ("bad config: alpha must be in [0, 1], got 5.0" if "--alpha" in options
                else "invalid input: cutoff 0.0 Hz must lie strictly inside")
        assert err.startswith("navfuse: " + want)

    @pytest.mark.parametrize("window, rows", [(None, 1001), (("0", "0"), 0), (("0", "5"), 1), (("0", "10"), 2)])
    def test_window_fuses_at_the_recording_rate(self, window, rows, flight_200hz, capsys, tmp_path, monkeypatch):
        """A window of a 200 Hz recording is fused at 200 Hz, whatever rows it
        holds: a 40 Hz accel cutoff, above the 30 Hz Nyquist rate of the 60 Hz
        that a stream of fewer than two rows takes, runs, and 120 Hz, above
        the recording's 100 Hz, is refused."""
        argv = ["--mode", "replay", "--input", str(flight_200hz)]
        if window:
            argv += ["--from-ms", window[0], "--to-ms", window[1]]
        cfg = tmp_path / "cfg.json"
        monkeypatch.setenv("NAVFUSE_CONFIG", str(cfg))
        cfg.write_text('{"accel_lp_hz": 40}')
        code, out, err = run_cli(argv, capsys)
        assert (code, out.count("\n"), err) == (0, rows + 1, "")
        cfg.write_text('{"accel_lp_hz": 120}')
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (2, "")
        assert err.startswith("navfuse: invalid input: cutoff 120.0 Hz") and "accel_lp_hz" in err

    @pytest.mark.parametrize("window", [[], ["--from-ms", "1000", "--to-ms", "3000"]])
    def test_replay_fuses_the_recording_columns(self, window, recorded, capsys, monkeypatch):
        """``fuse_blocks`` gets the recording's own ``ImuArrays``, windowed or
        not: a window is a row range of it, not a copy of its rows."""
        from navfuse import recording

        rec_path, _, _ = recorded
        reads, calls = [], []
        read, fuse = recording.read_recording, cli.fuse_blocks
        monkeypatch.setattr(recording, "read_recording", lambda *args: reads.append(read(*args)) or reads[-1])
        monkeypatch.setattr(cli, "fuse_blocks", lambda imu, *args: calls.append((imu, *args)) or fuse(imu, *args))
        code, out, _ = run_cli(["--mode", "replay", "--input", str(rec_path), *window], capsys)
        assert code == 0 and len(calls) == 1
        imu, _, _, rows = calls[0]
        assert imu is reads[-1].imu
        t_ms = imu.t_ms[rows]
        assert out.count("\n") == len(t_ms) + 1
        if window:
            assert t_ms[0] >= 1000 and t_ms[-1] < 3000 and len(t_ms) < len(imu.t)

    @pytest.mark.parametrize("bound", [["--from-ms", "99999999999999999999"], ["--to-ms", "-99999999999999999999"]])
    def test_window_bound_beyond_int64_holds_no_row(self, bound, recorded, capsys):
        rec_path, _, _ = recorded
        assert run_cli(["--mode", "replay", "--input", str(rec_path), *bound], capsys) == (0, FUSED_HEADER + "\n", "")

    def test_empty_recording_replays_to_its_header(self, short_flight, capsys, tmp_path):
        _, imu, gps = short_flight
        rec_path = tmp_path / "empty.csv"
        write_recording(imu._make(c[:0] for c in imu), gps._make(c[:0] for c in gps), rec_path, {})
        assert run_cli(["--mode", "replay", "--input", str(rec_path)], capsys) == (0, FUSED_HEADER + "\n", "")

    @pytest.mark.parametrize("mode", ["replay", "filter-compare"])
    def test_dash_input_reads_stdin_as_the_file(self, mode, recorded, capsys, tmp_path, monkeypatch):
        rec_path, _, _ = recorded
        # stdin keeps CRLF line ends, as reading the file does, and a byte
        # that is no UTF-8 is refused alike, at its offset in the file
        data = rec_path.read_bytes()
        crlf, bad = tmp_path / "crlf.csv", tmp_path / "bad.csv"
        crlf.write_bytes(data.replace(b"\n", b"\r\n"))
        at = len(data) // 2
        bad.write_bytes(data[:at] + b"\xff" + data[at:])
        refused = f"navfuse: invalid input: 'utf-8' codec can't decode byte 0xff in position {at}: invalid start byte\n"
        monkeypatch.chdir(tmp_path)
        for path in (rec_path, crlf, bad):
            from_file = run_cli(["--mode", mode, "--input", str(path)], capsys)
            assert from_file == (2, "", refused) if path == bad else from_file[0] == 0
            monkeypatch.setattr(sys, "stdin", type("F", (), {"buffer": io.BytesIO(path.read_bytes())})())
            assert run_cli(["--mode", mode, "--input", "-"], capsys) == from_file
        assert not (tmp_path / "-").exists()

    def test_malformed_recording_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("this,is,not\na,recording,file\n")
        code, _, err = run_cli(["--mode", "replay", "--input", str(bad)], capsys)
        assert code == 2

    @pytest.mark.parametrize("mode", ["live", "record", "replay"])
    def test_bad_config_exits_before_any_output(self, mode, stream_file, recorded, capsys, tmp_path):
        path, _ = stream_file
        rec_path, _, _ = recorded
        argv = ["--mode", mode, "--input", str(rec_path if mode == "replay" else path), "--alpha", "1.5"]
        if mode == "record":
            argv += ["--output", str(tmp_path / "new.csv")]
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == ""
        assert "alpha must be in [0, 1]" in err
        assert not (tmp_path / "new.csv").exists()

    @pytest.mark.parametrize("mode", ["live", "record", "replay", "filter-compare", "sweep"])
    def test_zero_cutoff_exits_before_any_output(self, mode, stream_file, recorded, capsys, tmp_path):
        """A cutoff of 0 Hz is refused as it is, not read as "use the default"."""
        path, _ = stream_file
        rec_path, _, _ = recorded
        argv = ["--mode", mode, "--input", str(path if mode in ("live", "record") else rec_path),
                "--cutoff-hz", "0"]
        if mode == "record":
            argv += ["--output", str(tmp_path / "new.csv")]
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == ""
        assert "cutoff 0.0 Hz must lie strictly inside" in err
        assert not (tmp_path / "new.csv").exists()

    @pytest.mark.parametrize("flag, field", [
        ("--accel-lp-hz", "accel_lp_hz"), ("--gyro-hp-hz", "gyro_hp_hz"), ("--cutoff-hz", "cutoff_hz"),
    ])
    def test_cutoff_above_nyquist_names_its_option(self, flag, field, stream_file, capsys):
        path, _ = stream_file
        code, out, err = run_cli(["--mode", "live", "--input", str(path), flag, "1000"], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("navfuse: invalid input: cutoff 1000.0 Hz must lie strictly inside (0, Nyquist=")
        assert err.endswith(f" Hz (option {field!r})\n")

    # simulate reads only the earth radius
    @pytest.mark.parametrize("mode, option, error", [
        (mode, *case) for case in VOIDING_OPTIONS for mode in ("live", "record", "replay", "filter-compare", "sweep")
    ] + [("simulate", *VOIDING_OPTIONS[0])])
    def test_option_voiding_the_output_exits_before_any_output(self, mode, option, error, stream_file, recorded,
                                                               capsys, tmp_path, monkeypatch):
        """NaN rows or no GPS correction at all: refused in every mode that
        reads the option."""
        path, _ = stream_file
        rec_path, _, _ = recorded
        monkeypatch.chdir(tmp_path)
        argv = ["--mode", mode, "--input", str(path if mode in ("live", "record") else rec_path)] + option
        if mode in ("record", "simulate"):
            argv += ["--output", str(tmp_path / "new.csv")]
        before = sorted(tmp_path.iterdir())
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (2, "")
        assert err.splitlines()[-1].endswith(error)
        assert sorted(tmp_path.iterdir()) == before

    def test_record_needs_output(self, stream_file, capsys):
        path, _ = stream_file
        code, _, _ = run_cli(["--mode", "record", "--input", str(path)], capsys)
        assert code == 2

    @pytest.mark.parametrize("output", [[], ["--output", "-"]])
    def test_record_refuses_before_reading_input(self, output, capsys, monkeypatch):
        class Unread:
            def read(self, *args):
                raise AssertionError("stdin read")

        monkeypatch.setattr(sys, "stdin", type("F", (), {"buffer": Unread()})())
        code, out, err = run_cli(["--mode", "record", *output], capsys)
        assert (code, out) == (2, "")
        assert err == "navfuse: record mode needs --output for the recording file\n"

    def test_unwritable_output_exit_4(self, stream_file, capsys, tmp_path):
        path, _ = stream_file
        code, _, _ = run_cli(
            ["--mode", "record", "--input", str(path), "--output", str(tmp_path / "no" / "rec.csv")],
            capsys,
        )
        assert code == 4

    @pytest.mark.parametrize("mode", ["live", "record", "replay"])
    @pytest.mark.parametrize("bad", ["directory", "under_a_file"])
    def test_directory_as_input_exit_2(self, mode, bad, stream_file, capsys, tmp_path):
        path, _ = stream_file
        source = tmp_path if bad == "directory" else path / "x"
        argv = ["--mode", mode, "--input", str(source)]
        if mode == "record":
            argv += ["--output", str(tmp_path / "rec.csv")]
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert "cannot read input" in err and out == ""

    @pytest.mark.parametrize("mode", ["record", "replay"])
    @pytest.mark.parametrize("bad", ["directory", "under_a_file"])
    def test_directory_as_output_exit_4(self, mode, bad, stream_file, recorded, capsys, tmp_path):
        path, _ = stream_file
        rec_path, _, _ = recorded
        dest = tmp_path if bad == "directory" else rec_path / "x"
        source = rec_path if mode == "replay" else path
        code, _, err = run_cli(["--mode", mode, "--input", str(source), "--output", str(dest)], capsys)
        assert code == 4
        assert "cannot write output" in err

    def test_record_interrupted_leaves_valid_csv(self, tmp_path):
        # The recorder writes into a FIFO that is drained only to 20 kB, far
        # less than the recording, so it is always blocked mid-write when killed.
        profile = FlightProfile(segments=(FlightSegment("straight", 120.0),), seed=6)
        _, imu, gps = generate_flight(profile, SensorNoiseModel())
        big = tmp_path / "big.bin"
        big.write_bytes(build_stream(imu, gps))
        fifo = tmp_path / "partial.fifo"
        os.mkfifo(fifo)
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        # the child imports the navfuse under test, wherever pytest found it
        src = os.path.dirname(os.path.dirname(navfuse.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
        proc = subprocess.Popen(
            [sys.executable, "-m", "navfuse.cli", "--mode", "record",
             "--input", str(big), "--output", str(fifo)],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, env=env,
        )
        written = bytearray()
        try:
            deadline = time.time() + 60
            while len(written) <= 20000:
                try:
                    chunk = os.read(reader, 4096)
                except BlockingIOError:
                    chunk = b""
                written += chunk
                if not chunk:
                    if proc.poll() is not None or time.time() > deadline:
                        pytest.fail("recorder never started writing")
                    time.sleep(0.01)
        finally:
            proc.kill()
            proc.wait()
        # the recorder is gone: take what it left in the FIFO, up to EOF
        os.set_blocking(reader, True)
        while chunk := os.read(reader, 65536):
            written += chunk
        os.close(reader)
        rec_path = tmp_path / "partial.csv"
        rec_path.write_bytes(bytes(written))
        rec = read_recording(rec_path)
        assert 0 < len(rec.imu.t) < len(imu.t)


class TestSimulate:
    def test_deterministic_files(self, capsys, tmp_path):
        args = ["--mode", "simulate", "--seed", "9", "--output", str(tmp_path / "a.csv"),
                "--truth-out", str(tmp_path / "a_truth.csv")]
        assert run_cli(args, capsys)[0] == 0
        args2 = ["--mode", "simulate", "--seed", "9", "--output", str(tmp_path / "b.csv"),
                 "--truth-out", str(tmp_path / "b_truth.csv")]
        assert run_cli(args2, capsys)[0] == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        assert (tmp_path / "a_truth.csv").read_bytes() == (tmp_path / "b_truth.csv").read_bytes()

    def test_dash_output_pipes_into_replay(self, capsys, tmp_path, monkeypatch):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"profile": {"segments": [{"kind": "turn", "duration_s": 4, "yaw_rate_dps": 6}]}}))
        monkeypatch.setenv("NAVFUSE_CONFIG", str(cfg))
        monkeypatch.chdir(tmp_path)
        sim = ["--mode", "simulate", "--seed", "3"]
        assert run_cli(sim + ["--output", "flight.csv", "--truth-out", "truth.csv"], capsys)[0] == 0
        code, replayed, _ = run_cli(["--mode", "replay", "--input", "flight.csv"], capsys)
        assert code == 0
        # the children import the navfuse under test, wherever pytest found it
        src = os.path.dirname(os.path.dirname(navfuse.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
        navfuse_cli = [sys.executable, "-m", "navfuse.cli"]
        writer = subprocess.Popen(
            navfuse_cli + sim + ["--output", "-", "--truth-out", "piped-truth.csv"],
            stdout=subprocess.PIPE, env=env,
        )
        reader = subprocess.run(
            navfuse_cli + ["--mode", "replay", "--input", "-"], stdin=writer.stdout, capture_output=True, env=env,
        )
        writer.stdout.close()
        assert writer.wait() == 0 and reader.returncode == 0
        assert reader.stdout.decode() == replayed
        assert (tmp_path / "piped-truth.csv").read_bytes() == (tmp_path / "truth.csv").read_bytes()
        assert not (tmp_path / "-").exists()

    def test_unwritable_truth_out_exit_4(self, capsys, tmp_path, monkeypatch):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"profile": {"segments": [{"kind": "straight", "duration_s": 2}]}}))
        monkeypatch.setenv("NAVFUSE_CONFIG", str(cfg))
        args = ["--mode", "simulate", "--output", str(tmp_path / "f.csv"),
                "--truth-out", str(tmp_path / "nodir" / "t.csv")]
        code, _, err = run_cli(args, capsys)
        assert code == 4
        assert "cannot write output" in err

    @pytest.mark.parametrize("truth_out", [[], ["--truth-out", "-"]])
    def test_dash_output_needs_a_truth_file(self, truth_out, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(["--mode", "simulate", "--output", "-"] + truth_out, capsys)
        assert code == 2
        assert "truth" in err and out == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("mode", ["simulate", "sweep"])
    def test_imu_rate_above_1000_hz_exit_2(self, mode, capsys, tmp_path, monkeypatch):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"profile": {"imu_rate_hz": 2000}}))
        monkeypatch.setenv("NAVFUSE_CONFIG", str(cfg))
        code, _, err = run_cli(["--mode", mode, "--output", str(tmp_path / "out.csv")], capsys)
        assert code == 2
        assert "integer-millisecond grid" in err

    def test_simulated_recording_replays(self, capsys, tmp_path, monkeypatch):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"profile": {"segments": [{"kind": "straight", "duration_s": 3}]}}))
        monkeypatch.setenv("NAVFUSE_CONFIG", str(cfg))
        rec = tmp_path / "sim.csv"
        assert run_cli(["--mode", "simulate", "--seed", "2", "--output", str(rec)], capsys)[0] == 0
        monkeypatch.delenv("NAVFUSE_CONFIG")
        code, out, _ = run_cli(["--mode", "replay", "--input", str(rec)], capsys)
        assert code == 0
        assert len(out.splitlines()) == 3 * 60 + 2


class TestSweep:
    @pytest.fixture()
    def short_profile(self, tmp_path, monkeypatch):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"profile": {"segments": [{"kind": "straight", "duration_s": 5}]}}))
        monkeypatch.setenv("NAVFUSE_CONFIG", str(cfg))

    def sweep(self, options, capsys):
        code, out, _ = run_cli(["--mode", "sweep", "--seed", "3", "--grid", "0.1,0.9"] + options, capsys)
        assert code == 0
        return out

    def test_default_table_digest(self, short_profile, capsys):
        """The default table's bytes on a 5 s flight (test_golden pins the seed-42 one)."""
        digest = hashlib.sha256(self.sweep([], capsys).encode()).hexdigest()
        assert digest == "7fdf0aca8d7d158c50e1e0441080ac237f8f6d81ad124f025e356c5ad4b6fb63"

    @pytest.mark.parametrize("option", [
        ["--cutoff-hz", "3"], ["--accel-lp-hz", "2"], ["--gyro-hp-hz", "0.5"], ["--declination-deg", "5"],
        ["--stale-after-s", "0.5"], ["--lon-scale-correction"],
    ])
    def test_fusion_options_change_the_table(self, option, short_profile, capsys):
        assert self.sweep(option, capsys) != self.sweep([], capsys)

    def test_earth_flag_sets_the_flight_earth(self, short_profile, capsys, tmp_path, monkeypatch):
        default = self.sweep([], capsys)
        flagged = self.sweep(["--earth-radius-m", "6378137"], capsys)
        cfg = tmp_path / "earth.json"
        cfg.write_text(json.dumps({"profile": {"segments": [{"kind": "straight", "duration_s": 5}],
                                               "earth_radius_m": 6378137}}))
        monkeypatch.setenv("NAVFUSE_CONFIG", str(cfg))
        assert self.sweep([], capsys) == flagged != default
        assert self.sweep(["--earth-radius-m", "6371000"], capsys) == default  # the flag wins

    @pytest.mark.parametrize("mode", ["simulate", "sweep"])
    def test_bad_earth_radius_exits_before_simulating(self, mode, capsys, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a flight was simulated")

        monkeypatch.setattr(flightsim, "generate_flight", refuse)
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(["--mode", mode, "--earth-radius-m", "-5"], capsys)
        assert (code, out) == (2, "")
        assert "earth radius must be positive" in err
        assert list(tmp_path.iterdir()) == []

    def test_header_and_rows(self, capsys, tmp_path, monkeypatch):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"profile": {"segments": [{"kind": "straight", "duration_s": 5}]}}))
        monkeypatch.setenv("NAVFUSE_CONFIG", str(cfg))
        out_path = tmp_path / "sweep.csv"
        code, _, _ = run_cli(
            ["--mode", "sweep", "--grid", "0.1,0.5,0.9", "--output", str(out_path)], capsys
        )
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "alpha,beta,lat_err_m,lon_err_m"
        assert len(lines) == 10

    def test_bad_grid_exit_2(self, capsys, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a flight was simulated")

        monkeypatch.setattr(flightsim, "generate_flight", refuse)
        out_path = tmp_path / "sweep.csv"
        for grid in ("0.1,zz", "0.1,1.5", ","):  # unparseable, out of range, empty
            code, out, err = run_cli(["--mode", "sweep", "--grid", grid, "--output", str(out_path)], capsys)
            assert (code, out) == (2, "")
            assert "bad config:" in err and "grid" in err
            assert not out_path.exists()

    def test_flag_overrides_config_grid(self, capsys, tmp_path, monkeypatch):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "grid": "0.1,0.5",
            "profile": {"segments": [{"kind": "straight", "duration_s": 4}]},
        }))
        monkeypatch.setenv("NAVFUSE_CONFIG", str(cfg))
        out_path = tmp_path / "sweep.csv"
        code, _, _ = run_cli(["--mode", "sweep", "--output", str(out_path)], capsys)
        assert code == 0
        assert len(out_path.read_text().splitlines()) == 5  # config grid 2x2
        code, _, _ = run_cli(["--mode", "sweep", "--grid", "0.3", "--output", str(out_path)], capsys)
        assert code == 0
        assert len(out_path.read_text().splitlines()) == 2  # flag wins: 1x1

    def test_bad_config_file_exit_2(self, capsys, tmp_path, monkeypatch):
        cfg = tmp_path / "broken.json"
        cfg.write_text("{not json")
        monkeypatch.setenv("NAVFUSE_CONFIG", str(cfg))
        assert run_cli(["--mode", "sweep"], capsys)[0] == 2

    def test_rows_stream_as_cells_are_scored(self, short_profile, monkeypatch):
        """The header goes out before any cell is blended, and each row right
        after its own cell's position pass, in grid order."""
        passes = 0
        blend_position = NavEstimator.blend_position

        def counted(self, *args):
            nonlocal passes
            passes += 1
            return blend_position(self, *args)

        class Writer(io.StringIO):
            def __init__(self):
                super().__init__()
                self.writes = []  # (text, position passes so far)

            def write(self, text):
                self.writes.append((text, passes))
                return super().write(text)

        monkeypatch.setattr(NavEstimator, "blend_position", counted)
        writer = Writer()
        monkeypatch.setattr(sys, "stdout", writer)
        assert main(["--mode", "sweep", "--seed", "3", "--grid", "0.1,0.5,0.9"]) == 0
        header, *rows = writer.writes
        assert header == ("alpha,beta,lat_err_m,lon_err_m\n", 0)
        assert [n for _, n in rows] == list(range(1, 10))
        cells = [tuple(text.split(",")[:2]) for text, _ in rows]
        assert cells == [(a, b) for a in ("0.1", "0.5", "0.9") for b in ("0.1", "0.5", "0.9")]


class TestClosedStdout:
    """A reader that closes stdout early ends the run with exit 0 and nothing
    on stderr, in a child whose stdout is buffered as a pipe's is."""

    @staticmethod
    def child(argv, cfg_path=None):
        src = os.path.dirname(os.path.dirname(navfuse.__file__))
        env = {k: v for k, v in os.environ.items() if k not in ("PYTHONUNBUFFERED", "NAVFUSE_CONFIG")}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        if cfg_path is not None:
            env["NAVFUSE_CONFIG"] = str(cfg_path)
        return [sys.executable, "-m", "navfuse.cli", *argv], env

    @pytest.fixture()
    def argv(self, request, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"profile": {"segments": [{"kind": "turn", "duration_s": 30, "yaw_rate_dps": 3}]}}))
        if request.param == "sweep":
            return self.child(["--mode", "sweep", "--seed", "2", "--grid", "0.1,0.5,0.9"], cfg)
        stream = tmp_path / "stream.bin"
        profile = FlightProfile(segments=(FlightSegment("turn", 30.0, yaw_rate_dps=3.0),), seed=2)
        _, imu, gps = generate_flight(profile, SensorNoiseModel())
        stream.write_bytes(build_stream(imu, gps))  # 1,801 rows: far more than a pipe holds
        return self.child(["--mode", "live", "--input", str(stream)], cfg)

    @pytest.mark.parametrize("argv", ["live", "sweep"], indirect=True)
    def test_reader_closed_before_any_output(self, argv):
        """``navfuse ... | true``"""
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(argv[0], env=argv[1], stdout=write_end, stderr=subprocess.PIPE, timeout=60)
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr.decode()) == (0, "")

    @pytest.mark.parametrize("argv", ["live", "sweep"], indirect=True)
    def test_reader_closed_after_two_lines(self, argv):
        """``navfuse ... | head -n 2``"""
        proc = subprocess.Popen(argv[0], env=argv[1], stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        try:
            lines = [proc.stdout.readline() for _ in range(2)]
            proc.stdout.close()
            err = proc.stderr.read().decode()
            assert proc.wait(timeout=60) == 0
        finally:
            proc.kill()
            proc.wait()
        assert lines[0].startswith((b"t_ms,", b"alpha,")) and lines[1].count(b",") >= 3
        assert err == ""

    @needs_worker
    @pytest.mark.parametrize("lines", [1, pipeline._FIRST_BLOCK_ROWS + 2])
    def test_reader_closed_early_leaves_no_process(self, std_stream_file, lines):
        """``live`` on the standard flight forks the attitude worker. A reader
        that closes after the header, or after the first row of the worker's
        first block, leaves no process of the run's session behind."""
        argv, env = self.child(["--mode", "live", "--input", str(std_stream_file)])
        proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                start_new_session=True)
        try:
            head = [proc.stdout.readline() for _ in range(lines)]
            proc.stdout.close()
            _, err = proc.communicate(timeout=60)
            assert (proc.returncode, err.decode()) == (0, "")
            with pytest.raises(ProcessLookupError):
                os.killpg(proc.pid, 0)
        finally:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        assert head[0] == FUSED_HEADER.encode() + b"\n" and head[-1].endswith(b"\n")


def test_live_with_sigchld_ignored_prints_the_default_run(std_stream_file):
    """Started with SIGCHLD ignored (``trap '' CHLD``), where the kernel would
    reap an attitude worker before the parent could wait for it, ``live``
    fuses the standard flight in process, to the bytes of a default run."""
    argv, env = TestClosedStdout.child(["--mode", "live", "--input", str(std_stream_file)])
    default = subprocess.run(argv, env=env, capture_output=True, timeout=60)
    ignored = subprocess.run(argv, env=env, capture_output=True, timeout=60,
                             preexec_fn=lambda: signal.signal(signal.SIGCHLD, signal.SIG_IGN))
    assert (default.returncode, default.stderr) == (0, b"")
    assert (ignored.returncode, ignored.stderr.decode()) == (0, "")
    assert ignored.stdout == default.stdout


class TestFilterCompare:
    def test_zero_noise_columns_agree_after_settling(self, capsys, tmp_path, monkeypatch):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "profile": {"segments": [{"kind": "straight", "duration_s": 10}], "seed": 11},
            "noise": {name: 0.0 for name in (
                "accel_noise_sigma", "accel_bias", "gyro_noise_sigma", "gyro_bias",
                "mag_noise_sigma", "gps_pos_sigma_m", "gps_dropout_prob")},
        }))
        monkeypatch.setenv("NAVFUSE_CONFIG", str(cfg))
        out_path = tmp_path / "fc.csv"
        code, _, _ = run_cli(["--mode", "filter-compare", "--output", str(out_path)], capsys)
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == (
            "t_ms,ax_raw,ax_butterworth,ax_chebyshev,ay_raw,ay_butterworth,ay_chebyshev,"
            "yaw_gyro_deg,yaw_fused_deg"
        )
        for line in lines[1:]:
            cells = line.split(",")
            if int(cells[0]) < 1000:
                continue  # settling
            ax = [float(cells[k]) for k in (1, 2, 3)]
            ay = [float(cells[k]) for k in (4, 5, 6)]
            assert max(ax) - min(ax) < 1e-9
            assert max(ay) - min(ay) < 1e-9

    def test_runs_on_recording(self, capsys, tmp_path):
        rec = tmp_path / "sim.csv"
        assert run_cli(["--mode", "simulate", "--seed", "4", "--output", str(rec)], capsys)[0] == 0
        code, _, _ = run_cli(
            ["--mode", "filter-compare", "--input", str(rec), "--output", str(tmp_path / "fc.csv")],
            capsys,
        )
        assert code == 0

    def test_declination_turns_the_fused_yaw(self, capsys, tmp_path):
        rec = tmp_path / "sim.csv"
        assert run_cli(["--mode", "simulate", "--seed", "1", "--output", str(rec)], capsys)[0] == 0

        def first_fused_yaw(*flags):
            code, out, _ = run_cli(["--mode", "filter-compare", "--input", str(rec), *flags], capsys)
            assert code == 0
            return float(out.splitlines()[1].split(",")[-1])

        turn = first_fused_yaw("--declination-deg", "10") - first_fused_yaw()
        assert (turn + 180.0) % 360.0 - 180.0 == pytest.approx(10.0, abs=1e-6)


class TestConfigFile:
    """What the NAVFUSE_CONFIG file may hold, and that the README and the
    parser list the same options as the records they set."""

    README = Path(__file__).resolve().parents[1] / "README.md"

    @staticmethod
    def sweep_with(cfg, capsys, tmp_path, monkeypatch):
        path = tmp_path / "cfg.json"
        path.write_text(cfg if isinstance(cfg, str) else json.dumps(cfg))
        monkeypatch.setenv("NAVFUSE_CONFIG", str(path))
        return run_cli(["--mode", "sweep", "--grid", "0.5"], capsys)

    def test_cutoff_refused_alike_by_every_mode(self, capsys, tmp_path, monkeypatch):
        """Every mode designs its filters at the rate it estimates off the
        flight's integer-millisecond grid, 58.82 Hz for the 60 Hz standard
        flight: so a cutoff above its Nyquist rate (29.41 Hz) but below the
        profile's (30 Hz) is refused by the sweep as by replay and
        filter-compare of that flight, before any row."""
        monkeypatch.delenv("NAVFUSE_CONFIG", raising=False)
        rec = tmp_path / "sim.csv"
        assert run_cli(["--mode", "simulate", "--seed", "1", "--output", str(rec)], capsys)[0] == 0
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"accel_lp_hz": 29.6}))
        monkeypatch.setenv("NAVFUSE_CONFIG", str(path))
        for argv in (["--mode", "sweep", "--seed", "1", "--grid", "0.5"], ["--mode", "replay", "--input", str(rec)],
                     ["--mode", "filter-compare", "--input", str(rec)]):
            code, out, err = run_cli(argv, capsys)
            assert (code, out) == (2, ""), argv
            assert "accel_lp_hz" in err

    @pytest.mark.parametrize("cfg, key", [
        ({"alpha": None}, "'alpha'"),
        ({"profile": {"seed": None}}, "'seed'"),
        ({"profile": {"segments": [{"kind": "turn"}]}}, "duration_s"),
        ({"lon_scale_correction": "no"}, "'lon_scale_correction'"),
        ({"seed": 3.7}, "'seed'"),
        ({"from_ms": 3.7}, "'from_ms'"),
        ({"to_ms": 3.7}, "'to_ms'"),
        ({"profile": {"seed": 3.7}}, "'seed'"),
        ({"profile": [["seed", 3]]}, "'profile'"),
        ({"noise": [["gps_dropout_prob", 0.0]]}, "'noise'"),
    ])
    def test_wrong_kind_exits_2_naming_the_key(self, cfg, key, capsys, tmp_path, monkeypatch):
        code, out, err = self.sweep_with(cfg, capsys, tmp_path, monkeypatch)
        assert (code, out) == (2, "")
        assert key in err

    @pytest.mark.parametrize("cfg, key", [
        ({"aplha": 0.9}, "'aplha'"),
        ({"gps_mode": "replay"}, "'gps_mode'"),
        ({"profile": {"imu_rate": 200, "segmnets": []}}, "'segmnets'"),
        ({"noise": {"gps_sigma_m": 1.0}}, "'gps_sigma_m'"),
        ({"profile": {"segments": [{"kind": "straight", "duration_s": 5, "yaw_rate": 1.0}]}}, "'yaw_rate'"),
    ])
    def test_unknown_key_exits_2_naming_it(self, cfg, key, capsys, tmp_path, monkeypatch):
        code, out, err = self.sweep_with(cfg, capsys, tmp_path, monkeypatch)
        assert (code, out) == (2, "")
        assert key in err

    @pytest.mark.parametrize("mode", ["simulate", "sweep", "filter-compare"])
    @pytest.mark.parametrize("cfg, error", [
        ({"profile": {"imu_rate": 200}}, "profile: unknown option 'imu_rate'"),
        ({"noise": {"gps_sigma_m": 1.0}}, "noise: unknown option 'gps_sigma_m'"),
        ({"profile": {"segments": [{"kind": "turn", "duration_s": 5}, {"kind": "loop", "duration_s": 5}]}},
         "profile: segments[1]: unknown segment kind 'loop'"),
        ({"profile": {"segments": [{"kind": "turn", "duration_s": 5, "yaw_rate": 1.0}]}},
         "profile: segments[0]: unknown option 'yaw_rate'"),
        # values the simulator cannot fly, refused before it runs
        ({"profile": {"start_heading_deg": math.inf}}, "profile: start_heading_deg must be finite, got inf"),
        ({"profile": {"start_alt_m": math.nan}}, "profile: start_alt_m must be finite, got nan"),
        ({"profile": {"speed_mps": math.nan}}, "profile: speed_mps must be finite and >= 0, got nan"),
        ({"profile": {"speed_mps": -1}}, "profile: speed_mps must be finite and >= 0, got -1.0"),
        ({"profile": {"imu_rate_hz": math.nan}}, "profile: imu_rate_hz must be finite, got nan"),
        ({"profile": {"start_lat": 100}}, "profile: start_lat 100.0 outside [-90, 90]"),
        ({"profile": {"start_lat": math.nan}}, "profile: start_lat nan outside [-90, 90]"),
        ({"profile": {"start_lon": -180}}, "profile: start_lon -180.0 outside (-180, 180]"),
        ({"seed": -1}, "profile: seed must be non-negative, got -1"),
        ({"profile": {"seed": -3}}, "profile: seed must be non-negative, got -3"),
        ({"profile": {"segments": [{"kind": "turn", "duration_s": math.inf}]}},
         "profile: segments[0]: duration_s must be finite, got inf"),
        ({"profile": {"segments": [{"kind": "turn", "duration_s": 5, "yaw_rate_dps": math.nan}]}},
         "profile: segments[0]: yaw_rate_dps must be finite, got nan"),
        ({"profile": {"segments": [{"kind": "climb", "duration_s": 5, "climb_rate_mps": -math.inf}]}},
         "profile: segments[0]: climb_rate_mps must be finite, got -inf"),
        ({"profile": {"segments": [{"kind": "straight", "duration_s": 5, "speed_mps": math.nan}]}},
         "profile: segments[0]: speed_mps must be finite and >= 0, got nan"),
        ({"noise": {"accel_bias": math.nan}}, "noise: accel_bias must be finite, got nan"),
        ({"noise": {"gyro_bias": -math.inf}}, "noise: gyro_bias must be finite, got -inf"),
        ({"noise": {"gps_pos_sigma_m": math.inf}}, "noise: gps_pos_sigma_m must be finite, got inf"),
    ])
    def test_nested_key_is_a_config_error_naming_its_object(self, mode, cfg, error, capsys, tmp_path,
                                                           monkeypatch):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        monkeypatch.setenv("NAVFUSE_CONFIG", str(path))
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(["--mode", mode], capsys)
        assert (code, out, err) == (2, "", f"navfuse: bad config: {error}\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    @pytest.mark.parametrize("mode", ["simulate", "sweep", "filter-compare"])
    def test_negative_seed_flag_is_a_config_error(self, mode, capsys, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("flight simulated")

        monkeypatch.setattr(flightsim, "generate_flight", refuse)
        monkeypatch.delenv("NAVFUSE_CONFIG", raising=False)
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(["--mode", mode, "--seed", "-1"], capsys)
        assert (code, out, err) == (2, "", "navfuse: bad config: profile: seed must be non-negative, got -1\n")
        assert list(tmp_path.iterdir()) == []

    def test_readme_example_loads_and_names_every_key(self, capsys, tmp_path, monkeypatch):
        block = self.README.read_text().split("### Config file")[1].split("```json\n")[1].split("```")[0]
        code, out, _ = self.sweep_with(block, capsys, tmp_path, monkeypatch)
        assert code == 0
        assert len(out.splitlines()) == 2  # the header and one cell

        def names(record):
            return {f.name for f in dataclasses.fields(record)}

        example = json.loads(block)
        assert example.keys() == names(FusionConfig) - {"gps_mode"} | cli._RUN_KINDS.keys()
        assert example["profile"].keys() == names(FlightProfile)
        assert example["noise"].keys() == names(SensorNoiseModel)
        assert set().union(*example["profile"]["segments"]) == names(FlightSegment)

    def test_flags_are_the_options(self):
        dests = set(vars(cli.build_parser().parse_args(["--mode", "live"])))
        fusion = {f.name for f in dataclasses.fields(FusionConfig)} - {"gps_mode"}
        assert dests == fusion | (cli._RUN_KINDS.keys() - {"profile", "noise"}) | {"mode", "backend"}
        flag_list = self.README.read_text().split("\nFlags:")[1].split("\n\n")[0]
        assert set(re.findall(r"--[a-z-]+", flag_list)) == {"--" + d.replace("_", "-") for d in dests}


def test_readme_library_example_runs():
    """The example's hand-wired estimators fuse as ``fuse_blocks`` does:
    same sample rate, same start, same lat/lon bits."""
    block = TestConfigFile.README.read_text().split("## Library")[1].split("```python\n")[1].split("```")[0]
    ns = {}
    exec(compile(block, "README.md", "exec"), ns)
    whole = joined(ns["blocks"])
    assert_same_bits(ns["lat"], whole.lat)
    assert_same_bits(ns["lon"], whole.lon)


def test_mode_required():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_every_export_resolves():
    """A name left in ``__all__`` after its object is gone fails here, not
    first in a user's ``from navfuse import *``."""
    assert [name for name in navfuse.__all__ if not hasattr(navfuse, name)] == []


def test_no_unused_module_imports():
    """Every name a module of the package imports at its top level (in an
    ``if`` block too) is read somewhere in that module, so an import left
    behind when the code using it goes fails here."""
    unused = []
    for path in sorted(Path(navfuse.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        stmts = [s for node in tree.body for s in (node.body if isinstance(node, ast.If) else [node])]
        imported = {
            alias.asname or alias.name.split(".")[0]
            for s in stmts if isinstance(s, (ast.Import, ast.ImportFrom)) and getattr(s, "module", "") != "__future__"
            for alias in s.names
        }
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}: {name}" for name in sorted(imported - read)]
    assert unused == []


def _names_read(paths, strings: bool = False) -> set:
    """The names that the code of ``paths`` reads: as a name, an attribute or
    an import, and with ``strings`` as a dotted identifier string too (the
    benchmark tracer's targets)."""
    read = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
            elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
                parts = node.value.split(".")
                read.update(parts if all(p.isidentifier() for p in parts) else ())
    return read


def test_no_package_code_read_only_by_tests():
    """Every top-level function, class, method and module constant of the
    package is read by the package, by the benchmark, or is documented in the
    README's Library section; a name that only tests read belongs in the
    tests (``tests/reference.py`` holds the scalar references)."""
    root = Path(navfuse.__file__).parent
    modules = sorted(root.glob("*.py"))
    library = TestConfigFile.README.read_text().split("## Library")[1].split("\n## ")[0]
    documented = set(re.findall(r"[A-Za-z_]\w*", " ".join(re.findall(r"`+([^`]+)`+", library))))
    kept = _names_read(modules) | _names_read((root.parents[1] / "navbench").glob("*.py"), strings=True) | documented
    tested = _names_read(Path(__file__).parent.glob("*.py"))
    test_only = []
    for path in modules:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.ClassDef):
                defined = [node.name, *(m.name for m in node.body if isinstance(m, ast.FunctionDef))]
            elif isinstance(node, ast.FunctionDef):
                defined = [node.name]
            elif isinstance(node, ast.Assign):
                defined = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                defined = [node.target.id]
            else:
                continue
            test_only += [f"{path.name}: {name}" for name in defined
                          if name in tested and name not in kept and not name.startswith("__")]
    assert test_only == []


class TestStartup:
    """What importing the package and the CLI loads. Each case runs in a
    fresh interpreter, since this one has imported numpy already."""

    # what the CLI loads only in the modes that use it
    LAZY = ("json", "logging", "numpy.ma", "navfuse.recording", "navfuse.telemetry",
            "multiprocessing", "subprocess", "concurrent.futures")

    @staticmethod
    def fresh(argv: list[str], **env: str) -> subprocess.CompletedProcess:
        """``python *argv`` in a fresh interpreter that imports navfuse from
        this tree; stdout and stderr captured as bytes."""
        src = os.path.dirname(os.path.dirname(navfuse.__file__))
        child_env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        child_env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        child_env.update(env)
        return subprocess.run([sys.executable, *argv], env=child_env, capture_output=True, timeout=60)

    @classmethod
    def fresh_python(cls, code: str, **env: str) -> list[str]:
        proc = cls.fresh(["-c", code], **env)
        assert proc.returncode == 0, proc.stderr.decode()
        return proc.stdout.decode().split()

    def loaded_after(self, code: str, names=LAZY) -> list[str]:
        """Which of ``names`` are loaded once ``code`` has run in a fresh interpreter."""
        return self.fresh_python(f"{code}; import sys; print(*(m for m in {tuple(names)!r} if m in sys.modules))")

    def test_package_import_loads_no_numpy(self):
        out = self.fresh_python(
            "import os, sys, navfuse; "
            "print('numpy' in sys.modules, os.environ.get('OPENBLAS_NUM_THREADS'), "
            "','.join(sorted(m for m in sys.modules if m.startswith('navfuse'))))"
        )
        assert out == ["False", "None", "navfuse"]

    def test_cli_import_caps_openblas_and_skips_flightsim(self):
        out = self.fresh_python(
            "import os, sys, navfuse.cli; "
            "print(os.environ['OPENBLAS_NUM_THREADS'], 'navfuse.flightsim' in sys.modules, "
            "len(os.listdir('/proc/self/task')) if os.path.isdir('/proc/self/task') else 1)"
        )
        assert out == ["1", "False", "1"]  # one thread: numpy started no BLAS pool

    def test_fusing_modes_skip_flightsim(self):
        """live, record and replay read no profile, so they do not import the simulator."""
        out = self.fresh_python(
            "import os, sys, navfuse.cli as cli; "
            "codes = [cli.main(['--mode', m, '--input', os.devnull, '--output', os.devnull]) "
            "for m in ('live', 'record', 'replay')]; "
            "print(*codes, 'navfuse.flightsim' in sys.modules)"
        )
        assert out == ["3", "3", "2", "False"]

    def test_cli_import_loads_no_mode_module(self):
        assert self.loaded_after("import navfuse.cli") == []

    @pytest.mark.parametrize("mode, loads", [("live", "navfuse.telemetry"), ("replay", "navfuse.recording")])
    def test_fusing_mode_loads_its_reader_alone(self, mode, loads, stream_file, recorded_file):
        """live decodes the wire and replay parses a recording; neither
        loads the other's module, nor numpy.ma."""
        path = stream_file[0] if mode == "live" else recorded_file
        code = f"import os, navfuse.cli as c; assert c.main(['--mode', {mode!r}, '--input', {str(path)!r}, " \
               "'--output', os.devnull]) == 0"
        assert self.loaded_after(code, ("numpy.ma", "navfuse.recording", "navfuse.telemetry")) == [loads]

    @needs_worker
    def test_attitude_worker_loads_no_mode_module(self, std_stream_file):
        """A ``live`` run that forks the attitude worker loads the wire decoder
        alone of ``LAZY``: the worker costs no import."""
        code = ("import os, navfuse.cli as c\nforks = []\nfork = os.fork\n"
                "def spy():\n    forks.append(fork())\n    return forks[-1]\n"
                "os.fork = spy\n"
                f"assert c.main(['--mode', 'live', '--input', {str(std_stream_file)!r}, '--output', os.devnull]) == 0\n"
                "assert len(forks) == 1")
        assert self.loaded_after(code) == ["navfuse.telemetry"]

    def test_exit_codes_pass_through_run(self, stream_file, tmp_path):
        empty = tmp_path / "empty.bin"
        empty.write_bytes(b"")
        codes = [
            self.fresh(["-m", "navfuse.cli", "--mode", "live", "--input", str(stream_file[0]),
                        "--output", os.devnull]).returncode,
            self.fresh(["-m", "navfuse.cli", "--mode", "replay"]).returncode,
            self.fresh(["-m", "navfuse.cli", "--mode", "live", "--input", str(empty)]).returncode,
        ]
        assert codes == [0, 2, 3]

    @pytest.mark.parametrize("mode", ["live", "replay"])
    def test_piped_stdout_is_the_in_process_output(self, mode, stream_file, recorded_file, capsys):
        argv = ["--mode", mode, "--input", str(stream_file[0] if mode == "live" else recorded_file)]
        proc = self.fresh(["-m", "navfuse.cli", *argv])
        code, out, _ = run_cli(argv, capsys)
        assert (proc.returncode, code) == (0, 0)
        assert proc.stdout == out.encode()

    def test_stream_with_gaps_warns_once(self, short_flight, tmp_path):
        _, imu, gps = short_flight
        keep = ~(((imu.t > 2.0) & (imu.t < 3.5)) | ((imu.t > 5.0) & (imu.t < 6.5)))
        path = tmp_path / "gaps.bin"
        path.write_bytes(build_stream(imu._make(col[keep] for col in imu), gps))
        proc = self.fresh(["-m", "navfuse.cli", "--mode", "live", "--input", str(path), "--output", os.devnull])
        assert proc.returncode == 0
        assert proc.stderr.decode() == "2 sample gap(s) over 1.0 s: gyro term skipped\n"

    def test_user_openblas_setting_wins(self):
        out = self.fresh_python("import os, navfuse.cli; print(os.environ['OPENBLAS_NUM_THREADS'])",
                                OPENBLAS_NUM_THREADS="2")
        assert out == ["2"]

    def test_star_import_sees_every_export(self):
        out = self.fresh_python(
            "import navfuse; ns = {}; exec('from navfuse import *', ns); "
            "print(len(navfuse.__all__), len(set(navfuse.__all__) - ns.keys()))"
        )
        assert out == ["20", "0"]

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
            navfuse.no_such_name
        assert not hasattr(navfuse, "flight_sim")
