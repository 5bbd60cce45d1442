import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from conftest import build_stream, raw_frame
from hypothesis import given, settings
from hypothesis import strategies as st

import navfuse
from navfuse import cli, flightsim, telemetry
from navfuse.cli import main
from navfuse.flightsim import (
    FlightProfile,
    FlightSegment,
    SensorNoiseModel,
    generate_flight,
)
from navfuse.geo import GeoPoint
from navfuse.pipeline import FUSED_HEADER, FusionConfig
from navfuse.recording import read_recording
from navfuse.telemetry import (
    FrameKind,
    encode_frame,
    scan_stream,
)


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
        frames, diags = scan_stream(bytes(dirty))
        imu_count = sum(1 for f in frames if f.kind == FrameKind.IMU)
        code, out, err = run_cli(["--mode", "live", "--input", str(dirty_path)], capsys)
        assert code == 0
        assert len(out.splitlines()) == imu_count + 1
        assert err.count("stream diagnostic") == len(diags)

    def test_stdin_input(self, stream_file, capsys, monkeypatch):
        path, n = stream_file
        fake = type("F", (), {"buffer": io.BytesIO(path.read_bytes())})()
        monkeypatch.setattr(sys, "stdin", fake)
        code, out, _ = run_cli(["--mode", "live", "--input", "-"], capsys)
        assert code == 0
        assert len(out.splitlines()) == n + 1


class TestRetransmittedFrames:
    """Frames repeating an earlier frame's t_ms: the first in stream order
    is kept and one summary line per kind goes to stderr."""

    @pytest.fixture(scope="class")
    def frames(self, stream_file):
        path, _ = stream_file
        frames, diags = scan_stream(path.read_bytes())
        assert not diags
        assert b"".join(encode_frame(fr) for fr in frames) == path.read_bytes()
        return frames

    def live(self, frames, capsys, tmp_path, name):
        path = tmp_path / name
        path.write_bytes(b"".join(encode_frame(fr) for fr in frames))
        return run_cli(["--mode", "live", "--input", str(path)], capsys)

    def with_copy(self, frames, kind, k, payload=None):
        """The stream with a copy of its k-th frame of ``kind`` sent again
        right after it, optionally with another payload."""
        j = [i for i, fr in enumerate(frames) if fr.kind == kind][k]
        copy = frames[j] if payload is None else dataclasses.replace(frames[j], payload=payload)
        return frames[: j + 1] + [copy] + frames[j + 1 :]

    @pytest.mark.parametrize("kind", [FrameKind.IMU, FrameKind.GPS], ids=["imu", "gps"])
    def test_duplicate_frame_output_matches_clean(self, frames, kind, capsys, tmp_path):
        clean = self.live(frames, capsys, tmp_path, "clean.bin")
        dup = self.live(self.with_copy(frames, kind, 3), capsys, tmp_path, "dup.bin")
        assert clean[0] == dup[0] == 0
        assert dup[1] == clean[1]
        assert clean[2] == ""
        assert dup[2] == (
            f"navfuse: dropped {kind.name} frames repeating an earlier t_ms: 1 "
            "(1 exact duplicates, 0 with a conflicting payload)\n"
        )

    def test_conflicting_frame_keeps_first(self, frames, capsys, tmp_path):
        clean = self.live(frames, capsys, tmp_path, "clean.bin")
        imu_payload = frames[0].payload if frames[0].kind == FrameKind.IMU else frames[1].payload
        stream = self.with_copy(frames, FrameKind.IMU, 5, payload=imu_payload._replace(ax=1234))
        for k in (10, 20, 30):
            stream = self.with_copy(stream, FrameKind.IMU, k)
        code, out, err = self.live(stream, capsys, tmp_path, "conflict.bin")
        assert code == 0
        assert out == clean[1]
        assert err.splitlines() == [
            "navfuse: dropped IMU frames repeating an earlier t_ms: 4 "
            "(3 exact duplicates, 1 with a conflicting payload)"
        ]


class TestGpsPositionRange:
    """A CRC-valid fix outside [-90, 90] latitude or [-180, 180] longitude is
    dropped and counted; -180 deg longitude is the +180 deg meridian."""

    @pytest.fixture(scope="class")
    def frames(self, stream_file):
        path, _ = stream_file
        return scan_stream(path.read_bytes())[0]

    def live(self, frames, capsys, tmp_path, name):
        path = tmp_path / name
        path.write_bytes(b"".join(encode_frame(fr) for fr in frames))
        return run_cli(["--mode", "live", "--input", str(path)], capsys)

    def gps_index(self, frames, k):
        return [i for i, fr in enumerate(frames) if fr.kind == FrameKind.GPS][k]

    @pytest.mark.parametrize("field,value", [
        ("lat_e7", 950_000_000), ("lat_e7", -900_000_001),
        ("lon_e7", 1_800_000_001), ("lon_e7", -(2**31)),
    ])
    def test_out_of_range_fix_dropped(self, frames, field, value, capsys, tmp_path):
        clean = self.live(frames, capsys, tmp_path, "clean.bin")
        j = self.gps_index(frames, 2)
        bad = dataclasses.replace(
            frames[j], t_ms=frames[j].t_ms + 500, payload=dataclasses.replace(frames[j].payload, **{field: value})
        )
        code, out, err = self.live(frames[:j + 1] + [bad] + frames[j + 1:], capsys, tmp_path, "bad.bin")
        assert clean[0] == code == 0
        assert out == clean[1]
        assert err == "navfuse: dropped GPS frames with a position out of range: 1\n"

    def test_lon_minus_180_is_plus_180(self, frames, capsys, tmp_path):
        j = self.gps_index(frames, 2)
        runs = []
        for lon_e7 in (1_800_000_000, -1_800_000_000):
            fix = dataclasses.replace(frames[j], payload=dataclasses.replace(frames[j].payload, lon_e7=lon_e7))
            runs.append(self.live(frames[:j] + [fix] + frames[j + 1:], capsys, tmp_path, "meridian.bin"))
        assert runs[0] == runs[1]
        assert runs[0][0] == 0 and runs[0][2] == ""


@pytest.mark.parametrize("mode", ["live", "record", "replay", "simulate", "sweep"])
def test_no_frame_objects_on_cli_path(mode, stream_file, capsys, tmp_path, monkeypatch):
    """Frames and fixes stay columns: no frame, payload or position object is
    built per frame or per fix."""

    def refuse(*args, **kwargs):
        raise AssertionError("per-frame object built on the CLI path")

    for cls in (telemetry.TelemetryFrame, telemetry.GpsPayload, GeoPoint):
        monkeypatch.setattr(cls, "__init__", refuse)
    monkeypatch.setattr(telemetry, "decode_frame", refuse)
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


class TestFuzzLive:
    """``live`` on damaged and arbitrary bytes: a damaged stream still fuses,
    and no input lets an exception escape."""

    @pytest.fixture(scope="class")
    def base(self):
        profile = FlightProfile(segments=(FlightSegment("straight", 3.0),), seed=8)
        _, imu, gps = generate_flight(profile, SensorNoiseModel())
        return [encode_frame(fr) for fr in scan_stream(build_stream(imu, gps))[0]]

    @staticmethod
    def run_bytes(data, tmp_path_factory):
        path = tmp_path_factory.getbasetemp() / "fuzz.bin"
        path.write_bytes(data)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["--mode", "live", "--input", str(path)])
        return code, out.getvalue()

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
                frame = raw_frame(0x01, 0, t_ms, *fields)
            else:
                lat, lon = data.draw(st.integers(-(2**31), 2**31 - 1)), data.draw(st.integers(-(2**31), 2**31 - 1))
                rest = data.draw(st.tuples(st.integers(0, 2**16 - 1), st.integers(0, 2**16 - 1),
                                           st.integers(-(2**31), 2**31 - 1), st.integers(0, 255)))
                frame = raw_frame(0x02, 0, t_ms, lat, lon, *rest)
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
        t_ms = sorted({fr.t_ms for fr in scan_stream(stream)[0] if fr.kind == FrameKind.IMU})

        code, out = self.run_bytes(stream, tmp_path_factory)
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
        code, _ = self.run_bytes(bytes(data), tmp_path_factory)
        assert code in (0, 2, 3)


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

    def test_empty_window_exit_0(self, recorded, capsys):
        rec_path, _, _ = recorded
        code, out, _ = run_cli(
            ["--mode", "replay", "--input", str(rec_path), "--from-ms", "0", "--to-ms", "0"], capsys
        )
        assert code == 0
        assert out.splitlines() == [out.splitlines()[0]]

    @pytest.mark.parametrize("options", [["--alpha", "5", "--cutoff-hz", "0"], ["--cutoff-hz", "0"]])
    @pytest.mark.parametrize("window", [("0", "0"), ("1000", "3000")])
    def test_window_with_or_without_rows_checks_the_options(self, window, options, recorded, capsys):
        rec_path, _, _ = recorded
        argv = ["--mode", "replay", "--input", str(rec_path), "--from-ms", window[0], "--to-ms", window[1]]
        code, out, err = run_cli(argv + options, capsys)
        assert (code, out) == (2, "")
        want = "alpha must be in [0, 1], got 5.0" if "--alpha" in options else "cutoff 0.0 Hz must lie strictly inside"
        assert err.startswith("navfuse: invalid input: " + want)

    @pytest.mark.parametrize("mode", ["replay", "filter-compare"])
    def test_dash_input_reads_stdin_as_the_file(self, mode, recorded, capsys, tmp_path, monkeypatch):
        rec_path, _, _ = recorded
        # stdin keeps CRLF line ends, as reading the file does
        crlf = tmp_path / "crlf.csv"
        crlf.write_bytes(rec_path.read_bytes().replace(b"\n", b"\r\n"))
        monkeypatch.chdir(tmp_path)
        for path in (rec_path, crlf):
            code, from_file, _ = run_cli(["--mode", mode, "--input", str(path)], capsys)
            assert code == 0
            monkeypatch.setattr(sys, "stdin", type("F", (), {"buffer": io.BytesIO(path.read_bytes())})())
            assert run_cli(["--mode", mode, "--input", "-"], capsys)[:2] == (0, from_file)
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

    def test_record_needs_output(self, stream_file, capsys):
        path, _ = stream_file
        code, _, _ = run_cli(["--mode", "record", "--input", str(path)], capsys)
        assert code == 2

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
        assert digest == "644d579952460e10223bc7132b316030784ca2e6b83d6eec84c13a46151d222c"

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

    def test_bad_grid_exit_2(self, capsys):
        assert run_cli(["--mode", "sweep", "--grid", "0.1,zz"], capsys)[0] == 2
        assert run_cli(["--mode", "sweep", "--grid", "0.1,1.5"], capsys)[0] == 2

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

    @pytest.mark.parametrize("cfg, key", [
        ({"alpha": None}, "'alpha'"),
        ({"profile": {"seed": None}}, "'seed'"),
        ({"profile": {"segments": [{"kind": "turn"}]}}, "duration_s"),
        ({"lon_scale_correction": "no"}, "'lon_scale_correction'"),
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

    def test_readme_example_loads_and_names_every_key(self, capsys, tmp_path, monkeypatch):
        block = self.README.read_text().split("### Config file")[1].split("```json\n")[1].split("```")[0]
        code, out, _ = self.sweep_with(block, capsys, tmp_path, monkeypatch)
        assert code == 0
        assert len(out.splitlines()) == 2  # the header and one cell

        def names(record):
            return {f.name for f in dataclasses.fields(record)}

        example = json.loads(block)
        assert example.keys() == names(FusionConfig) - {"gps_mode"} | cli._RUN_KINDS.keys()
        assert example["profile"].keys() == names(FlightProfile) - {"earth"} | {"earth_radius_m"}
        assert example["noise"].keys() == names(SensorNoiseModel)
        assert set().union(*example["profile"]["segments"]) == names(FlightSegment)

    def test_flags_are_the_options(self):
        dests = set(vars(cli.build_parser().parse_args(["--mode", "live"])))
        fusion = {f.name for f in dataclasses.fields(FusionConfig)} - {"gps_mode"}
        assert dests == fusion | (cli._RUN_KINDS.keys() - {"profile", "noise"}) | {"mode", "backend"}
        flag_list = self.README.read_text().split("\nFlags:")[1].split("\n\n")[0]
        assert set(re.findall(r"--[a-z-]+", flag_list)) == {"--" + d.replace("_", "-") for d in dests}


def test_mode_required():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_every_export_resolves():
    """A name left in ``__all__`` after its object is gone fails here, not
    first in a user's ``from navfuse import *``."""
    assert [name for name in navfuse.__all__ if not hasattr(navfuse, name)] == []


class TestStartup:
    """What importing the package and the CLI loads. Each case runs in a
    fresh interpreter, since this one has imported numpy already."""

    @staticmethod
    def fresh_python(code: str, **env: str) -> list[str]:
        src = os.path.dirname(os.path.dirname(navfuse.__file__))
        child_env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        child_env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        child_env.update(env)
        proc = subprocess.run([sys.executable, "-c", code], env=child_env, capture_output=True, text=True,
                              timeout=60, check=True)
        return proc.stdout.split()

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

    def test_user_openblas_setting_wins(self):
        out = self.fresh_python("import os, navfuse.cli; print(os.environ['OPENBLAS_NUM_THREADS'])",
                                OPENBLAS_NUM_THREADS="2")
        assert out == ["2"]

    def test_star_import_sees_every_export(self):
        out = self.fresh_python(
            "import navfuse; ns = {}; exec('from navfuse import *', ns); "
            "print(len(navfuse.__all__), len(set(navfuse.__all__) - ns.keys()))"
        )
        assert out == ["36", "0"]

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
            navfuse.no_such_name
        assert not hasattr(navfuse, "flight_sim")
