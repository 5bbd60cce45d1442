import dataclasses
import io
import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import navfuse
from navfuse.attitude import ImuSample
from navfuse.cli import main
from navfuse.flightsim import (
    FlightProfile,
    FlightSegment,
    SensorNoiseModel,
    generate_flight,
)
from navfuse.recording import read_recording
from navfuse.telemetry import (
    FrameKind,
    TelemetryFrame,
    encode_frame,
    fix_to_gps_counts,
    sample_to_imu_counts,
    scan_stream,
)


def build_stream(imu, fixes):
    """Interleave IMU and GPS frames by timestamp, like two transmitters."""
    blob = bytearray()
    seq_i = seq_g = 0
    fi = 0
    for i in range(len(imu.t)):
        s = ImuSample(
            t=float(imu.t[i]), accel=tuple(imu.accel[i].tolist()), gyro=tuple(imu.gyro[i].tolist()),
            mag=tuple(imu.mag[i].tolist()),
        )
        while fi < len(fixes) and fixes[fi].t <= s.t:
            blob += encode_frame(
                TelemetryFrame(FrameKind.GPS, seq_g % 65536, round(fixes[fi].t * 1000),
                               fix_to_gps_counts(fixes[fi]))
            )
            seq_g += 1
            fi += 1
        blob += encode_frame(
            TelemetryFrame(FrameKind.IMU, seq_i % 65536, round(s.t * 1000), sample_to_imu_counts(s))
        )
        seq_i += 1
    return bytes(blob)


@pytest.fixture(scope="module")
def short_flight():
    profile = FlightProfile(segments=(FlightSegment("straight", 8.0),), seed=5)
    truth, imu, fixes = generate_flight(profile, SensorNoiseModel())
    return truth, imu, fixes


@pytest.fixture(scope="module")
def stream_file(short_flight, tmp_path_factory):
    truth, imu, fixes = short_flight
    path = tmp_path_factory.mktemp("stream") / "stream.bin"
    path.write_bytes(build_stream(imu, fixes))
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

    def test_malformed_recording_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("this,is,not\na,recording,file\n")
        code, _, err = run_cli(["--mode", "replay", "--input", str(bad)], capsys)
        assert code == 2

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

    def test_record_interrupted_leaves_valid_csv(self, tmp_path):
        # The recorder writes into a FIFO that is drained only to 20 kB, far
        # less than the recording, so it is always blocked mid-write when killed.
        profile = FlightProfile(segments=(FlightSegment("straight", 120.0),), seed=6)
        _, imu, fixes = generate_flight(profile, SensorNoiseModel())
        big = tmp_path / "big.bin"
        big.write_bytes(build_stream(imu, fixes))
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


def test_mode_required():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
