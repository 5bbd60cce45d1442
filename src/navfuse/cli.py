"""Operator entry point: live fusion, recording, replay, simulation, and the
alpha/beta sweep and filter-comparison studies.

Exit codes: 0 success, 2 unreadable/unparseable input or bad arguments,
3 empty input (no valid frames), 4 output I/O failure. Defaults come from
built-ins, then the JSON config file named by NAVFUSE_CONFIG, then command
line flags (flags win).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import telemetry
from .attitude import AttitudeEstimator, FusionGains
from .errors import RecordingFormatError, TimestampOrderError
from .filters import biquad_run, design_butterworth2_lp, design_chebyshev1_2_lp
from .flightsim import (
    TRUTH_HEADER,
    generate_flight,
    noise_from_dict,
    profile_from_dict,
    square_grid,
    sweep_weights,
    truth_rows,
)
from .pipeline import FUSED_HEADER, FusionConfig, estimate_sample_rate, fuse_streams, fused_rows
from .recording import read_recording, write_recording
from .telemetry import FrameKind, scan_stream

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_EMPTY = 3
EXIT_OUTPUT = 4

MODES = ("live", "record", "replay", "simulate", "sweep", "filter-compare")

# Fusion defaults are FusionConfig's, less the fields that are not CLI options.
_DEFAULTS = {
    f.name: f.default
    for f in dataclasses.fields(FusionConfig)
    if f.name not in ("hard_iron", "gps_mode", "sample_rate_hz")
}
_DEFAULTS.update(
    seed=None, from_ms=None, to_ms=None, grid="0.1,0.5,0.9",
    input=None, output=None, truth_out=None,
)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="navfuse",
        description="IMU+GPS complementary-filter fusion: fuse, record, replay, simulate, analyze.",
    )
    p.add_argument("--mode", required=True, choices=MODES)
    p.add_argument("--input", help="input path, or - for stdin")
    p.add_argument("--output", help="output path, or - for stdout (default)")
    p.add_argument("--alpha", type=float, help="velocity weight factor [0,1]")
    p.add_argument("--beta", type=float, help="displacement weight factor [0,1]")
    p.add_argument("--gamma-rp", type=float, dest="gamma_rp", help="roll/pitch complementary gain")
    p.add_argument("--gamma-yaw", type=float, dest="gamma_yaw", help="yaw complementary gain")
    p.add_argument("--cutoff-hz", type=float, dest="cutoff_hz", help="position Butterworth cutoff")
    p.add_argument("--accel-lp-hz", type=float, dest="accel_lp_hz", help="accel pre-filter cutoff")
    p.add_argument("--gyro-hp-hz", type=float, dest="gyro_hp_hz", help="gyro pre-filter cutoff")
    p.add_argument("--declination-deg", type=float, dest="declination_deg")
    p.add_argument("--lon-scale-correction", action="store_true", default=None,
                   dest="lon_scale_correction", help="apply cos(lat) to the longitude scale")
    p.add_argument("--earth-radius-m", type=float, dest="earth_radius_m")
    p.add_argument("--stale-after-s", type=float, dest="stale_after_s")
    p.add_argument("--seed", type=int, help="simulation seed")
    p.add_argument("--from-ms", type=int, dest="from_ms", help="replay window start (inclusive)")
    p.add_argument("--to-ms", type=int, dest="to_ms", help="replay window end (exclusive)")
    p.add_argument("--grid", help="comma-separated weight values, swept as a square grid")
    p.add_argument("--truth-out", dest="truth_out", help="truth CSV path for simulate mode")
    p.add_argument("--backend", choices=("auto", "python"),
                   help="accepted for compatibility and ignored: the fusion loops have one implementation")
    return p


def load_config_file() -> dict:
    path = os.environ.get("NAVFUSE_CONFIG")
    if not path:
        return {}
    with open(path, "r", encoding="utf-8") as f:
        cfg = json.load(f)
    if not isinstance(cfg, dict):
        raise ValueError("config file must hold a JSON object")
    return cfg


def resolve_options(args: argparse.Namespace) -> dict:
    cfg = dict(_DEFAULTS)
    file_cfg = load_config_file()
    for key in cfg:
        if key in file_cfg:
            cfg[key] = file_cfg[key]
    cfg["profile"] = file_cfg.get("profile", {})
    cfg["noise"] = file_cfg.get("noise", {})
    for key, value in vars(args).items():
        if key in cfg and value is not None:
            cfg[key] = value
    return cfg


def fusion_config(opts: dict, gps_mode: str) -> FusionConfig:
    return FusionConfig(
        alpha=float(opts["alpha"]),
        beta=float(opts["beta"]),
        gamma_rp=float(opts["gamma_rp"]),
        gamma_yaw=float(opts["gamma_yaw"]),
        accel_lp_hz=float(opts["accel_lp_hz"]),
        gyro_hp_hz=float(opts["gyro_hp_hz"]),
        cutoff_hz=float(opts["cutoff_hz"]) if opts["cutoff_hz"] is not None else None,
        declination_deg=float(opts["declination_deg"]),
        lon_scale_correction=bool(opts["lon_scale_correction"]),
        earth_radius_m=float(opts["earth_radius_m"]),
        stale_after_s=float(opts["stale_after_s"]),
        gps_mode=gps_mode,
    )


def _read_input_bytes(path: str | None) -> bytes:
    if path in (None, "-"):
        return sys.stdin.buffer.read()
    return Path(path).read_bytes()


class _Output:
    """Output sink: '-'/None means stdout (not closed on exit)."""

    def __init__(self, path: str | None):
        self.path = path

    def __enter__(self):
        if self.path in (None, "-"):
            self._f = sys.stdout
            self._own = False
        else:
            self._f = open(self.path, "w", encoding="utf-8", newline="")
            self._own = True
        return self._f

    def __exit__(self, *exc):
        if self._own:
            self._f.close()


def _decode_stream(data: bytes):
    frames, diags = scan_stream(data)
    for d in diags:
        print(f"navfuse: stream diagnostic at byte {d.offset}: {d.reason}: {d.detail}", file=sys.stderr)
    imu = [fr for fr in frames if fr.kind == FrameKind.IMU]
    gps = [fr for fr in frames if fr.kind == FrameKind.GPS]
    # merge transmitters by timestamp; stream order breaks ties (stable sorts),
    # and of the frames sharing a t_ms (retransmissions) the first is kept
    t_ms = np.array([fr.t_ms for fr in imu], dtype=np.int64)
    order = np.argsort(t_ms, kind="stable")
    t_ms = t_ms[order]
    counts = np.array([fr.payload for fr in imu], dtype=np.int64).reshape(-1, 9)[order]
    repeat = np.zeros(len(t_ms), dtype=bool)
    repeat[1:] = t_ms[1:] == t_ms[:-1]
    # compare each repeat with the first frame of its t_ms
    first_row = np.maximum.accumulate(np.where(repeat, 0, np.arange(len(t_ms))))
    conflicts = (counts[repeat] != counts[first_row[repeat]]).any(axis=1)
    _report_duplicates("IMU", int(repeat.sum()), int(conflicts.sum()))

    gps.sort(key=lambda fr: fr.t_ms)
    kept = []
    n_conflicts = 0
    for fr in gps:
        if kept and fr.t_ms == kept[-1].t_ms:
            n_conflicts += fr.payload != kept[-1].payload
        else:
            kept.append(fr)
    _report_duplicates("GPS", len(gps) - len(kept), n_conflicts)
    fixes = [telemetry.gps_counts_to_fix(fr.t_ms, fr.payload) for fr in kept]
    return telemetry.imu_counts_to_arrays(t_ms[~repeat], counts[~repeat]), fixes


def _report_duplicates(kind: str, dropped: int, conflicting: int) -> None:
    if dropped:
        print(
            f"navfuse: dropped {kind} frames repeating an earlier t_ms: {dropped} "
            f"({dropped - conflicting} exact duplicates, {conflicting} with a conflicting payload)",
            file=sys.stderr,
        )


def _emit_fused(out, fh) -> None:
    fh.write(FUSED_HEADER + "\n")
    for line in fused_rows(out):
        fh.write(line + "\n")


def cmd_live(opts: dict) -> int:
    data = _read_input_bytes(opts["input"])
    imu, fixes = _decode_stream(data)
    if len(imu.t) == 0:
        print("navfuse: no valid IMU frames in input", file=sys.stderr)
        return EXIT_EMPTY
    fused = fuse_streams(imu, fixes, fusion_config(opts, "live"))
    with _Output(opts["output"]) as fh:
        _emit_fused(fused, fh)
    return EXIT_OK


def cmd_record(opts: dict) -> int:
    data = _read_input_bytes(opts["input"])
    imu, fixes = _decode_stream(data)
    if len(imu.t) == 0:
        print("navfuse: no valid IMU frames in input", file=sys.stderr)
        return EXIT_EMPTY
    if opts["output"] in (None, "-"):
        print("navfuse: record mode needs --output for the recording file", file=sys.stderr)
        return EXIT_INPUT
    fs = estimate_sample_rate(imu.t)
    metadata = {
        "sample_rate_hz": "%g" % fs,
        "alpha": "%g" % float(opts["alpha"]),
        "beta": "%g" % float(opts["beta"]),
        "accel_lp_hz": "%g" % float(opts["accel_lp_hz"]),
        "gyro_hp_hz": "%g" % float(opts["gyro_hp_hz"]),
    }
    write_recording(imu, fixes, opts["output"], metadata)
    fused = fuse_streams(imu, fixes, fusion_config(opts, "live"))
    _emit_fused(fused, sys.stdout)
    return EXIT_OK


def cmd_replay(opts: dict) -> int:
    if not opts["input"]:
        print("navfuse: replay mode needs --input", file=sys.stderr)
        return EXIT_INPUT
    rec = read_recording(opts["input"])
    t_ms = rec.imu.t_ms
    keep = np.ones(len(t_ms), dtype=bool)
    if opts["from_ms"] is not None:
        keep &= t_ms >= opts["from_ms"]
    if opts["to_ms"] is not None:
        keep &= t_ms < opts["to_ms"]
    imu = rec.imu._make(col[keep] for col in rec.imu)
    with _Output(opts["output"]) as fh:
        if len(imu.t) == 0:
            fh.write(FUSED_HEADER + "\n")
            return EXIT_OK
        # each fix carries the time of its row, so the window's rows bound it
        fixes = [f for f in rec.fixes if imu.t[0] <= f.t <= imu.t[-1]]
        fused = fuse_streams(imu, fixes, fusion_config(opts, "replay"))
        _emit_fused(fused, fh)
    return EXIT_OK


def _sim_inputs(opts: dict):
    profile = profile_from_dict(opts.get("profile") or {})
    if opts["seed"] is not None:
        profile = dataclasses.replace(profile, seed=int(opts["seed"]))
    noise = noise_from_dict(opts.get("noise") or {})
    return profile, noise


def cmd_simulate(opts: dict) -> int:
    profile, noise = _sim_inputs(opts)
    truth, imu, fixes = generate_flight(profile, noise)
    out_path = opts["output"] or "flight.csv"
    truth_path = opts["truth_out"] or (str(out_path) + ".truth.csv")
    metadata = {
        "seed": str(profile.seed),
        "imu_rate_hz": "%g" % profile.imu_rate_hz,
        "gps_rate_hz": "%g" % profile.gps_rate_hz,
        "duration_s": "%g" % profile.duration_s,
    }
    rows = write_recording(imu, fixes, out_path, metadata)
    with open(truth_path, "w", encoding="utf-8", newline="") as f:
        f.write(TRUTH_HEADER + "\n")
        for line in truth_rows(truth):
            f.write(line + "\n")
    print(f"navfuse: wrote {rows} rows to {out_path}, truth to {truth_path}", file=sys.stderr)
    return EXIT_OK


def cmd_sweep(opts: dict) -> int:
    try:
        values = [float(v) for v in str(opts["grid"]).split(",") if v.strip() != ""]
    except ValueError:
        print(f"navfuse: bad --grid {opts['grid']!r}", file=sys.stderr)
        return EXIT_INPUT
    if not values or any(not 0.0 <= v <= 1.0 for v in values):
        print("navfuse: grid values must lie in [0, 1]", file=sys.stderr)
        return EXIT_INPUT
    profile, noise = _sim_inputs(opts)
    cells = sweep_weights(
        profile, noise, square_grid(values),
        gains=FusionGains(float(opts["gamma_rp"]), float(opts["gamma_yaw"])),
    )
    with _Output(opts["output"]) as fh:
        fh.write("alpha,beta,lat_err_m,lon_err_m\n")
        for c in cells:
            fh.write("%g,%g,%.9f,%.9f\n" % (c.alpha, c.beta, c.lat_err_m, c.lon_err_m))
    return EXIT_OK


def cmd_filter_compare(opts: dict) -> int:
    if opts["input"]:
        imu = read_recording(opts["input"]).imu
        if len(imu.t) == 0:
            print("navfuse: recording has no rows", file=sys.stderr)
            return EXIT_EMPTY
    else:
        profile, noise = _sim_inputs(opts)
        _, imu, _ = generate_flight(profile, noise)
    t, acc, gyr, mag, has_mag = imu
    fs = estimate_sample_rate(t)
    cutoff = float(opts["cutoff_hz"]) if opts["cutoff_hz"] is not None else min(10.0, fs / 6.0)
    bw = design_butterworth2_lp(cutoff, fs)
    ch = design_chebyshev1_2_lp(cutoff, fs)

    def run(c, x):
        y, _, _ = biquad_run(c.b0, c.b1, c.b2, c.a1, c.a2, 0.0, 0.0, x)
        return y

    gains = FusionGains(float(opts["gamma_rp"]), float(opts["gamma_yaw"]))
    common = dict(
        sample_rate_hz=fs,
        accel_lp_hz=float(opts["accel_lp_hz"]),
        gyro_hp_hz=float(opts["gyro_hp_hz"]),
    )
    fused = AttitudeEstimator(gains=gains, **common).run(t, acc, gyr, mag, has_mag)
    gyro_only = AttitudeEstimator(gains=gains, **common).run(t, acc, gyr)

    ax_b, ax_c = run(bw, acc[:, 0]), run(ch, acc[:, 0])
    ay_b, ay_c = run(bw, acc[:, 1]), run(ch, acc[:, 1])
    deg = 180.0 / math.pi
    with _Output(opts["output"]) as fh:
        fh.write("t_ms,ax_raw,ax_butterworth,ax_chebyshev,ay_raw,ay_butterworth,ay_chebyshev,"
                 "yaw_gyro_deg,yaw_fused_deg\n")
        for i, t_ms in enumerate(imu.t_ms.tolist()):
            fh.write(
                "%d,%.9f,%.9f,%.9f,%.9f,%.9f,%.9f,%.9f,%.9f\n"
                % (
                    t_ms,
                    acc[i, 0], ax_b[i], ax_c[i],
                    acc[i, 1], ay_b[i], ay_c[i],
                    gyro_only.euler[i, 2] * deg, fused.euler[i, 2] * deg,
                )
            )
    return EXIT_OK


_COMMANDS = {
    "live": cmd_live,
    "record": cmd_record,
    "replay": cmd_replay,
    "simulate": cmd_simulate,
    "sweep": cmd_sweep,
    "filter-compare": cmd_filter_compare,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        opts = resolve_options(args)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"navfuse: bad config: {exc}", file=sys.stderr)
        return EXIT_INPUT
    try:
        return _COMMANDS[args.mode](opts)
    except (FileNotFoundError, PermissionError) as exc:
        missing = getattr(exc, "filename", None)
        if missing and opts.get("output") and str(missing) == str(opts["output"]):
            print(f"navfuse: cannot write output: {exc}", file=sys.stderr)
            return EXIT_OUTPUT
        print(f"navfuse: cannot read input: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (RecordingFormatError, TimestampOrderError, ValueError) as exc:
        print(f"navfuse: invalid input: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except BrokenPipeError:
        return EXIT_OK
    except OSError as exc:
        print(f"navfuse: I/O error: {exc}", file=sys.stderr)
        return EXIT_OUTPUT


if __name__ == "__main__":
    sys.exit(main())
