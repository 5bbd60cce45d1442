"""Operator entry point: live fusion, recording, replay, simulation, and the
alpha/beta sweep and filter-comparison studies.

Exit codes: 0 success, 2 unreadable/unparseable input or bad arguments,
3 empty input (no valid frames), 4 output I/O failure. ``resolve_options``
reads the options into one ``FusionConfig`` and a dict of the run options:
the built-in defaults, then the JSON config file named by NAVFUSE_CONFIG,
then the flags. An unknown config key or a value of the wrong kind exits 2.
"""

from __future__ import annotations

import argparse
import dataclasses
import io
import json
import math
import os
import sys
from pathlib import Path

# navfuse makes no BLAS call, so numpy's OpenBLAS thread pool would only add start-up time
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from . import telemetry
from .attitude import warn_gaps
from .errors import RecordingFormatError, TimestampOrderError
from .filters import FilterState, design_chebyshev1_2_lp
from .pipeline import (
    FUSED_HEADER,
    FusionConfig,
    build_estimators,
    csv_blocks,
    estimate_sample_rate,
    fuse_blocks,
    fused_rows,
    read_option,
    replace_fields,
)
from .recording import read_recording, write_recording

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_EMPTY = 3
EXIT_OUTPUT = 4

# Largest wire magnitudes of a position, in 1e-7 degree.
_LAT_E7_MAX = 900_000_000
_LON_E7_MAX = 1_800_000_000

MODES = ("live", "record", "replay", "simulate", "sweep", "filter-compare")

# The options other than FusionConfig's, each with a value of its kind, and
# the defaults that are not None. "profile" and "noise" have no flag.
_RUN_KINDS = dict(seed=0, from_ms=0, to_ms=0, grid="", input="", output="", truth_out="", profile={}, noise={})
_RUN_DEFAULTS = dict(grid="0.1,0.5,0.9", profile={}, noise={})


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
    p.add_argument("--truth-out", dest="truth_out", help="truth CSV path for simulate mode, or - for stdout")
    p.add_argument("--backend", choices=("auto", "python"),
                   help="accepted for compatibility and ignored: the fusion loops have one implementation")
    return p


def resolve_options(args: argparse.Namespace) -> tuple[FusionConfig, dict]:
    """The fusion config and the other options of a run: the built-in
    defaults, then the config file, then the flags. Raises ``ValueError``
    for a key the file may not hold or a value of the wrong kind; the
    profile and noise keys are read by the modes that simulate."""
    values = {}
    if os.environ.get("NAVFUSE_CONFIG"):
        with open(os.environ["NAVFUSE_CONFIG"], "r", encoding="utf-8") as f:
            values = json.load(f)
    if not isinstance(values, dict):
        raise ValueError("config file must hold a JSON object")
    if "gps_mode" in values:
        raise ValueError("unknown option 'gps_mode'")  # each mode sets it
    flags = {k: v for k, v in vars(args).items() if v is not None and k not in ("mode", "backend")}
    run = {k: flags.pop(k, values.pop(k, _RUN_DEFAULTS.get(k))) for k in _RUN_KINDS}
    cfg = replace_fields(FusionConfig(), {**values, **flags})
    for k, v in run.items():  # None means "unset" only where that is the default
        if v is not None or k in _RUN_DEFAULTS:
            run[k] = read_option(k, v, _RUN_KINDS[k])
    # a top-level seed or earth radius, from the file or a flag, wins over the profile's
    tops = {"seed": run["seed"], "earth_radius_m": flags.get("earth_radius_m", values.get("earth_radius_m"))}
    run["profile"] = {**run["profile"], **{k: v for k, v in tops.items() if v is not None}}
    return cfg, run


def _read_input_bytes(path: str | None) -> bytes:
    if path in (None, "-"):
        return sys.stdin.buffer.read()
    return Path(path).read_bytes()


def _read_input_recording(path: str):
    """A recording from a path, or from stdin for '-', which is read as a
    file is: UTF-8, line ends kept."""
    if path != "-":
        return read_recording(path)
    stdin = io.TextIOWrapper(sys.stdin.buffer, encoding="utf-8", newline="")
    try:
        return read_recording(stdin)
    finally:
        stdin.detach()  # leaves sys.stdin open


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
    imu, gps, diags = telemetry.scan_frames(data)
    for d in diags:
        print(f"navfuse: stream diagnostic at byte {d.offset}: {d.reason}: {d.detail}", file=sys.stderr)
    imu = imu[_first_per_t_ms("IMU", imu["t_ms"], imu["counts"])]

    lat, lon = gps["lat_e7"].astype(np.int64), gps["lon_e7"].astype(np.int64)
    in_range = (np.abs(lat) <= _LAT_E7_MAX) & (np.abs(lon) <= _LON_E7_MAX)
    if not in_range.all():
        print(f"navfuse: dropped GPS frames with a position out of range: {int((~in_range).sum())}",
              file=sys.stderr)
    gps = gps[in_range]
    gps["lon_e7"][gps["lon_e7"] == -_LON_E7_MAX] = _LON_E7_MAX  # -180 deg is the +180 deg meridian
    # flag bits 2-7 carry nothing, so they cannot make a conflict
    payload = np.column_stack(
        [gps[f] for f in ("lat_e7", "lon_e7", "speed_cmps", "course_cdeg", "alt_cm")] + [gps["flags"] & 0x03]
    )
    gps = gps[_first_per_t_ms("GPS", gps["t_ms"], payload)]
    return (
        telemetry.imu_counts_to_arrays(imu["t_ms"], imu["counts"]),
        telemetry.gps_counts_to_arrays(gps["t_ms"], gps),
    )


def _first_per_t_ms(kind: str, t_ms: np.ndarray, payload: np.ndarray) -> np.ndarray:
    """Indices of the frames to keep, in t_ms order.

    Transmitters merge by timestamp, stream order breaking ties (a stable
    sort). Of the frames sharing a t_ms (retransmissions) the first is kept;
    the rest are reported, split by whether their payload rows differ.
    """
    order = np.argsort(t_ms, kind="stable")
    t_ms, payload = t_ms[order], payload[order]
    repeat = np.zeros(len(t_ms), dtype=bool)
    repeat[1:] = t_ms[1:] == t_ms[:-1]
    # compare each repeat with the first frame of its t_ms
    first_row = np.maximum.accumulate(np.where(repeat, 0, np.arange(len(t_ms))))
    conflicts = (payload[repeat] != payload[first_row[repeat]]).any(axis=1)
    _report_duplicates(kind, int(repeat.sum()), int(conflicts.sum()))
    return order[~repeat]


def _report_duplicates(kind: str, dropped: int, conflicting: int) -> None:
    if dropped:
        print(
            f"navfuse: dropped {kind} frames repeating an earlier t_ms: {dropped} "
            f"({dropped - conflicting} exact duplicates, {conflicting} with a conflicting payload)",
            file=sys.stderr,
        )


def _emit_fused(blocks, fh) -> None:
    """Write the header, then each block's rows as soon as it is fused."""
    fh.write(FUSED_HEADER + "\n")
    for out in blocks:
        for text in fused_rows(out):
            fh.write(text)
        fh.flush()


def cmd_live(cfg: FusionConfig, run: dict) -> int:
    data = _read_input_bytes(run["input"])
    imu, gps = _decode_stream(data)
    if len(imu.t) == 0:
        print("navfuse: no valid IMU frames in input", file=sys.stderr)
        return EXIT_EMPTY
    blocks = fuse_blocks(imu, gps, cfg)
    with _Output(run["output"]) as fh:
        _emit_fused(blocks, fh)
    return EXIT_OK


def cmd_record(cfg: FusionConfig, run: dict) -> int:
    data = _read_input_bytes(run["input"])
    imu, gps = _decode_stream(data)
    if len(imu.t) == 0:
        print("navfuse: no valid IMU frames in input", file=sys.stderr)
        return EXIT_EMPTY
    if run["output"] in (None, "-"):
        print("navfuse: record mode needs --output for the recording file", file=sys.stderr)
        return EXIT_INPUT
    blocks = fuse_blocks(imu, gps, cfg)
    metadata = {"sample_rate_hz": "%g" % estimate_sample_rate(imu.t)}
    metadata.update((k, "%g" % getattr(cfg, k)) for k in ("alpha", "beta", "accel_lp_hz", "gyro_hp_hz"))
    write_recording(imu, gps, run["output"], metadata)
    _emit_fused(blocks, sys.stdout)
    return EXIT_OK


def cmd_replay(cfg: FusionConfig, run: dict) -> int:
    if not run["input"]:
        print("navfuse: replay mode needs --input", file=sys.stderr)
        return EXIT_INPUT
    rec = _read_input_recording(run["input"])
    cfg = dataclasses.replace(cfg, gps_mode="replay")
    t_ms = rec.imu.t_ms
    keep = np.ones(len(t_ms), dtype=bool)
    if run["from_ms"] is not None:
        keep &= t_ms >= run["from_ms"]
    if run["to_ms"] is not None:
        keep &= t_ms < run["to_ms"]
    imu = rec.imu._make(col[keep] for col in rec.imu)
    blocks = ()  # an empty window writes the header alone
    if len(imu.t):
        # each fix carries the time of its row, so the window's rows bound it
        in_window = (rec.gps.t >= imu.t[0]) & (rec.gps.t <= imu.t[-1])
        gps = rec.gps._make(col[in_window] for col in rec.gps)
        blocks = fuse_blocks(imu, gps, cfg)
    else:
        # check the options as fuse_blocks would; an empty window has no sample rate, so take the recording's
        build_estimators(cfg, estimate_sample_rate(rec.imu.t))
    with _Output(run["output"]) as fh:
        _emit_fused(blocks, fh)
    return EXIT_OK


def _sim_inputs(run: dict):
    from .flightsim import noise_from_dict, profile_from_dict

    return profile_from_dict(run["profile"]), noise_from_dict(run["noise"])


def cmd_simulate(cfg: FusionConfig, run: dict) -> int:
    from .flightsim import TRUTH_HEADER, generate_flight, truth_rows

    out_path = run["output"] or "flight.csv"
    if out_path == "-" and run["truth_out"] in (None, "", "-"):
        print("navfuse: simulate --output - needs a --truth-out file for the truth CSV", file=sys.stderr)
        return EXIT_INPUT
    truth_path = run["truth_out"] or (str(out_path) + ".truth.csv")
    profile, noise = _sim_inputs(run)
    truth, imu, gps = generate_flight(profile, noise)
    metadata = {
        "seed": str(profile.seed),
        "imu_rate_hz": "%g" % profile.imu_rate_hz,
        "gps_rate_hz": "%g" % profile.gps_rate_hz,
        "duration_s": "%g" % profile.duration_s,
    }
    with _Output(out_path) as fh:
        rows = write_recording(imu, gps, fh, metadata)
    with _Output(truth_path) as fh:
        fh.write(TRUTH_HEADER + "\n")
        for block in truth_rows(truth):
            fh.write(block)
    print(f"navfuse: wrote {rows} rows to {out_path}, truth to {truth_path}", file=sys.stderr)
    return EXIT_OK


def cmd_sweep(cfg: FusionConfig, run: dict) -> int:
    from .flightsim import square_grid, sweep_weights

    try:
        values = [float(v) for v in str(run["grid"]).split(",") if v.strip() != ""]
    except ValueError:
        print(f"navfuse: bad --grid {run['grid']!r}", file=sys.stderr)
        return EXIT_INPUT
    if not values or any(not 0.0 <= v <= 1.0 for v in values):
        print("navfuse: grid values must lie in [0, 1]", file=sys.stderr)
        return EXIT_INPUT
    profile, noise = _sim_inputs(run)
    cells = sweep_weights(profile, noise, square_grid(values), cfg)
    with _Output(run["output"]) as fh:
        fh.write("alpha,beta,lat_err_m,lon_err_m\n")
        for c in cells:
            fh.write("%g,%g,%.9f,%.9f\n" % (c.alpha, c.beta, c.lat_err_m, c.lon_err_m))
    return EXIT_OK


def cmd_filter_compare(cfg: FusionConfig, run: dict) -> int:
    if run["input"]:
        imu = _read_input_recording(run["input"]).imu
        if len(imu.t) == 0:
            print("navfuse: recording has no rows", file=sys.stderr)
            return EXIT_EMPTY
    else:
        from .flightsim import generate_flight

        _, imu, _ = generate_flight(*_sim_inputs(run))
    t, acc, gyr, mag, has_mag = imu
    fs = estimate_sample_rate(t)
    att, nav = build_estimators(cfg, fs)
    bw = nav.accel_lp[0].coeffs  # the position pre-filter's Butterworth
    ch = design_chebyshev1_2_lp(bw.cutoff_hz, fs)
    fused = att.run(t, acc, gyr, mag, has_mag)
    gyro_only = build_estimators(cfg, fs)[0].run(t, acc, gyr)
    warn_gaps(fused.gaps)

    deg = 180.0 / math.pi
    cols = np.column_stack([
        imu.t_ms,
        acc[:, 0], FilterState(bw).run(acc[:, 0]), FilterState(ch).run(acc[:, 0]),
        acc[:, 1], FilterState(bw).run(acc[:, 1]), FilterState(ch).run(acc[:, 1]),
        gyro_only.euler[:, 2] * deg, fused.euler[:, 2] * deg,
    ])
    with _Output(run["output"]) as fh:
        fh.write("t_ms,ax_raw,ax_butterworth,ax_chebyshev,ay_raw,ay_butterworth,ay_chebyshev,"
                 "yaw_gyro_deg,yaw_fused_deg\n")
        for block in csv_blocks("%d" + ",%.9f" * 8, cols):
            fh.write(block)
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
        cfg, run = resolve_options(args)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"navfuse: bad config: {exc}", file=sys.stderr)
        return EXIT_INPUT
    try:
        return _COMMANDS[args.mode](cfg, run)
    except (FileNotFoundError, PermissionError, IsADirectoryError, NotADirectoryError) as exc:
        missing = getattr(exc, "filename", None)
        outputs = {str(run[k]) for k in ("output", "truth_out") if run[k]}
        if missing and str(missing) in outputs:
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
