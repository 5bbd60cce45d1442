"""Operator entry point: live fusion, recording, replay, simulation, and the
alpha/beta sweep and filter-comparison studies.

Exit codes: 0 success, 2 unreadable/unparseable input or bad arguments,
3 empty input (no valid frames), 4 output I/O failure. ``resolve_options``
reads the options into one ``FusionConfig`` and a dict of the run options:
the built-in defaults, then the JSON config file named by NAVFUSE_CONFIG,
then the flags. An unknown config key or a value of the wrong kind exits 2.
Each mode imports only the modules it uses. ``run`` is the program's entry.
The modes move bytes: ``live`` and ``record`` share one path, ``cmd_live``,
from ``telemetry.decode_stream`` to the fused rows.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import io
import math
import os
import sys
from pathlib import Path

# navfuse makes no BLAS call, so numpy's OpenBLAS thread pool would only add start-up time
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from .attitude import AttitudeEstimator, warn_gaps
from .errors import RecordingFormatError, TimestampOrderError
from .filters import FilterState, design_chebyshev1_2_lp
from .navigation import NavEstimator
from .pipeline import (
    FUSED_HEADER,
    FusionConfig,
    csv_blocks,
    estimate_sample_rate,
    fuse_blocks,
    fused_rows,
    read_option,
    replace_fields,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_EMPTY = 3
EXIT_OUTPUT = 4

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
    for a key the file may not hold or a value of the wrong kind. The modes
    that simulate get the profile and noise as records, which only they
    import ``flightsim`` to read."""
    values = {}
    if os.environ.get("NAVFUSE_CONFIG"):
        import json

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
    if args.mode == "sweep":
        run["grid"] = _read_grid(run["grid"], cfg)
    if args.mode in ("simulate", "sweep", "filter-compare"):  # the modes that read them
        from .flightsim import noise_from_dict, profile_from_dict

        for key, read in (("profile", profile_from_dict), ("noise", noise_from_dict)):
            try:
                run[key] = read(run[key])
            except ValueError as exc:
                raise ValueError(f"{key}: {exc}") from None
    return cfg, run


def _read_grid(text: str, cfg: FusionConfig) -> list[float]:
    """The comma-separated values of ``grid``, each a weight as ``FusionConfig`` checks it."""
    try:
        values = [float(v) for v in text.split(",") if v.strip() != ""]
        if not values:
            raise ValueError("no values")
        for v in values:
            dataclasses.replace(cfg, alpha=v)
    except ValueError as exc:
        raise ValueError(f"option 'grid' {text!r}: {exc}") from None
    return values


def _read_input_recording(path: str):
    """A recording from a path, or from stdin for '-', which is read as a
    file is: UTF-8, line ends kept."""
    from .recording import read_recording

    if path != "-":
        return read_recording(path)
    stdin = io.TextIOWrapper(sys.stdin.buffer, encoding="utf-8", newline="")
    try:
        return read_recording(stdin)
    finally:
        stdin.detach()  # leaves sys.stdin open


def _output(path: str | None):
    """The output file for a ``with``: stdout for '-'/None, which it leaves open."""
    if path in (None, "-"):
        return contextlib.nullcontext(sys.stdout)
    return open(path, "w", encoding="utf-8", newline="")


def _emit_fused(blocks, fh) -> None:
    """Write the header, then each block's rows as soon as it is fused."""
    fh.write(FUSED_HEADER + "\n")
    for rows in map(fused_rows, blocks):  # a drained fused_rows holds its block no longer
        for text in rows:
            fh.write(text)
        fh.flush()


def cmd_live(cfg: FusionConfig, run: dict, save=None) -> int:
    """Fuse the wire stream of ``--input`` (stdin for '-') to ``--output``;
    with ``save`` (``record``), which gets the decoded stream before the
    first row, to stdout."""
    from .telemetry import decode_stream

    path = run["input"]
    imu, gps, lines = decode_stream(sys.stdin.buffer.read() if path in (None, "-") else Path(path).read_bytes())
    sys.stderr.write("".join(lines))
    if len(imu.t) == 0:
        print("navfuse: no valid IMU frames in input", file=sys.stderr)
        return EXIT_EMPTY
    blocks = fuse_blocks(imu, gps, cfg)
    if save is not None:
        save(imu, gps)
    with _output(None if save else run["output"]) as fh:
        _emit_fused(blocks, fh)
    return EXIT_OK


def cmd_record(cfg: FusionConfig, run: dict) -> int:
    if run["output"] in (None, "-"):
        print("navfuse: record mode needs --output for the recording file", file=sys.stderr)
        return EXIT_INPUT
    from .recording import write_recording

    def save(imu, gps):
        metadata = {"sample_rate_hz": "%g" % estimate_sample_rate(imu.t)}
        metadata.update((k, "%g" % getattr(cfg, k)) for k in ("alpha", "beta", "accel_lp_hz", "gyro_hp_hz"))
        write_recording(imu, gps, run["output"], metadata)

    return cmd_live(cfg, run, save)


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
        blocks = fuse_blocks(imu, rec.gps, cfg)
    else:
        # check the cutoffs as fuse_blocks would; an empty window has no sample rate, so take the recording's
        fs = estimate_sample_rate(rec.imu.t)
        AttitudeEstimator(cfg, fs), NavEstimator(cfg, fs)
    with _output(run["output"]) as fh:
        _emit_fused(blocks, fh)
    return EXIT_OK


def cmd_simulate(cfg: FusionConfig, run: dict) -> int:
    from .flightsim import TRUTH_HEADER, generate_flight, truth_rows
    from .recording import write_recording

    out_path = run["output"] or "flight.csv"
    if out_path == "-" and run["truth_out"] in (None, "", "-"):
        print("navfuse: simulate --output - needs a --truth-out file for the truth CSV", file=sys.stderr)
        return EXIT_INPUT
    truth_path = run["truth_out"] or (str(out_path) + ".truth.csv")
    profile = run["profile"]
    truth, imu, gps = generate_flight(profile, run["noise"])
    metadata = {
        "seed": str(profile.seed),
        "imu_rate_hz": "%g" % profile.imu_rate_hz,
        "gps_rate_hz": "%g" % profile.gps_rate_hz,
        "duration_s": "%g" % profile.duration_s,
    }
    with _output(out_path) as fh:
        rows = write_recording(imu, gps, fh, metadata)
    with _output(truth_path) as fh:
        fh.write(TRUTH_HEADER + "\n")
        for block in truth_rows(truth):
            fh.write(block)
    print(f"navfuse: wrote {rows} rows to {out_path}, truth to {truth_path}", file=sys.stderr)
    return EXIT_OK


def cmd_sweep(cfg: FusionConfig, run: dict) -> int:
    from .flightsim import square_grid, sweep_cells

    cells = sweep_cells(run["profile"], run["noise"], square_grid(run["grid"]), cfg)
    with _output(run["output"]) as fh:
        fh.write("alpha,beta,lat_err_m,lon_err_m\n")
        for c in cells:  # each row as soon as its cell is scored
            fh.write("%g,%g,%.9f,%.9f\n" % (c.alpha, c.beta, c.lat_err_m, c.lon_err_m))
            fh.flush()
    return EXIT_OK


def cmd_filter_compare(cfg: FusionConfig, run: dict) -> int:
    if run["input"]:
        imu = _read_input_recording(run["input"]).imu
        if len(imu.t) == 0:
            print("navfuse: recording has no rows", file=sys.stderr)
            return EXIT_EMPTY
    else:
        from .flightsim import generate_flight

        _, imu, _ = generate_flight(run["profile"], run["noise"])
    t, acc, gyr, mag, has_mag = imu
    fs = estimate_sample_rate(t)
    att, nav = AttitudeEstimator(cfg, fs), NavEstimator(cfg, fs)
    bw = nav.accel_lp[0].coeffs  # the position pre-filter's Butterworth
    ch = design_chebyshev1_2_lp(bw.cutoff_hz, fs)
    fused = att.run(t, acc, gyr, mag, has_mag)
    gyro_only = AttitudeEstimator(cfg, fs).run(t, acc, gyr)
    warn_gaps(fused.gaps)

    deg = 180.0 / math.pi
    cols = np.column_stack([
        imu.t_ms,
        acc[:, 0], FilterState(bw).run(acc[:, 0]), FilterState(ch).run(acc[:, 0]),
        acc[:, 1], FilterState(bw).run(acc[:, 1]), FilterState(ch).run(acc[:, 1]),
        gyro_only.euler[:, 2] * deg, fused.euler[:, 2] * deg,
    ])
    with _output(run["output"]) as fh:
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
    except (OSError, ValueError) as exc:  # a JSONDecodeError is a ValueError
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


def run() -> int:
    """``main``, with the objects the imports made frozen out of the cyclic
    GC so that its pass at exit skips them. ``main`` makes no GC call: tests
    and benchmarks call it in a running process.

    A reader that closes stdout early (``navfuse ... | head``) is not an
    error: ``main`` stops writing, and the output it left buffered would
    fail again at the interpreter's last flush, so stdout's descriptor is
    pointed at ``os.devnull`` first. ``main`` leaves stdout alone, for the
    callers that run it in process."""
    gc.freeze()
    code = main()
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return code


if __name__ == "__main__":
    sys.exit(run())
