#!/usr/bin/env python3
"""End-to-end benchmark of the navfuse CLI, with a separate traced run.

    python3 navbench/run.py --workload live|replay|study --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout; navfuse is imported from
``src/``. The benchmark makes its inputs from the seed (``gen.py``), then
drives ``python3 -m navfuse.cli`` in child processes, one at a time (a closed
loop with one client), repeating the workload's cycle of ops until
``--seconds`` have passed; only whole cycles run. A reference child runs
before every op, and the end-to-end times are scaled to the reference speed
(REF_PROBE below). Every output is checked and
fingerprinted with sha256. ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` also runs every op in-process under the layer tracer
(``tracer.py``) and prints the per-layer metrics. The last line of stdout is
the JSON result; the full record and the spans go to ``navbench/out/``.
See README.md for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import functools
import hashlib
import io
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

import numpy as np

import gen
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

FUSED_HEADER = b"t_ms,qw,qx,qy,qz,roll_deg,pitch_deg,yaw_deg,lat,lon,v_north,v_east"
SWEEP_HEADER = b"alpha,beta,lat_err_m,lon_err_m"
TRUTH_HEADER = b"t_ms,lat,lon,alt_m,v_north,v_east,roll_deg,pitch_deg,yaw_deg"
GRID = (0.1, 0.5, 0.9)

# Bounds on the RMS horizontal error against truth. Live holds the latest
# 1 Hz fix, so it lags by up to one fix interval at 15 m/s; replay and the
# sweep interpolate the fix track and are bounded by the 2.5 m GPS noise.
LIVE_RMS_BOUND_M = 20.0
REPLAY_RMS_BOUND_M = 6.0
SIM_TRUTH_TOL_M = 0.5       # navfuse's integrated truth against the analytic racetrack
SETUP_PROBES_AT_START = 3    # plus one after every cycle, so slow spells of a shared host average out
WINDOW_MS = 60_000
OP_TIMEOUT_S = 100          # a child still running then is killed and its op fails

LIVE_LAPS = (1, 2, 3)
# Replay ops per cycle: (recording laps, windowed). An odd count of op
# kinds keeps op_s.p50 inside the middle kind instead of between two.
REPLAY_OPS = ((2, False), (4, True), (4, False))

# Child that times `import navfuse.cli` inside a fresh interpreter.
IMPORT_PROBE = ("import time; t = time.perf_counter(); import navfuse.cli; "
                "print(time.perf_counter() - t)")

# Host-speed reference: a child that does a fixed amount of work that does
# not touch navfuse, in the same mix as an op: start an interpreter, import
# numpy, fill fresh arrays, run a float loop, format and parse CSV text. One
# runs before every op and one after the last. A shared host's speed drifts
# by up to 2x over minutes (README.md), so each op's times are scaled by
# REF_S / (mean of the reference times just before and just after it), and
# each setup probe's by REF_S / (the reference time just after it). The time
# metrics so read in seconds at the reference speed.
REF_PROBE = """\
import math
import numpy as np
a = np.linspace(1.0, 2.0, 2_000_000)
for _ in range(10):
    a = np.sqrt(a * 1.0001 + 0.5)
acc = 0.0
for i in range(150_000):
    acc += math.sin(i * 1e-3) * 0.5
text = "\\n".join(f"{i},{acc + i * 0.25:.6f},{i * 1e-3:.3f}" for i in range(40_000))
total = sum(float(f) for line in text.split("\\n") for f in line.split(",")[1:])
"""
REF_S = 0.5                 # the reference child's wall time at the reference speed

UNITS = {"samples_per_s": "1/s", "op_s.p50": "s", "first_row_s.p50": "s", "peak_rss_mb": "MB",
         "setup_s": "s", "pos_rms_m": "m"}
KERNEL_SPANS = ("attitude.run", "navigation.run")    # reported per backend
PER_LAYER = (
    ("cli.import_s", "s"), ("cli.main_s", "s"),
    ("telemetry.scan_s", "s"), ("telemetry.to_units_s", "s"), ("telemetry.bytes_in", "bytes"),
    ("telemetry.frames.imu", "count"), ("telemetry.frames.gps", "count"),
    ("telemetry.diag.skip", "count"), ("telemetry.diag.framing", "count"),
    ("telemetry.diag.truncation", "count"), ("telemetry.diag.corruption", "count"),
    ("telemetry.frames_per_attempt", "ratio"),
    ("recording.read_s", "s"), ("recording.rows", "count"),
    ("recording.write_s", "s"), ("recording.bytes", "bytes"),
    ("pipeline.fuse_s", "s"), ("pipeline.format_s", "s"),
    ("pipeline.rows_out", "count"), ("pipeline.bytes_out", "bytes"),
    ("flightsim.generate_s", "s"), ("flightsim.to_arrays_s", "s"), ("flightsim.sweep_s", "s"),
    ("attitude.run_s.python", "s"), ("navigation.gps_reference_s", "s"),
    ("navigation.run_s.python", "s"),
    ("trace.coverage", "ratio"), ("trace.overhead_s", "s"),
)


@dataclass
class Op:
    """One CLI invocation on generated inputs, and how to check its output."""

    label: str
    argv: list[str]
    samples: int                        # IMU samples the op processes
    check: Callable[[dict[str, bytes]], tuple[list[str], float | None]]   # also gives pos_rms_m
    files: dict[str, Path] = field(default_factory=dict)   # outputs written to files
    fused: bool = False                 # stdout is a fused CSV

    def file_argv(self, stdout_path: Path) -> list[str]:
        """argv for an in-process run, with stdout sent to a file."""
        return self.argv if self.files else self.argv + ["--output", str(stdout_path)]


# ---------------------------------------------------------------- checks

def _rows(data: bytes, header: bytes, skip_comments: bool = False, usecols=None):
    lines = data.split(b"\n", 64)
    k = 0
    while skip_comments and k < len(lines) - 1 and lines[k].startswith(b"#"):
        k += 1
    if lines[k] != header:
        return None, [f"header {lines[k][:80]!r}"]
    body = data.split(b"\n", k + 1)[-1]
    if not body.strip():
        return np.zeros((0, len(header.split(b",")))), []
    return np.loadtxt(io.BytesIO(body), delimiter=",", ndmin=2, usecols=usecols), []


def _pos_rms(lat, lon, t_lat, t_lon) -> float:
    d_north, d_east = (lat - t_lat) * gen.M_PER_DEG, (lon - t_lon) * gen.M_PER_DEG
    return float(np.sqrt(np.mean(d_north ** 2 + d_east ** 2)))


def check_fused(out, t_ms, t_lat, t_lon, bound_m):
    rows, errors = _rows(out["stdout"], FUSED_HEADER)
    if errors:
        return errors, None
    if rows.shape != (len(t_ms), 12):
        return [f"{rows.shape[0]} rows x {rows.shape[1]} columns, expected {len(t_ms)} x 12"], None
    if not np.array_equal(rows[:, 0], t_ms):
        return ["t_ms column differs from the delivered timestamps"], None
    if not np.isfinite(rows).all():
        return ["non-finite value in fused output"], None
    rms = _pos_rms(rows[:, 8], rows[:, 9], t_lat, t_lon)
    if not rms < bound_m:
        errors.append(f"pos_rms_m {rms:.3f} not under {bound_m}")
    return errors, rms


def check_sweep(out):
    rows, errors = _rows(out["stdout"], SWEEP_HEADER)
    if errors:
        return errors, None
    grid = np.array([(a, b) for a in GRID for b in GRID])
    if rows.shape != (len(grid), 4) or not np.allclose(rows[:, :2], grid, rtol=0, atol=1e-12):
        return [f"sweep table shape {rows.shape} or grid differs from {len(GRID)}x{len(GRID)}"], None
    if not (np.isfinite(rows[:, 2:]).all() and (rows[:, 2:] >= 0).all()):
        return ["sweep errors must be finite and >= 0"], None
    rms = float(math.hypot(rows[0, 2], rows[0, 3]))
    if not rms < REPLAY_RMS_BOUND_M:
        errors.append(f"alpha=beta=0.1 cell error {rms:.3f} m not under {REPLAY_RMS_BOUND_M}")
    return errors, rms


def check_simulate(out):
    t_ms = gen.imu_time_grid(1)
    rec, errors = _rows(out["recording"], gen.RECORDING_HEADER.encode(), True, usecols=(0, 10))
    if errors:
        return ["recording " + errors[0]], None
    if rec.shape[0] != len(t_ms) or not np.array_equal(rec[:, 0], t_ms):
        return [f"recording has {rec.shape[0]} rows or t_ms off the {len(t_ms)}-sample grid"], None
    fixes = int(rec[:, 1].sum())
    n_cand = (len(t_ms) - 1) // gen.GPS_EVERY + 1
    if not 0.8 * n_cand <= fixes <= n_cand:
        errors.append(f"{fixes} fixes out of {n_cand} candidates")
    truth, err = _rows(out["truth"], TRUTH_HEADER)
    if err:
        return ["truth " + err[0]], None
    if truth.shape[0] != len(t_ms) or not np.array_equal(truth[:, 0], t_ms):
        return ["truth rows differ from the IMU grid"], None
    lat, lon, *_ = gen.racetrack(t_ms / 1000.0, 1)
    dev = float(np.max(np.hypot(truth[:, 1] - lat, truth[:, 2] - lon)) * gen.M_PER_DEG)
    if not dev < SIM_TRUTH_TOL_M:
        errors.append(f"simulated truth strays {dev:.3f} m from the analytic racetrack")
    return errors, None


# ---------------------------------------------------------------- workloads

def build_live(seed: int, work: Path, damage_scale: float = 1.0) -> list[Op]:
    ops = []
    for laps in LIVE_LAPS:
        rng = np.random.default_rng([seed, laps])
        flight = gen.make_flight(laps, rng)
        stream = gen.make_stream(flight, rng, damage_scale)
        path = work / f"live-{laps}x.bin"
        path.write_bytes(stream.data)
        ok = stream.imu_ok
        ops.append(Op(
            label=f"live-{laps}x", argv=["--mode", "live", "--input", str(path)],
            samples=int(ok.sum()), fused=True,
            check=functools.partial(check_fused, t_ms=flight.t_ms[ok], t_lat=flight.lat[ok],
                                    t_lon=flight.lon[ok], bound_m=LIVE_RMS_BOUND_M),
        ))
    return ops


def build_replay(seed: int, work: Path) -> list[Op]:
    flights = {}
    for laps in sorted({laps for laps, _ in REPLAY_OPS}):
        rng = np.random.default_rng([seed, 100 + laps])
        flights[laps] = (gen.make_flight(laps, rng), work / f"replay-{laps}x.csv", rng)
        gen.write_recording(flights[laps][1], flights[laps][0], seed)
    ops = []
    for laps, windowed in REPLAY_OPS:
        flight, path, rng = flights[laps]
        argv = ["--mode", "replay", "--input", str(path)]
        keep = np.ones(flight.n, dtype=bool)
        label = f"replay-{laps}x-full"
        if windowed:
            starts = flight.t_ms[flight.fix_idx]
            lo = int(rng.choice(starts[starts <= flight.t_ms[-1] - WINDOW_MS]))
            argv += ["--from-ms", str(lo), "--to-ms", str(lo + WINDOW_MS)]
            keep = (flight.t_ms >= lo) & (flight.t_ms < lo + WINDOW_MS)
            label = f"replay-{laps}x-window"
        ops.append(Op(
            label=label, argv=argv, samples=int(keep.sum()), fused=True,
            check=functools.partial(check_fused, t_ms=flight.t_ms[keep], t_lat=flight.lat[keep],
                                    t_lon=flight.lon[keep], bound_m=REPLAY_RMS_BOUND_M),
        ))
    return ops


def build_study(seed: int, work: Path) -> list[Op]:
    n = len(gen.imu_time_grid(1))
    rec, truth = work / "simulate.csv", work / "simulate-truth.csv"
    grid = ",".join("%g" % v for v in GRID)
    return [
        Op(label="simulate", samples=n, check=check_simulate,
           argv=["--mode", "simulate", "--seed", str(seed), "--output", str(rec), "--truth-out", str(truth)],
           files={"recording": rec, "truth": truth}),
        Op(label="sweep", samples=n, check=check_sweep,
           argv=["--mode", "sweep", "--seed", str(seed), "--grid", grid]),
    ]


WORKLOADS = {"live": build_live, "replay": build_replay, "study": build_study}


# ---------------------------------------------------------------- running

@dataclass
class OpRun:
    label: str
    wall_s: float
    first_row_s: float | None
    rss_mb: float
    rc: int
    errors: list[str]
    pos_rms_m: float | None


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("NAVFUSE_")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_cli(op: Op, env: dict, err_path: Path):
    """Run one op as a child process; returns (wall, first row time, rss MB, rc, outputs)."""
    argv = [sys.executable, "-m", "navfuse.cli", *op.argv, "--backend", "auto"]
    for path in op.files.values():
        path.unlink(missing_ok=True)
    chunks = []
    first_row = None
    newlines = 0
    with open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, env=env, cwd=ROOT)
        watchdog = threading.Timer(OP_TIMEOUT_S, proc.kill)
        watchdog.start()
        fd = proc.stdout.fileno()
        while True:
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                break
            if first_row is None:
                newlines += chunk.count(b"\n")
                if newlines >= 2:           # header plus the first data row
                    first_row = time.perf_counter() - start
            chunks.append(chunk)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    outputs = {"stdout": b"".join(chunks)}
    if op.files:
        outputs = {name: path.read_bytes() if path.exists() else b"" for name, path in op.files.items()}
    return wall, first_row, usage.ru_maxrss / 1024.0, proc.returncode, outputs


class Checker:
    """Checks each distinct op once, then requires byte-identical repeats."""

    def __init__(self):
        self.fingerprints: dict[str, dict[str, str]] = {}
        self.pos_rms: dict[str, float | None] = {}

    def __call__(self, op: Op, rc: int, outputs: dict[str, bytes]):
        if rc != 0:
            return [f"exit code {rc}"], None
        digest = {k: hashlib.sha256(v).hexdigest() for k, v in outputs.items()}
        if op.label not in self.fingerprints:
            try:
                errors, rms = op.check(outputs)
            except ValueError as exc:           # np.loadtxt on a malformed row
                return [f"unparseable output: {exc}"], None
            if errors:
                return errors, rms
            self.fingerprints[op.label] = digest
            self.pos_rms[op.label] = rms
            return [], rms
        if digest != self.fingerprints[op.label]:
            return ["output differs from the first run of the same input"], None
        return [], self.pos_rms[op.label]


def probe_import(env: dict, walls: list[float], imports: list[float]) -> None:
    """Time one fresh `import navfuse.cli`: process wall time and in-child import time."""
    start = time.perf_counter()
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                         capture_output=True, check=True)
    walls.append(time.perf_counter() - start)
    imports.append(float(out.stdout))


def probe_reference(env: dict, refs: list[float]) -> None:
    """Time one reference child (REF_PROBE) from spawn to exit."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", REF_PROBE], env=env, cwd=ROOT, check=True)
    refs.append(time.perf_counter() - start)


def throughput(runs: list[OpRun], ops: dict[str, Op]) -> float:
    """IMU samples per second of op wall time, summed over the successful ops."""
    ok = [r for r in runs if not r.errors]
    busy = sum(r.wall_s for r in ok)
    return sum(ops[r.label].samples for r in ok) / busy if busy else 0.0


def op_p50(runs: list[OpRun], per_cycle: int) -> float:
    """Median op wall time. With an even number of ops per cycle (`study`'s
    simulate and sweep), the median of all ops would fall between the two
    kinds, so it is the median over cycles of the cycle's mean op time."""
    if per_cycle % 2:
        return statistics.median(r.wall_s for r in runs)
    return statistics.median(statistics.fmean(r.wall_s for r in runs[k:k + per_cycle])
                             for k in range(0, len(runs), per_cycle))


def end_to_end_metrics(runs: list[OpRun], ops: dict[str, Op], setup: list[float],
                       refs: list[float] | None = None, setup_at: list[int] | None = None) -> dict:
    """The end-to-end metrics. Given the reference times (one before each op
    and one after the last) and, for each setup probe, the index of the
    reference run right after it, every time is scaled to the reference
    speed; without them the metrics are as measured."""
    if refs is not None:
        runs = [replace(r, wall_s=r.wall_s * k,
                        first_row_s=None if r.first_row_s is None else r.first_row_s * k)
                for r, k in zip(runs, (2 * REF_S / (a + b) for a, b in zip(refs, refs[1:])))]
        setup = [s * REF_S / refs[i] for s, i in zip(setup, setup_at)]
    first = [r.first_row_s for r in runs if r.first_row_s is not None]
    rms = [r.pos_rms_m for r in runs if not r.errors and r.pos_rms_m is not None]
    return {
        "samples_per_s": throughput(runs, ops),
        "op_s.p50": op_p50(runs, len(ops)),
        "first_row_s.p50": statistics.median(first) if first else 0.0,
        "peak_rss_mb": max(r.rss_mb for r in runs),
        "setup_s": statistics.median(setup),
        "pos_rms_m": statistics.fmean(rms) if rms else 0.0,
    }


def call_main(main, argv: list[str]) -> int:
    """navfuse.cli.main in-process, its stderr dropped; an escaping exception is exit 1."""
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            return main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:
        traceback.print_exc()
        return 1


def read_outputs(op: Op, stdout_path: Path) -> dict[str, bytes]:
    paths = op.files or {"stdout": stdout_path}
    return {name: path.read_bytes() if path.exists() else b"" for name, path in paths.items()}


def clear_outputs(op: Op, stdout_path: Path) -> None:
    for path in (op.files or {"stdout": stdout_path}).values():
        path.unlink(missing_ok=True)


@dataclass
class TraceState:
    """What the traced run accumulates over its op runs."""

    tracer: tracer.Tracer
    ops: int = 0                                        # ops traced, each once on every backend
    op_runs: int = 0                                    # traced runs, the span op ids
    self_s: dict[str, float] = field(default_factory=dict)
    counts: collections.Counter = field(default_factory=collections.Counter)
    coverage: list[tuple[float, float]] = field(default_factory=list)   # (top-level s, CLI op wall)
    overhead: list[float] = field(default_factory=list)


def traced_pass(op: Op, sub_wall: float, state: TraceState, check: Checker, work: Path,
                untraced_first: bool) -> list[list[str]]:
    """Run op in-process: once untraced and once traced on every backend.

    The kernel spans count per backend. Everything else (the other layers,
    counts, coverage and overhead) comes from the run on the backend that
    ``--backend auto`` picks, the one the CLI children used. The caller
    flips ``untraced_first`` every cycle, so the cost of being the first
    in-process run after a child process falls evenly on both sides of
    ``trace.overhead_s``. Returns the errors of each invocation.
    """
    import navfuse
    from navfuse import cli

    stdout_path = work / "inproc-stdout.csv"
    argv = op.file_argv(stdout_path)

    def untraced() -> tuple[float, list[str]]:
        clear_outputs(op, stdout_path)
        start = time.perf_counter()
        rc = call_main(cli.main, argv + ["--backend", "auto"])
        wall = time.perf_counter() - start
        return wall, [f"in-process: {e}" for e in check(op, rc, read_outputs(op, stdout_path))[0]]

    errors = []
    if untraced_first:
        untraced_s, err = untraced()
        errors.append(err)
    tr = state.tracer
    state.ops += 1
    for i, backend in enumerate(navfuse.available_backends()):
        op_id = state.op_runs
        state.op_runs += 1
        clear_outputs(op, stdout_path)
        rc = tr.run_op(op_id, call_main, cli.main, argv + ["--backend", backend])
        outputs = read_outputs(op, stdout_path)
        errors.append([f"traced {backend}: {e}" for e in check(op, rc, outputs)[0]])
        self_s, root_s, top_s = tr.op_summary(op_id)
        auto = i == 0                           # available_backends()[0] is what auto picks
        for name, secs in self_s.items():
            if name in KERNEL_SPANS:
                key = f"{name}_s.{backend}"
            elif auto:
                key = f"{name}_s"
            else:
                continue
            state.self_s[key] = state.self_s.get(key, 0.0) + secs
        if not auto:
            continue
        counts = state.counts
        counts.update(tr.counts)
        if op.fused:
            counts["pipeline.rows_out"] += outputs["stdout"].count(b"\n") - 1
            counts["pipeline.bytes_out"] += len(outputs["stdout"])
        if "recording" in outputs:
            counts["recording.bytes"] += len(outputs["recording"])
        state.coverage.append((top_s, sub_wall))
        traced_s = root_s
    if not untraced_first:
        untraced_s, err = untraced()
        errors.append(err)
    state.overhead.append(traced_s - untraced_s)
    return errors


def per_layer_metrics(state: TraceState, setup: list[float], imports: list[float]) -> tuple[dict, dict]:
    n = state.ops
    counts = state.counts
    values = {key: total / n for key, total in [*state.self_s.items(), *counts.items()]}
    values["cli.import_s"] = statistics.median(imports)
    frames = counts["telemetry.frames.imu"] + counts["telemetry.frames.gps"]
    attempts = frames + sum(counts[f"telemetry.diag.{r}"] for r in ("framing", "truncation", "corruption"))
    values["telemetry.frames_per_attempt"] = frames / attempts if attempts else 0.0
    setup_s = statistics.median(setup)
    values["trace.coverage"] = statistics.fmean(top / (wall - setup_s) for top, wall in state.coverage)
    values["trace.overhead_s"] = statistics.fmean(state.overhead)
    listed = {name: values.get(name, 0.0) for name, _ in PER_LAYER}
    extra = {k: v for k, v in values.items() if k not in listed}
    return listed, extra


def environment(env: dict) -> dict:
    probe = "import navfuse, numpy; print(','.join(navfuse.available_backends())); print(numpy.__version__)"
    out = subprocess.run([sys.executable, "-c", probe], env=env, cwd=ROOT, capture_output=True,
                         text=True, check=True).stdout.split()
    sha = "unknown"
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    return {
        "backends": out[0].split(","), "backend_auto": out[0].split(",")[0],
        "git_sha": sha, "python": platform.python_version(), "numpy": out[1],
        "nproc": len(os.sched_getaffinity(0)), "machine": platform.machine(),
    }


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--damage-scale", type=float, default=1.0,
                   help="live only: multiply the per-frame damage rates (0 to 10; default 1)")
    args = p.parse_args()
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if not 0 <= args.damage_scale <= 10 or (args.damage_scale != 1 and args.workload != "live"):
        p.error("--damage-scale must be in [0, 10], and differ from 1 only on live")
    if not (SRC / "navfuse" / "cli.py").is_file():
        print(f"navbench: no navfuse sources under {SRC}; run inside a source checkout",
              file=sys.stderr)
        return 2
    for key in [k for k in os.environ if k.startswith("NAVFUSE_")]:
        del os.environ[key]

    work = OUT / args.workload
    work.mkdir(parents=True, exist_ok=True)
    env = child_env()
    info = environment(env)
    t0 = time.perf_counter()
    build = WORKLOADS[args.workload]
    if args.workload == "live":
        build = functools.partial(build_live, damage_scale=args.damage_scale)
    cycle = build(args.seed, work)
    gen_s = time.perf_counter() - t0
    ops = {op.label: op for op in cycle}
    setup: list[float] = []
    imports: list[float] = []
    refs: list[float] = []
    setup_at: list[int] = []        # per setup probe, the index of the reference run right after it
    for _ in range(SETUP_PROBES_AT_START):
        setup_at.append(len(refs))
        probe_import(env, setup, imports)

    state = None
    if args.trace:
        sys.path.insert(0, str(SRC))
        from navfuse import cli  # the tracer patches names bound at import

        state = TraceState(tracer.Tracer())
        # Pay the first in-process call's one-off costs (lazy imports, heap growth)
        # before anything is timed, so they do not count as tracing overhead.
        warm = cycle[0]
        call_main(cli.main, warm.file_argv(work / "inproc-stdout.csv") + ["--backend", "auto"])
    check = Checker()
    runs: list[OpRun] = []
    attempted = failed = 0
    err_path = work / "stderr.txt"
    start = time.perf_counter()
    cycles = 0
    while not runs or time.perf_counter() - start < args.seconds:
        cycles += 1
        for op in cycle:
            probe_reference(env, refs)
            wall, first_row, rss, rc, outputs = run_cli(op, env, err_path)
            errors, rms = check(op, rc, outputs)
            runs.append(OpRun(op.label, wall, first_row, rss, rc, errors, rms))
            attempted += 1
            failed += bool(errors)
            if args.trace:
                for inproc_errors in traced_pass(op, wall, state, check, work, cycles % 2 == 1):
                    attempted += 1
                    failed += bool(inproc_errors)
                    runs[-1].errors += inproc_errors
        setup_at.append(len(refs))
        probe_import(env, setup, imports)
    measured_s = time.perf_counter() - start

    probe_reference(env, refs)                  # the last op's after-probe
    e2e = end_to_end_metrics(runs, ops, setup, refs, setup_at)
    e2e_raw = end_to_end_metrics(runs, ops, setup)
    if args.trace:
        metrics, extra = per_layer_metrics(state, setup, imports)
        units = dict(PER_LAYER)
    else:
        metrics, extra = e2e, {}
        units = UNITS
    correct = failed == 0
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}

    fingerprint = hashlib.sha256(json.dumps(check.fingerprints, sort_keys=True).encode()).hexdigest()
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "damage_scale": args.damage_scale,
        "environment": info, "input_generation_s": gen_s, "measured_s": measured_s,
        "setup_walls_s": setup, "import_s": imports, "reference_s": refs,
        "end_to_end": e2e, "end_to_end_as_measured": e2e_raw, "extra_metrics": extra,
        "fingerprint": fingerprint, "outputs_sha256": check.fingerprints,
        "ops": [vars(r) for r in runs], "result": result,
    }
    if args.trace:
        record["missing_trace_targets"] = state.tracer.missing
        (OUT / f"spans-{args.workload}-seed{args.seed}.json").write_text(
            json.dumps(state.tracer.records()))
    (OUT / f"result-{args.workload}-trace{args.trace}-seed{args.seed}.json").write_text(
        json.dumps(record, indent=1))

    print(f"navbench {args.workload} seed={args.seed} trace={args.trace} backend={info['backend_auto']} "
          f"git={info['git_sha'][:12]} python={info['python']} numpy={info['numpy']} nproc={info['nproc']}")
    print(f"inputs generated in {gen_s:.3f} s (not a metric); {len(cycle)} ops per cycle, "
          f"{len(runs)} CLI ops in {measured_s:.1f} s, {failed} of {attempted} invocations failed")
    for r in runs:
        if r.errors:
            print(f"  FAILED {r.label}: {'; '.join(r.errors)}")
    if not args.trace:
        print(f"  times at the reference speed; the reference child took a median "
              f"{statistics.median(refs):.3f} s against REF_S = {REF_S} s")
    for name, value in metrics.items():
        note = ""
        if not args.trace and e2e_raw[name] != value:
            note = f"  (as measured {e2e_raw[name]:.6g})"
        if name == "op_s.p50":
            note += f"  (n={len(runs)}; a p90 needs >= 100 ops, so no tail percentile)"
        print(f"  {name:<30} {value:.6g} {units[name]}{note}")
    for name, value in extra.items():
        print(f"  {name:<30} {value:.6g} (not in BENCHMARK.json)")
    if args.trace and state.tracer.missing:
        print(f"  trace targets not found: {', '.join(state.tracer.missing)}")
    print(f"output fingerprint {fingerprint}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
