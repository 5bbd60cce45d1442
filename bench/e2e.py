#!/usr/bin/env python3
"""End-to-end wall time, throughput and peak RSS of the navfuse CLI modes.

Runs ``live``, ``replay``, ``simulate`` and ``sweep`` as child processes,
``--runs`` times each, on two flights: the seed-42 standard flight and its
segments flown ten times (set through ``NAVFUSE_CONFIG``). The ``live``
input is the simulated recording framed by ``telemetry.encode_frames``, as
the README's Library section shows. Runs go round the flights and modes in
turn, so that a slow spell of the host falls on every op alike.

It writes a JSON file (``BENCH_e2e.json`` at the checkout's root by default)
with the git sha, the python and numpy versions and, per flight,
``n_samples`` (IMU rows) and, per mode, the median wall time, samples/s at
that median (the flight's rows over the op's wall time, for ``sweep`` too)
and the largest peak RSS of the child itself (``ru_maxrss`` from
``os.wait4``); plus the sha256 of the ``live`` and ``replay`` CSVs, which
every run of an op must reproduce, and a ``fingerprint`` over them.

This process imports neither navfuse nor numpy and never holds an output
in memory: a child spawned by ``subprocess`` (vfork, then exec) starts its
``ru_maxrss`` from this process's high-water mark, so a large parent would
hide the child's own peak.

    python3 bench/e2e.py [--runs 5] [--out BENCH_e2e.json]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FLIGHTS = {"std": 1, "std10x": 10}  # name: laps of the standard segments
MODES = ("live", "replay", "simulate", "sweep")
HASHED = ("live", "replay")

SEGMENTS = """
import dataclasses, json
from navfuse.flightsim import standard_profile
segments = [dataclasses.asdict(s) for s in standard_profile().segments]
print(json.dumps([{k: v for k, v in s.items() if v is not None} for s in segments]))
"""
ENCODE = """
import sys
import numpy as np
from navfuse.recording import read_recording
from navfuse.telemetry import GPS_WIRE, IMU_WIRE, encode_frames, gps_arrays_to_counts, imu_arrays_to_counts
rec = read_recording(sys.argv[1])
imu_frames = encode_frames(IMU_WIRE, rec.imu.t_ms, counts=imu_arrays_to_counts(rec.imu))
gps_frames = encode_frames(GPS_WIRE, np.rint(rec.gps.t * 1000).astype(np.int64), **gps_arrays_to_counts(rec.gps))
with open(sys.argv[2], "wb") as f:
    f.write(imu_frames.tobytes() + gps_frames.tobytes())
print(len(rec.imu.t))
"""
VERSIONS = "import platform, numpy; print(platform.python_version(), numpy.__version__)"


def python(code: str, *args: str, env: dict) -> str:
    """The stdout of a child python running ``code``."""
    return subprocess.run([sys.executable, "-c", code, *args], env=env, check=True,
                          capture_output=True, text=True).stdout


def run_cli(argv: list[str], env: dict, work: Path) -> tuple[float, float, str]:
    """One CLI child: its wall time in s, its own peak RSS in MB and the
    sha256 of its stdout, which is hashed from the file a block at a time
    so that this process stays small."""
    out_path, err_path = work / "stdout", work / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "navfuse.cli", *argv], stdout=out, stderr=err,
                                env=env, cwd=work)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    if code != 0:
        raise RuntimeError(f"navfuse {' '.join(argv)} exited {code}: {err_path.read_text()}")
    digest = hashlib.sha256()
    with open(out_path, "rb") as out:
        for block in iter(lambda: out.read(1 << 20), b""):
            digest.update(block)
    return wall, usage.ru_maxrss / 1024.0, digest.hexdigest()


def git(*args: str) -> str | None:
    try:
        return subprocess.run(["git", "-C", str(ROOT), *args], check=True, capture_output=True,
                              text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=5, help="runs of each op (default 5)")
    p.add_argument("--out", type=Path, default=ROOT / "BENCH_e2e.json")
    args = p.parse_args()
    env = {k: v for k, v in os.environ.items() if not k.startswith("NAVFUSE_")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    py_version, np_version = python(VERSIONS, env=env).split()
    segments = json.loads(python(SEGMENTS, env=env))

    with tempfile.TemporaryDirectory(prefix="navfuse-e2e-") as tmp:
        work = Path(tmp)
        ops, flights = {}, {}
        for name, laps in FLIGHTS.items():
            cfg = work / f"{name}.json"
            cfg.write_text(json.dumps({"profile": {"segments": segments * laps}}))
            flight_env = dict(env, NAVFUSE_CONFIG=str(cfg))
            rec, stream = work / f"{name}.csv", work / f"{name}.bin"
            run_cli(["--mode", "simulate", "--seed", "42", "--output", str(rec)], flight_env, work)
            flights[name] = {"n_samples": int(python(ENCODE, str(rec), str(stream), env=env))}
            argvs = {
                "live": ["--mode", "live", "--input", str(stream)],
                "replay": ["--mode", "replay", "--input", str(rec)],
                "simulate": ["--mode", "simulate", "--seed", "42", "--output", "sim.csv",
                             "--truth-out", "sim-truth.csv"],
                "sweep": ["--mode", "sweep", "--seed", "42"],
            }
            for mode in MODES:
                ops[name, mode] = (argvs[mode], flight_env, [], [], set())
        for _ in range(args.runs):
            for argv, op_env, walls, rss, digests in ops.values():
                wall, peak, digest = run_cli(argv, op_env, work)
                walls.append(wall)
                rss.append(peak)
                digests.add(digest)

    for (name, mode), (argv, _, walls, rss, digests) in ops.items():
        flight = flights[name]
        wall = statistics.median(walls)
        flight[mode] = {"wall_s": round(wall, 4), "walls_s": sorted(round(w, 4) for w in walls),
                        "samples_per_s": round(flight["n_samples"] / wall, 1), "peak_rss_mb": round(max(rss), 2)}
        if mode in HASHED:
            if len(digests) != 1:
                raise RuntimeError(f"{name} {mode}: runs gave different outputs {sorted(digests)}")
            flight[mode]["sha256"] = digests.pop()
    hashed = {name: {mode: flights[name][mode]["sha256"] for mode in HASHED} for name in flights}
    result = {
        "git_sha": git("rev-parse", "HEAD"),
        "src_modified": bool(git("status", "--porcelain", "--", "src", "pyproject.toml")),
        "python": py_version,
        "numpy": np_version,
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "runs": args.runs,
        "fingerprint": hashlib.sha256(json.dumps(hashed, sort_keys=True).encode()).hexdigest(),
        "flights": flights,
    }
    args.out.write_text(json.dumps(result, indent=2) + "\n")
    for name, flight in flights.items():
        for mode in MODES:
            m = flight[mode]
            print(f"{name:7} {mode:9} {m['wall_s']:8.3f} s {m['samples_per_s']:10.0f} samples/s "
                  f"{m['peak_rss_mb']:7.1f} MB")
    print(f"fingerprint {result['fingerprint']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
