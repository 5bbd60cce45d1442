"""In-process spans around navfuse's layer functions, recorded from outside.

The tracer replaces each target function or method with a wrapper that
opens a span, calls the original and closes the span, then puts the
originals back. Spans are kept in memory as
(name, start, end, busy, calls, parent, op); ``busy`` differs from
``end - start`` only where consecutive leaf calls of one name under the same
parent are merged into one span (per-sample conversions, per-row writes and
each step of the output-row generator), which keeps a 50,000-sample op to a
few dozen spans. A target that no longer exists is skipped and listed in
``missing``, so a refactor shows as a layer reading 0, not as a crash.
"""

from __future__ import annotations

import collections
import functools
import importlib
import inspect
import sys
import time

# (module, attribute or Class.method, span name). The names are the layer
# metric names without their "_s" suffix.
TARGETS = (
    ("navfuse.telemetry", "scan_stream", "telemetry.scan"),
    ("navfuse.telemetry", "imu_counts_to_sample", "telemetry.to_units"),
    ("navfuse.telemetry", "gps_counts_to_fix", "telemetry.to_units"),
    ("navfuse.recording", "read_recording", "recording.read"),
    ("navfuse.recording", "merge_streams", "recording.write"),
    ("navfuse.recording", "write_recording", "recording.write"),
    ("navfuse.recording", "RecordingWriter.write_row", "recording.write"),
    ("navfuse.pipeline", "fuse_streams", "pipeline.fuse"),
    ("navfuse.pipeline", "fused_rows", "pipeline.format"),
    ("navfuse.flightsim", "generate_flight", "flightsim.generate"),
    ("navfuse.flightsim", "streams_to_arrays", "flightsim.to_arrays"),
    ("navfuse.flightsim", "sweep_weights", "flightsim.sweep"),
    ("navfuse.attitude", "AttitudeEstimator.run", "attitude.run"),
    ("navfuse.navigation", "prepare_gps_reference", "navigation.gps_reference"),
    ("navfuse.navigation", "NavEstimator.run", "navigation.run"),
)

ROOT = "cli.main"

NAME, START, END, BUSY, CALLS, PARENT, OP = range(7)


def _count_scan(counts, args, out):
    frames, diags = out
    counts["telemetry.bytes_in"] += len(args[0])
    for kind, k in collections.Counter(int(fr.kind) for fr in frames).items():
        counts["telemetry.frames." + {1: "imu", 2: "gps"}.get(kind, str(kind))] += k
    for reason, k in collections.Counter(d.reason for d in diags).items():
        counts["telemetry.diag." + reason] += k


def _count_read(counts, args, out):
    counts["recording.rows"] += len(out.rows)


HOOKS = {"scan_stream": _count_scan, "read_recording": _count_read}


class Tracer:
    """The spans of one traced run, the counts of its latest op, and the
    wrappers that make them."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: collections.Counter = collections.Counter()
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._last_child: dict[int, int] = {}
        self._op = -1
        self._wrappers = self._resolve()

    def _resolve(self):
        """(owner, attribute, original, wrapper) for every target found."""
        out = []
        for module, attr, name in TARGETS:
            try:
                owner = importlib.import_module(module)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                fn = getattr(owner, leaf)
            except (ImportError, AttributeError):
                self.missing.append(f"{module}.{attr}")
                continue
            wrapper = self._wrap(fn, name, HOOKS.get(leaf))
            if path:
                out.append((owner, leaf, fn, wrapper))
                continue
            # Functions are also bound by name in every module that imported them.
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] == "navfuse" and vars(mod).get(leaf) is fn:
                    out.append((mod, leaf, fn, wrapper))
        return out

    def _open(self, name: str) -> None:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, 0.0, 1, parent, self._op])
        self._stack.append(len(self.spans) - 1)

    def _close(self) -> None:
        end = time.perf_counter()
        i = self._stack.pop()
        span = self.spans[i]
        span[END] = end
        span[BUSY] = end - span[START]
        parent = span[PARENT]
        prev = self._last_child.get(parent)
        # Merge a leaf into the previous sibling when that is a leaf of the same name.
        if prev == i - 1 and i == len(self.spans) - 1 and self.spans[prev][NAME] == span[NAME]:
            merged = self.spans[prev]
            merged[END] = end
            merged[BUSY] += span[BUSY]
            merged[CALLS] += 1
            self.spans.pop()
            return
        self._last_child[parent] = i

    def _wrap(self, fn, name, hook):
        tracer = self
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    tracer._open(name)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer._close()
                    yield item
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close()
            if hook is not None:
                try:
                    hook(tracer.counts, args, out)
                except (AttributeError, TypeError, ValueError):
                    tracer.missing.append(f"counts of {name}")
            return out
        return wrapper

    def run_op(self, op: int, fn, *args):
        """Call fn(*args) as op ``op`` under a root span, with every target
        wrapped. ``counts`` then holds this op's counts alone."""
        self.counts.clear()
        for owner, attr, _, wrapper in self._wrappers:
            setattr(owner, attr, wrapper)
        self._op = op
        self._open(ROOT)
        try:
            return fn(*args)
        finally:
            self._close()
            self._last_child.clear()
            for owner, attr, orig, _ in self._wrappers:
                setattr(owner, attr, orig)

    def op_summary(self, op: int) -> tuple[dict[str, float], float, float]:
        """Self time per span name for one op, its root duration, and the
        busy time of the root's direct children (the top-level stages)."""
        ids = [i for i, s in enumerate(self.spans) if s[OP] == op]
        self_time = {i: self.spans[i][BUSY] for i in ids}
        root = next(i for i in ids if self.spans[i][PARENT] == -1)
        top = 0.0
        for i in ids:
            parent = self.spans[i][PARENT]
            if parent != -1:
                self_time[parent] -= self.spans[i][BUSY]
                if parent == root:
                    top += self.spans[i][BUSY]
        by_name: dict[str, float] = collections.defaultdict(float)
        for i in ids:
            by_name[self.spans[i][NAME]] += self_time[i]
        return dict(by_name), self.spans[root][BUSY], top

    def records(self) -> list[dict]:
        keys = ("name", "start", "end", "busy", "calls", "parent", "op")
        return [dict(zip(keys, s)) for s in self.spans]
