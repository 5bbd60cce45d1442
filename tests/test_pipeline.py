import contextlib
import dataclasses
import logging
import math
import os
import signal
import sys
import tracemalloc

import numpy as np
import pytest
from conftest import assert_no_child_left, assert_same_bits, build_stream, joined, needs_worker
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from navfuse import cli, pipeline
from navfuse.attitude import AttitudeEstimator, ImuArrays
from navfuse.flightsim import FlightProfile, FlightSegment, SensorNoiseModel, generate_flight, standard_profile
from navfuse.navigation import GpsArrays, NavEstimator
from navfuse.pipeline import (
    FusionConfig,
    csv_blocks,
    estimate_sample_rate,
    format_rows,
    fuse_blocks,
    fused_rows,
    median,
)
from navfuse.recording import write_recording


def test_fused_rows_match_per_cell_formatting():
    # 40 s at 60 Hz: two full 1,024-row blocks and a short last one
    profile = FlightProfile(segments=(FlightSegment("turn", 40.0, yaw_rate_dps=4.0),), seed=3)
    _, imu, gps = generate_flight(profile, SensorNoiseModel())
    out = joined(fuse_blocks(imu, gps))
    deg = 180.0 / math.pi
    expected = []
    for i in range(len(out.t)):
        cells = [str(int(out.t_ms[i]))]
        cells += ["%.9f" % v for v in out.q[i]]
        cells += ["%.9f" % (out.euler[i, k] * deg) for k in range(3)]
        cells += ["%.9f" % out.lat[i], "%.9f" % out.lon[i]]
        cells += ["%.9f" % out.vel[i, 0], "%.9f" % out.vel[i, 1]]
        expected.append(",".join(cells) + "\n")
    blocks = list(fused_rows(out))
    assert [b.count("\n") for b in blocks] == [1024, 1024, len(expected) - 2048]
    assert "".join(blocks) == "".join(expected)


def per_cell(cells, cols, empty):
    """The rows printed one ``%`` per cell, and nothing for an empty cell."""
    return "".join(
        ",".join("" if e else f % x for f, x, e in zip(cells, row, skip)) + "\n"
        for row, skip in zip(cols.tolist(), empty.tolist())
    )


# the largest |x| whose float product x * 1e9 lies below 2**52, where a %.9f
# cell is still formatted by arithmetic, and its neighbours
FIXED_EDGE = 2.0**52 / 1e9
while FIXED_EDGE * 1e9 >= 2.0**52:
    FIXED_EDGE = np.nextafter(FIXED_EDGE, 0.0)
EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 0.5e-9, 1.5e-9, 2.5e-9, -2.5e-9, 1e-12, -1e-12,
         0.9999999995, 9.9999999995, 4294967295.0, 9.2e18, -9.2e18, 2.0**63, -(2.0**63), 1e300, -1e300,
         math.inf, -math.inf, math.nan,
         *(x * s for x in (FIXED_EDGE, *np.nextafter(FIXED_EDGE, [0.0, math.inf]).tolist()) for s in (1, -1))]


@settings(max_examples=80, deadline=None)
@given(
    rows=st.integers(1, 1025),
    cells=st.lists(st.sampled_from(["%d", "%.9f"]), min_size=1, max_size=5),
    drawn=st.lists(st.floats(width=64), max_size=20),
    in_range=st.booleans(),
    empty_share=st.sampled_from([0.0, 0.3, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
@example(rows=1025, cells=["%d"] + ["%.9f"] * 4, drawn=[], in_range=True, empty_share=0.0, seed=0)
def test_format_rows_prints_what_percent_prints(rows, cells, drawn, in_range, empty_share, seed):
    """Any float64 prints as ``%`` prints it: the arithmetic's exact rounding
    on ties k/1024 and their float neighbours, subnormals and signed zeros;
    the per-cell fallback on a block with a cell out of range (the edge of
    2**52 / 1e9, huge values, infinities and NaN); and empty cells, which
    print nothing whatever they hold."""
    rng = np.random.default_rng(seed)
    shape = (rows, len(cells))
    ties = rng.integers(-(2**30), 2**30, shape) / 1024.0
    pool = np.array(EDGES + drawn)
    picks = [
        rng.choice(pool, shape),
        ties,
        np.nextafter(ties, rng.choice([-math.inf, math.inf], shape)),
        np.ldexp(rng.random(shape), rng.integers(-1075, 23, shape)) * rng.choice([-1.0, 1.0], shape),
        np.rint(rng.normal(0.0, 1e6, shape)),
    ]
    if not in_range:
        picks.append(rng.integers(0, 2**64, shape, dtype=np.uint64, endpoint=False).view(np.float64))
    cols = np.choose(rng.integers(0, len(picks), shape), picks)
    empty = rng.random(shape) < empty_share
    fixed = np.array([c == "%.9f" for c in cells])
    if in_range:
        bad = ~(np.abs(cols) <= np.where(fixed, FIXED_EDGE, np.nextafter(2.0**63, 0.0)))
        cols[bad & ~empty] = 0.25
    else:
        # %d refuses NaN and the infinities, as int() does
        cols[~np.isfinite(cols) & ~fixed] = 1.0
    want = per_cell(cells, cols, empty)
    assert format_rows(",".join(cells), cols, empty) == want
    if not empty.any():
        blocks = list(csv_blocks(",".join(cells), cols))
        assert [b.count("\n") for b in blocks] == [min(1024, rows - lo) for lo in range(0, rows, 1024)]
        assert "".join(blocks) == want


# ---------------------------------------------------------------- blocks

GAP_ROWS = (192, 1024)   # on a block edge at every block size tested
FIRST_FIX_ROW = 1100     # after the first block at every block size tested
WINDOW_ROWS = (100, 1200)  # a replay window across both gaps and the first fix


@pytest.fixture(scope="module")
def edge_streams():
    """A 25 s flight whose rows and fixes cross the block edges in every way
    the carried state has to survive: 1.5 s gaps starting rows 192 and 1,024,
    rows without a magnetometer, invalid fixes, a 6 s fix outage (stale
    fixes), and no fix before row 1,100, so the first block has none."""
    profile = FlightProfile(segments=(FlightSegment("turn", 25.0, yaw_rate_dps=5.0),), seed=11)
    _, imu, gps = generate_flight(profile, SensorNoiseModel(gps_dropout_prob=0.0))
    t, fix_t = imu.t.copy(), gps.t.copy()
    for row in GAP_ROWS:
        fix_t[fix_t >= t[row]] += 1.5
        t[row:] += 1.5
    has_mag = imu.has_mag.copy()
    has_mag[::7] = 0
    has_mag[300:400] = 0
    mag = np.where(has_mag[:, None] == 1, imu.mag, 0.0)
    imu = ImuArrays(t, imu.accel, imu.gyro, mag, has_mag)

    keep = (fix_t > t[FIRST_FIX_ROW]) & ~((fix_t > t[1300]) & (fix_t < t[1300] + 6.0))
    valid = gps.valid.copy()
    valid[::4] = False
    gps = GpsArrays(fix_t[keep], gps.lat[keep], gps.lon[keep], gps.speed[keep],
                    np.zeros(keep.sum()), np.full(keep.sum(), 100.0), valid[keep])
    return imu, gps


@pytest.fixture(scope="module")
def edge_files(edge_streams, tmp_path_factory):
    imu, gps = edge_streams
    d = tmp_path_factory.mktemp("edges")
    (d / "stream.bin").write_bytes(build_stream(imu, gps))
    write_recording(imu, gps, d / "flight.csv")
    return d


def cli_argv(mode, d):
    return ["--mode", mode, "--input", str(d / ("stream.bin" if mode == "live" else "flight.csv"))]


@pytest.mark.parametrize("rows", [1, 3, 64])
@pytest.mark.parametrize("gps_mode", ["live", "replay"])
def test_fused_arrays_do_not_depend_on_the_block_size(edge_streams, gps_mode, rows, monkeypatch):
    imu, gps = edge_streams
    cfg = FusionConfig(gps_mode=gps_mode)
    want = joined(fuse_blocks(imu, gps, cfg))
    monkeypatch.setattr(pipeline, "_FUSE_BLOCK_ROWS", rows)
    got = joined(fuse_blocks(imu, gps, cfg))
    assert len(got.t) == len(imu.t)
    for g, w in zip(got, want):
        assert_same_bits(g, w)


@pytest.mark.parametrize("rows", [1, 3, 64])
@pytest.mark.parametrize("mode", ["live", "replay", "window"])
def test_cli_output_does_not_depend_on_the_block_size(edge_streams, edge_files, mode, rows, capsys,
                                                     monkeypatch):
    """``window`` replays the rows ``WINDOW_ROWS`` of the recording."""
    monkeypatch.delenv("NAVFUSE_CONFIG", raising=False)
    t_ms = edge_streams[0].t_ms
    lo, hi = WINDOW_ROWS if mode == "window" else (0, len(t_ms))
    argv = cli_argv("replay" if mode == "window" else mode, edge_files)
    if mode == "window":
        argv += ["--from-ms", str(t_ms[lo]), "--to-ms", str(t_ms[hi])]
    assert cli.main(argv) == cli.EXIT_OK
    want = capsys.readouterr().out
    assert want.count("\n") == hi - lo + 1
    monkeypatch.setattr(pipeline, "_FUSE_BLOCK_ROWS", rows)
    assert cli.main(argv) == cli.EXIT_OK
    assert capsys.readouterr().out == want


@pytest.mark.parametrize("gps_mode", ["live", "replay"])
@settings(max_examples=100, deadline=None)
@given(lo=st.integers(0, 1600), hi=st.integers(0, 1600))
@example(lo=0, hi=0)
@example(lo=1600, hi=0)
@example(lo=WINDOW_ROWS[0], hi=WINDOW_ROWS[1])
def test_a_row_range_fuses_as_a_stream_of_its_rows(edge_streams, gps_mode, lo, hi):
    """``fuse_blocks`` of the rows ``lo:hi`` is the fusion of those rows as a
    stream of their own, bit for bit, where the two have the same sample
    rate; an empty range yields no block, as an empty stream does."""
    imu, gps = edge_streams
    cfg = FusionConfig(gps_mode=gps_mode)
    window = list(fuse_blocks(imu, gps, cfg, slice(lo, hi)))
    rows = imu._make(col[lo:hi] for col in imu)
    if len(rows.t) == 0:
        assert window == list(fuse_blocks(rows, gps, cfg)) == []
        return
    assume(estimate_sample_rate(rows.t) == estimate_sample_rate(imu.t))
    for got, want in zip(joined(window), joined(fuse_blocks(rows, gps, cfg)), strict=True):
        assert_same_bits(got, want)


class RecordingSink:
    """A text sink noting, for each write, how many blends had run by then."""

    def __init__(self, blends):
        self.blends = blends
        self.writes = []

    def write(self, text):
        self.writes.append((text, self.blends[0]))
        return len(text)

    def flush(self):
        pass


@pytest.mark.parametrize("mode", ["live", "replay"])
def test_first_rows_are_written_after_one_block(edge_files, mode, monkeypatch):
    monkeypatch.delenv("NAVFUSE_CONFIG", raising=False)
    blends = [0]  # position passes, one per fused block
    blend_position = NavEstimator.blend_position

    def counted(self, *args):
        blends[0] += 1
        return blend_position(self, *args)

    monkeypatch.setattr(NavEstimator, "blend_position", counted)
    sink = RecordingSink(blends)
    monkeypatch.setattr(sys, "stdout", sink)
    assert cli.main(cli_argv(mode, edge_files)) == cli.EXIT_OK
    (header, before), (first, during) = sink.writes[:2]
    assert header == pipeline.FUSED_HEADER + "\n" and before == 0
    assert first.count("\n") == pipeline._FIRST_BLOCK_ROWS and during == 1
    # a fused block is formatted, and written, at most _BLOCK_ROWS rows at a time
    assert max(text.count("\n") for text, _ in sink.writes) <= pipeline._BLOCK_ROWS
    assert blends[0] > 1


# few distinct values, so that draws repeat them, signed zeros among them
_cells = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 1e-300, -5e-324, 1e300]) | st.floats(allow_nan=False,
                                                                                       allow_infinity=False)


@given(st.lists(_cells, min_size=1, max_size=300))
def test_median_is_np_median(cells):
    x = np.array(cells, dtype=np.float64)
    with np.errstate(over="ignore"):  # two middle cells near the float64 limit sum to inf in both
        got, want = median(x), np.median(x)
    assert type(got) is float
    assert_same_bits(got, want)  # the sign of a zero too
    assert_same_bits(x, np.array(cells))  # the input is not reordered


def test_one_gap_warning_per_stream(caplog):
    n = 3500
    t = np.arange(n) / 100.0
    for row in (500, 1500, 2500):   # in the first, second and third block
        t[row:] += 2.0
    imu = ImuArrays(t, np.tile([0.0, 0.0, 9.80665], (n, 1)), np.zeros((n, 3)),
                    np.tile([0.2, 0.0, -0.4], (n, 1)), np.ones(n, dtype=np.uint8))
    no_fixes = GpsArrays(*(np.zeros(0) for _ in range(6)), np.zeros(0, dtype=bool))
    with caplog.at_level(logging.WARNING, logger="navfuse"):
        joined(fuse_blocks(imu, no_fixes))
    assert [r.getMessage() for r in caplog.records] == ["3 sample gap(s) over 1.0 s: gyro term skipped"]


@pytest.mark.parametrize("bad, error", [
    ("nan_last_row", "non-finite value"),
    ("t_order_last_block", "strictly increasing"),
    ("lat_last_fix", "latitude 91.0 outside"),
    ("t_order_last_fix", "fix timestamps must be strictly increasing"),
])
def test_fuse_blocks_refuses_before_the_first_block(edge_streams, bad, error):
    imu, gps = edge_streams
    if bad == "nan_last_row":
        accel = imu.accel.copy()
        accel[-1, 2] = math.nan
        imu = imu._replace(accel=accel)
    elif bad == "t_order_last_block":
        t = imu.t.copy()
        t[-1] = t[-3]
        imu = imu._replace(t=t)
    else:
        col = "lat" if bad == "lat_last_fix" else "t"
        values = getattr(gps, col).copy()
        values[-1] = 91.0 if col == "lat" else values[-3]
        gps = gps._replace(**{col: values, "valid": np.ones(len(values), dtype=bool)})
    with pytest.raises(ValueError, match=error):
        fuse_blocks(imu, gps)  # the call raises, before any block is asked for


@pytest.mark.parametrize("gps_mode", ["live", "replay"])
def test_gps_reference_is_resolved_per_block(std_noisy_flight, gps_mode, monkeypatch):
    """No GPS reference column of the whole stream: each block's comes from its own rows."""
    _, _, imu, gps = std_noisy_flight
    rows = []
    prepare = pipeline.prepare_gps_reference

    def spy(t, *args):
        rows.append(len(t))
        return prepare(t, *args)

    monkeypatch.setattr(pipeline, "prepare_gps_reference", spy)
    blocks = [len(out.t) for out in fuse_blocks(imu, gps, FusionConfig(gps_mode=gps_mode))]
    assert rows == blocks
    assert max(rows) <= pipeline._FUSE_BLOCK_ROWS < len(imu.t)


@pytest.fixture(scope="module")
def long_and_short_streams():
    """The seed-42 standard flight with its segments flown 4 times, and the first quarter of it."""
    profile = standard_profile(42)
    _, imu, gps = generate_flight(dataclasses.replace(profile, segments=profile.segments * 4), SensorNoiseModel())
    n = len(imu.t) // 4
    k = np.searchsorted(gps.t, imu.t[n - 1], side="right")
    return (imu, gps), (imu._make(c[:n] for c in imu), gps._make(c[:k] for c in gps))


def held_after_first_block(imu, gps, cfg):
    """The bytes that a ``fuse_blocks`` iterator holds once it has yielded its first block."""
    tracemalloc.start()
    try:
        blocks = fuse_blocks(imu, gps, cfg)
        next(blocks)
        return tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("gps_mode", ["live", "replay"])
def test_fusion_state_does_not_grow_with_the_stream(long_and_short_streams, gps_mode):
    """What the fusion keeps from block to block grows with the fixes, not
    the rows: 4 times the rows hold at most 0.25 MB more (one whole-stream
    float column of the long stream is 0.42 MB)."""
    cfg = FusionConfig(gps_mode=gps_mode)
    long, short = long_and_short_streams
    held_after_first_block(*short, cfg)  # so that no one-time allocation lands in either count
    assert held_after_first_block(*long, cfg) - held_after_first_block(*short, cfg) <= 0.25 * 2**20


# ---------------------------------------------------------------- the attitude worker

def spy_forks(monkeypatch) -> list[int]:
    """The pids of the children that ``os.fork`` starts from now on, as the parent sees them."""
    pids = []
    fork = os.fork

    def spy():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", spy)
    return pids


@contextlib.contextmanager
def deadline(seconds: float):
    """Raise ``TimeoutError`` out of the block once it has run ``seconds``."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


@needs_worker
@pytest.mark.parametrize("end", ["exhausted", "closed", "consumer_raised"])
def test_no_process_outlives_the_fusion(std_noisy_flight, end, monkeypatch):
    """The standard flight is five blocks, the last four fused by one forked
    worker, which is reaped however the fusion ends: iterated to its end,
    closed after two blocks, or dropped by a consumer that raises."""
    _, _, imu, gps = std_noisy_flight
    forks = spy_forks(monkeypatch)
    with deadline(60):
        if end == "exhausted":
            assert sum(len(out.t) for out in fuse_blocks(imu, gps)) == len(imu.t)
        elif end == "closed":
            blocks = fuse_blocks(imu, gps)
            next(blocks), next(blocks)
            blocks.close()
        else:
            with pytest.raises(KeyError):
                for k, _ in enumerate(fuse_blocks(imu, gps)):
                    if k == 2:
                        raise KeyError(k)
    assert len(forks) == 1
    assert_no_child_left()


@needs_worker
@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no CPU affinity mask to read")
@pytest.mark.parametrize("end", ["exhausted", "closed", "consumer_raised"])
def test_the_worker_pins_itself_to_the_upper_half_of_the_cpus(std_noisy_flight, end, monkeypatch):
    """Once two blocks are pulled the worker is alive, blocked on the full
    pipe, and may run on the upper half of the parent's CPUs only. The
    parent steps onto the lower half and takes its whole mask back at once,
    so its mask is the same while it fuses and however the fusion ends."""
    _, _, imu, gps = std_noisy_flight
    mask = os.sched_getaffinity(0)
    cpus = sorted(mask)
    lower, upper = set(cpus[:len(cpus) // 2]), set(cpus[len(cpus) // 2:])
    set_affinity, parent_sets = os.sched_setaffinity, []

    def spy(pid, cpus):
        parent_sets.append((pid, set(cpus)))  # the worker's calls land in its own copy of the list
        set_affinity(pid, cpus)

    monkeypatch.setattr(os, "sched_setaffinity", spy)
    forks = spy_forks(monkeypatch)
    masks = []
    with deadline(60):
        if end == "closed":
            blocks = fuse_blocks(imu, gps)
            next(blocks), next(blocks)
            masks.append((os.sched_getaffinity(forks[0]), os.sched_getaffinity(0)))
            blocks.close()
        else:
            with pytest.raises(KeyError) if end == "consumer_raised" else contextlib.nullcontext():
                for k, _ in enumerate(fuse_blocks(imu, gps)):
                    if k == 1:
                        masks.append((os.sched_getaffinity(forks[0]), os.sched_getaffinity(0)))
                        if end == "consumer_raised":
                            raise KeyError(k)
    assert masks == [(upper, mask)]
    assert masks[0][0].isdisjoint(lower)
    assert parent_sets == [(0, lower), (0, mask)]
    assert os.sched_getaffinity(0) == mask
    assert_no_child_left()


@needs_worker
@pytest.mark.parametrize("pin", ["refused", "missing"])
def test_a_worker_that_cannot_pin_itself_fuses_unpinned(std_noisy_flight, pin, monkeypatch):
    """The pin is best effort: where ``os.sched_setaffinity`` raises
    ``OSError`` (the worker inherits the patch) or does not exist, the worker
    runs unpinned and gives the bits of the fusion in process."""
    _, _, imu, gps = std_noisy_flight
    with monkeypatch.context() as m:
        m.setattr(pipeline, "_usable_cpus", lambda: 1)
        want = joined(fuse_blocks(imu, gps))

    def refuse(pid, cpus):
        raise PermissionError("not allowed to set the mask")

    if pin == "refused":
        monkeypatch.setattr(os, "sched_setaffinity", refuse, raising=False)
    else:
        monkeypatch.delattr(os, "sched_setaffinity", raising=False)
    forks = spy_forks(monkeypatch)
    with deadline(60):
        got = joined(fuse_blocks(imu, gps))
    for g, w in zip(got, want, strict=True):
        assert_same_bits(g, w)
    assert len(forks) == 1
    assert_no_child_left()


@needs_worker
@pytest.mark.parametrize("caller", ["fuse_blocks", "cli"])
def test_a_worker_that_dies_mid_stream_raises(std_noisy_flight, std_stream_file, caller, monkeypatch, tmp_path):
    """The third ``att.run`` ends its process with exit code 3: the first
    ran in the parent, so the worker fuses one block and dies in its second.
    The parent raises ``RuntimeError`` naming the worker, which it has
    reaped, and the CLI passes it on instead of calling it invalid input."""
    _, _, imu, gps = std_noisy_flight
    calls = [0]
    run = AttitudeEstimator.run

    def dying(self, block):
        calls[0] += 1
        if calls[0] == 3:
            os._exit(3)
        return run(self, block)

    monkeypatch.setattr(AttitudeEstimator, "run", dying)
    monkeypatch.delenv("NAVFUSE_CONFIG", raising=False)
    forks = spy_forks(monkeypatch)
    with deadline(60), pytest.raises(RuntimeError) as exc:
        if caller == "cli":
            cli.main(["--mode", "live", "--input", str(std_stream_file), "--output", str(tmp_path / "out.csv")])
        else:
            joined(fuse_blocks(imu, gps))
    assert str(exc.value) == f"the attitude worker (pid {forks[0]}) ended with exit code 3 after 1 of its 4 blocks"
    assert_no_child_left()


def test_a_failed_fork_fuses_in_process(edge_streams, monkeypatch):
    """Where no process can be forked, every block is fused in process, to the same bits."""
    imu, gps = edge_streams
    monkeypatch.setattr(pipeline, "_FUSE_BLOCK_ROWS", 512)  # four blocks: the worker's three
    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 2)
    want = joined(fuse_blocks(imu, gps))

    def refuse():
        raise BlockingIOError("no process to spare")

    monkeypatch.setattr(os, "fork", refuse)
    for got, w in zip(joined(fuse_blocks(imu, gps)), want, strict=True):
        assert_same_bits(got, w)


# ---------------------------------------------------------------- options

# A value other than the default for every field of FusionConfig.
NON_DEFAULT = dict(
    alpha=0.5, beta=0.5, gamma_rp=0.9, gamma_yaw=0.9, accel_lp_hz=2.0, gyro_hp_hz=0.5, cutoff_hz=3.0,
    declination_deg=5.0, lon_scale_correction=True, earth_radius_m=6_378_137.0, stale_after_s=1.0,
    gps_mode="replay",
)


@pytest.fixture(scope="module")
def outage_flight():
    """A 12 s turn whose fixes stop for 4 s, longer than NON_DEFAULT's
    stale_after_s and the default's."""
    profile = FlightProfile(segments=(FlightSegment("turn", 12.0, yaw_rate_dps=6.0),), seed=9)
    _, imu, gps = generate_flight(profile, SensorNoiseModel(gps_dropout_prob=0.0))
    kept = (gps.t <= 3.0) | (gps.t >= 7.0)
    return imu, gps._make(col[kept] for col in gps)


def test_non_default_names_every_option():
    assert NON_DEFAULT.keys() == {f.name for f in dataclasses.fields(FusionConfig)}


@pytest.mark.parametrize("name", sorted(NON_DEFAULT))
def test_every_option_changes_the_output(name, outage_flight):
    """An option that no estimator reads leaves the output as it was."""
    assert NON_DEFAULT[name] != getattr(FusionConfig(), name)
    imu, gps = outage_flight
    default = joined(fuse_blocks(imu, gps))
    changed = joined(fuse_blocks(imu, gps, FusionConfig(**{name: NON_DEFAULT[name]})))
    assert [k for k, a, b in zip(default._fields, default, changed) if not np.array_equal(a, b)] != []


@pytest.mark.parametrize("name, value, error", [
    ("gamma_rp", math.nan, "gamma_rp must be in [0, 1], got nan"),
    ("declination_deg", math.nan, "declination_deg must be finite, got nan"),
    ("declination_deg", -math.inf, "declination_deg must be finite, got -inf"),
    ("alpha", math.nan, "alpha must be in [0, 1], got nan"),
    ("earth_radius_m", math.nan, "earth radius must be positive and finite, got earth_radius_m=nan"),
    ("earth_radius_m", math.inf, "earth radius must be positive and finite, got earth_radius_m=inf"),
    ("earth_radius_m", 0.0, "earth radius must be positive and finite, got earth_radius_m=0.0"),
    ("stale_after_s", math.nan, "stale_after_s must be >= 0, got nan"),
    ("stale_after_s", -1.0, "stale_after_s must be >= 0, got -1.0"),
    ("gps_mode", "sim", "unknown GPS reference mode 'sim'"),
])
def test_config_refuses_an_option_that_would_void_the_output(name, value, error):
    """NaN output or no GPS correction at all: refused when the config is
    built, before any estimator or row."""
    with pytest.raises(ValueError) as exc:
        FusionConfig(**{name: value})
    assert str(exc.value) == error


def test_stale_after_inf_keeps_every_fix_fresh(outage_flight):
    """inf is a valid limit: the fix before the outage keeps correcting the
    rows that the default limit, 3 s, leaves to dead reckoning."""
    imu, gps = outage_flight
    default = joined(fuse_blocks(imu, gps))
    held = joined(fuse_blocks(imu, gps, FusionConfig(stale_after_s=math.inf)))
    late = (imu.t > 6.0) & (imu.t < 7.0)   # 3-4 s after the last fix before the outage
    assert np.isfinite(held.vel).all()
    assert (held.vel[late] != default.vel[late]).any(axis=1).all()
    np.testing.assert_array_equal(held.vel[imu.t <= 6.0], default.vel[imu.t <= 6.0])
