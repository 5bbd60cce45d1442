import logging
import math
import sys

import numpy as np
import pytest
from conftest import assert_same_bits, build_stream

from navfuse import cli, pipeline
from navfuse.attitude import ImuArrays
from navfuse.flightsim import FlightProfile, FlightSegment, SensorNoiseModel, generate_flight
from navfuse.navigation import GpsArrays, NavEstimator
from navfuse.pipeline import FusionConfig, fuse_blocks, fuse_streams, fused_rows
from navfuse.recording import write_recording


def test_fused_rows_match_per_cell_formatting():
    # 40 s at 60 Hz: two full 1,024-row blocks and a short last one
    profile = FlightProfile(segments=(FlightSegment("turn", 40.0, yaw_rate_dps=4.0),), seed=3)
    _, imu, gps = generate_flight(profile, SensorNoiseModel())
    out = fuse_streams(imu, gps)
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


# ---------------------------------------------------------------- blocks

GAP_ROWS = (192, 1024)   # on a block edge at every block size tested
FIRST_FIX_ROW = 1100     # after the first block at every block size tested


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
    want = fuse_streams(imu, gps, cfg)
    monkeypatch.setattr(pipeline, "_BLOCK_ROWS", rows)
    got = fuse_streams(imu, gps, cfg)
    assert len(got.t) == len(imu.t)
    for g, w in zip(got, want):
        assert_same_bits(g, w)


@pytest.mark.parametrize("rows", [1, 3, 64])
@pytest.mark.parametrize("mode", ["live", "replay"])
def test_cli_output_does_not_depend_on_the_block_size(edge_streams, edge_files, mode, rows, capsys,
                                                     monkeypatch):
    monkeypatch.delenv("NAVFUSE_CONFIG", raising=False)
    assert cli.main(cli_argv(mode, edge_files)) == cli.EXIT_OK
    want = capsys.readouterr().out
    assert want.count("\n") == len(edge_streams[0].t) + 1
    monkeypatch.setattr(pipeline, "_BLOCK_ROWS", rows)
    assert cli.main(cli_argv(mode, edge_files)) == cli.EXIT_OK
    assert capsys.readouterr().out == want


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
    blends = [0]
    blend = NavEstimator.blend

    def counted(self, *args):
        blends[0] += 1
        return blend(self, *args)

    monkeypatch.setattr(NavEstimator, "blend", counted)
    sink = RecordingSink(blends)
    monkeypatch.setattr(sys, "stdout", sink)
    assert cli.main(cli_argv(mode, edge_files)) == cli.EXIT_OK
    (header, before), (first, during) = sink.writes[:2]
    assert header == pipeline.FUSED_HEADER + "\n" and before == 0
    assert first.count("\n") == pipeline._BLOCK_ROWS and during == 1
    assert blends[0] == len(sink.writes) - 1 > 1


def test_one_gap_warning_per_stream(caplog):
    n = 3500
    t = np.arange(n) / 100.0
    for row in (500, 1500, 2500):   # in the first, second and third block
        t[row:] += 2.0
    imu = ImuArrays(t, np.tile([0.0, 0.0, 9.80665], (n, 1)), np.zeros((n, 3)),
                    np.tile([0.2, 0.0, -0.4], (n, 1)), np.ones(n, dtype=np.uint8))
    no_fixes = GpsArrays(*(np.zeros(0) for _ in range(6)), np.zeros(0, dtype=bool))
    with caplog.at_level(logging.WARNING, logger="navfuse"):
        fuse_streams(imu, no_fixes)
    assert [r.getMessage() for r in caplog.records] == ["3 sample gap(s) over 1.0 s: gyro term skipped"]


@pytest.mark.parametrize("bad, error", [
    ("alpha", "alpha must be in"),
    ("nan_last_row", "non-finite value"),
    ("t_order_last_block", "strictly increasing"),
])
def test_fuse_blocks_refuses_before_the_first_block(edge_streams, bad, error):
    imu, gps = edge_streams
    cfg = FusionConfig()
    if bad == "alpha":
        cfg = FusionConfig(alpha=1.5)
    elif bad == "nan_last_row":
        accel = imu.accel.copy()
        accel[-1, 2] = math.nan
        imu = imu._replace(accel=accel)
    else:
        t = imu.t.copy()
        t[-1] = t[-3]
        imu = imu._replace(t=t)
    with pytest.raises(ValueError, match=error):
        fuse_blocks(imu, gps, cfg)  # the call raises, before any block is asked for
