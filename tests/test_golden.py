"""Golden outputs: the sha256 of every file the CLI writes for the seed-42
standard flight, each mode run in-process through ``cli.main``. Beyond the
defaults, ``replay`` runs with the longitude scale correction and with
gains of exactly 1 and 0, and ``live`` fuses the recording framed by the
tests' encoder, so the kernel branches these select are pinned too.

The fusion loops exist once, so these digests are what guards them: an edit
that changes a single output byte (the sign of a zero included, which prints
as ``-0.000000000``) fails here. The CSVs print 9 decimals, which hide a
last-bit change such as a reassociated product, so the float64 bits of the
fused arrays behind the replay CSV are pinned too, and so are the float64
bits of the simulated truth behind the truth CSV. Re-pin only for a
deliberate change of output, and say why in CHANGES.md.
"""

import dataclasses
import hashlib

import numpy as np
import pytest
from conftest import build_stream, joined

from navfuse import cli
from navfuse.flightsim import _generate_truth, standard_profile
from navfuse.pipeline import FusionConfig, fuse_blocks
from navfuse.recording import read_recording

GOLDEN = {
    "flight.csv": "f352cd05e530c359074c4ad68c2c92b37c72df8cdec060c98aea3fbd7db6cb33",
    "truth.csv": "cb1714e5010314a09b9d926a9e7e8f9208675798d411208986a78b6fe4c94d4a",
    "replay.csv": "4271c9bdbdbde05a0a050206f05bb69cb312e22067bdecb2ce6a116970fd91db",
    "sweep.csv": "8fbdc063fa32ceeb77473a2fb1ea470f7ae1446ec513a92c1fcfa2bf0a4f3e22",
    "filter-compare.csv": "362e02e6e90285e3dd163abb7d7002d333a105a72c4afd372d711f67c04c329e",
    "replay-lon-scale.csv": "2365f16b3f12e0ec9ad333fe9440a77f8ca0d5072456c46459c217f2f2f6c779",
    "replay-gains-1-0.csv": "bbe57977bd4e970267eef0fbf2ebccd862ec9b3c53eb5c235b3b704717bdb214",
    "live.csv": "b1cf2118a1b8715aed00b2bec8749f99a568a586e0aee2ff87df680d2eb1cdad",
}
FUSED_ARRAY_BITS = "db8d5d0cf6ab42093209f3e139bec7f7de97cd113d4a8f41d13854afae979e26"
TRUTH_ARRAY_BITS = "69e6056cb8a96efb59d5869a4a67e4de7544fc2fb69d82df6bef682ab7ccb114"


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("golden")
    flight = str(d / "flight.csv")
    runs = (
        ["--mode", "simulate", "--seed", "42", "--output", flight, "--truth-out", str(d / "truth.csv")],
        ["--mode", "replay", "--input", flight, "--output", str(d / "replay.csv")],
        ["--mode", "sweep", "--seed", "42", "--output", str(d / "sweep.csv")],
        ["--mode", "filter-compare", "--input", flight, "--output", str(d / "filter-compare.csv")],
    )
    stream = str(d / "stream.bin")
    more = (
        ["--mode", "replay", "--input", flight, "--lon-scale-correction", "--output", str(d / "replay-lon-scale.csv")],
        ["--mode", "replay", "--input", flight, "--gamma-rp", "1", "--gamma-yaw", "0",
         "--output", str(d / "replay-gains-1-0.csv")],
        ["--mode", "live", "--input", stream, "--output", str(d / "live.csv")],
    )
    with pytest.MonkeyPatch.context() as mp:
        mp.delenv("NAVFUSE_CONFIG", raising=False)  # built-in defaults only
        for argv in runs:
            assert cli.main(argv) == cli.EXIT_OK
        rec = read_recording(flight)
        (d / "stream.bin").write_bytes(build_stream(rec.imu, rec.gps))
        for argv in more:
            assert cli.main(argv) == cli.EXIT_OK
    return d


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_digest(outputs, name):
    assert hashlib.sha256((outputs / name).read_bytes()).hexdigest() == GOLDEN[name]


def test_fused_array_bits(outputs):
    rec = read_recording(outputs / "flight.csv")
    out = joined(fuse_blocks(rec.imu, rec.gps, FusionConfig(gps_mode="replay")))
    h = hashlib.sha256()
    for a in (out.euler, out.q, out.vel, out.lat, out.lon, out.att_flags):
        h.update(np.ascontiguousarray(a).tobytes())
    assert h.hexdigest() == FUSED_ARRAY_BITS


def test_truth_array_bits():
    truth, t_ms, a_world, rates = _generate_truth(standard_profile(42))
    h = hashlib.sha256()
    for a in [getattr(truth, f.name) for f in dataclasses.fields(truth)] + [t_ms, a_world, rates]:
        h.update(np.ascontiguousarray(a).tobytes())
    assert h.hexdigest() == TRUTH_ARRAY_BITS
