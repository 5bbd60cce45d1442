"""The per-sample fusion loops: flag bytes, state carried across calls, the
biquad runner against scipy, and the single-implementation backend shims of
the CLI and the package."""

import numpy as np
import pytest
from scipy import signal

import navfuse
from navfuse.attitude import FLAG_GAP, FLAG_NO_HEADING_REF, FLAG_NO_TILT_REF, AttitudeEstimator
from navfuse.cli import main
from navfuse.filters import FilterState, biquad_run, design_butterworth2_lp
from navfuse.flightsim import FlightProfile, FlightSegment, SensorNoiseModel, generate_flight
from navfuse.recording import write_recording


def random_stream(seed, n=3000):
    rng = np.random.default_rng(seed)
    t = np.cumsum(rng.uniform(0.012, 0.021, n))
    acc = rng.normal((0, 0, 9.8), 0.8, (n, 3))
    gyr = rng.normal(0, 0.4, (n, 3))
    mag = rng.normal((0.28, 0, -0.12), 0.02, (n, 3))
    has_mag = (rng.random(n) < 0.85).astype(np.uint8)
    return t, acc, gyr, mag, has_mag


def test_gap_and_flag_paths():
    # a 2.48 s gap, samples without mag, and a near-zero accel reading that the
    # 5 Hz low-pass keeps above the tilt threshold
    t = np.array([0.0, 0.016, 2.5, 2.6, 2.7])
    acc = np.array([[0, 0, 9.8], [0, 0, 9.8], [0, 0, 0.01], [0, 1, 9.7], [0, 0, 9.8]])
    gyr = np.full((5, 3), 0.3)
    mag = np.tile([0.3, 0.0, -0.1], (5, 1))
    has_mag = np.array([1, 0, 1, 0, 1], dtype=np.uint8)
    track = AttitudeEstimator().run(t, acc, gyr, mag, has_mag)
    assert track.flags.dtype == np.uint8
    assert track.flags.tolist() == [0, 0, FLAG_GAP, 0, 0]


def test_unobservable_reference_flags():
    # zero accel (filters primed at zero, so no tilt reference on the first two
    # samples) and a mag reading with no horizontal component
    t = np.array([0.0, 0.016, 0.033, 0.05])
    acc = np.array([[0, 0, 0.0], [0, 0, 0.0], [0, 0, 9.8], [0, 0, 9.8]])
    gyr = np.full((4, 3), 0.3)
    mag = np.array([[0.0, 0.0, 0.0], [0.3, 0.0, -0.1], [0.0, 0.0, -0.4], [0.3, 0.0, -0.1]])
    track = AttitudeEstimator().run(t, acc, gyr, mag, np.ones(4, dtype=np.uint8))
    both = FLAG_NO_TILT_REF | FLAG_NO_HEADING_REF
    assert track.flags.tolist() == [both, FLAG_NO_TILT_REF, FLAG_NO_HEADING_REF, 0]
    # no tilt reference: roll and pitch start level and integrate the
    # high-passed rates, which are exactly zero for a constant primed input
    assert track.euler[:2, :2].tolist() == [[0.0, 0.0], [0.0, 0.0]]


class TestChunkedEquivalence:
    """State carried across calls must match a single whole-stream call."""

    def test_attitude_chunks(self):
        t, acc, gyr, mag, has_mag = random_stream(7, n=500)
        whole = AttitudeEstimator().run(t, acc, gyr, mag, has_mag)
        est = AttitudeEstimator()
        parts = []
        for lo, hi in ((0, 100), (100, 101), (101, 500)):
            parts.append(est.run(t[lo:hi], acc[lo:hi], gyr[lo:hi], mag[lo:hi], has_mag[lo:hi]))
        stitched = np.vstack([p.euler for p in parts])
        np.testing.assert_array_equal(whole.euler, stitched)


def test_biquad_run_matches_filter_state_bit_for_bit():
    c = design_butterworth2_lp(7.0, 200.0)
    x = np.random.default_rng(6).normal(size=4000)
    y, s1, s2 = biquad_run(c.b0, c.b1, c.b2, c.a1, c.a2, 0.1, -0.2, x)
    ref = FilterState(c, 0.1, -0.2)
    np.testing.assert_array_equal(y, [ref.step(xi) for xi in x.tolist()])
    assert (s1, s2) == (ref.s1, ref.s2)


def test_biquad_matches_scipy_lfilter():
    rng = np.random.default_rng(8)
    c = design_butterworth2_lp(10.0, 1000.0)
    x = rng.normal(size=2000)
    y, _, _ = biquad_run(c.b0, c.b1, c.b2, c.a1, c.a2, 0.0, 0.0, x)
    ref = signal.lfilter([c.b0, c.b1, c.b2], [1.0, c.a1, c.a2], x)
    np.testing.assert_allclose(y, ref, atol=1e-12)


@pytest.fixture(scope="module")
def recording(tmp_path_factory):
    profile = FlightProfile(segments=(FlightSegment("straight", 8.0),), seed=5)
    _, imu, fixes = generate_flight(profile, SensorNoiseModel())
    path = tmp_path_factory.mktemp("rec") / "flight.csv"
    write_recording(imu, fixes, path, {})
    return path


def test_backend_selection(recording, capsys):
    """``--backend`` is accepted for compatibility; every value runs the same loops."""
    assert navfuse.available_backends() == ("python",)
    outputs = []
    for extra in ([], ["--backend", "auto"], ["--backend", "python"]):
        assert main(["--mode", "replay", "--input", str(recording), *extra]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0].count("\n") > 100
    assert outputs[1] == outputs[0]
    assert outputs[2] == outputs[0]


def test_backend_compiled_rejected(recording, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--mode", "replay", "--input", str(recording), "--backend", "compiled"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "invalid choice" in err
    assert "Traceback" not in err
