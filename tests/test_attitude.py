import math

import numpy as np
import pytest

from conftest import make_level_stream
from navfuse.attitude import (
    FLAG_GAP,
    AttitudeEstimator,
    ImuArrays,
    _heading_ref,
    _tilt_from_accel,
)
from navfuse.errors import TimestampOrderError
from navfuse.filters import FilterState, design_first_order_hp, design_first_order_lp
from navfuse.pipeline import FusionConfig
from reference import EulerAngles, Quaternion, step, wrap_pi

G = 9.80665


def one_row(est, t, accel=(0.0, 0.0, G), gyro=(0.0, 0.0, 0.0), mag=None):
    """Fuse one sample, without a magnetometer when ``mag`` is None."""
    return est.run(make_level_stream(n=1, accel=accel, gyro=gyro, mag=mag)._replace(t=np.array([float(t)])))


class TestTiltFromAccel:
    def test_level(self):
        roll, pitch, ok = _tilt_from_accel(*np.array([[0.0, 0.0, G]]).T)
        assert (roll.tolist(), pitch.tolist(), ok.tolist()) == ([0.0], [0.0], [True])

    def test_90deg_bank(self):
        roll, pitch, _ = _tilt_from_accel(*np.array([[0.0, G, 0.0]]).T)
        assert roll[0] == pytest.approx(math.pi / 2)
        assert pitch[0] == pytest.approx(0.0)

    def test_recovers_attitude_from_rotated_gravity(self):
        rng = np.random.default_rng(21)
        angles, readings = [], []
        for _ in range(100):
            e = EulerAngles(rng.uniform(-1.2, 1.2), rng.uniform(-1.2, 1.2), rng.uniform(-3, 3))
            q = Quaternion.from_euler(e).normalize()
            # a body at rest reads gravity brought into the body frame
            readings.append(q.conjugate().rotate_vector((0.0, 0.0, G)))
            angles.append((e.roll, e.pitch))
        roll, pitch, ok = _tilt_from_accel(*np.array(readings).T)
        assert ok.all()
        np.testing.assert_allclose(np.column_stack([roll, pitch]), angles, rtol=0, atol=1e-9)

    def test_freefall_unobservable(self):
        assert _tilt_from_accel(*np.array([[0.0, 0.0, 0.5]]).T)[2].tolist() == [False]


def heading(mx, my, mz, roll, pitch):
    """``_heading_ref`` of one row with a reading and no declination."""
    return _heading_ref(np.array([[mx, my, mz]], dtype=float), np.ones(1, dtype=np.uint8),
                        np.array([roll]), np.array([pitch]), 0.0)[0]


class TestHeadingFromMag:
    def test_level_north(self):
        assert heading(1, 0, 0, 0.0, 0.0) == pytest.approx(0.0)

    def test_level_east_convention(self):
        assert heading(0, -1, 0, 0.0, 0.0) == pytest.approx(math.pi / 2)

    def test_tilt_invariance(self):
        rng = np.random.default_rng(22)
        field = (0.28, 0.0, -0.12)
        for _ in range(100):
            yaw = rng.uniform(-math.pi, math.pi)
            roll = rng.uniform(-0.6, 0.6)
            pitch = rng.uniform(-0.6, 0.6)
            q = Quaternion.from_euler(EulerAngles(roll, pitch, yaw)).normalize()
            reading = q.conjugate().rotate_vector(field)
            got = heading(*reading, roll, pitch)
            assert wrap_pi(got - yaw) == pytest.approx(0.0, abs=1e-9)

    def test_thirty_degree_roll_matches_level(self):
        field = (0.3, 0.0, -0.1)
        yaw = 0.8
        level = heading(
            *Quaternion.from_euler(EulerAngles(0, 0, yaw)).normalize().conjugate().rotate_vector(field),
            0.0,
            0.0,
        )
        roll = math.radians(30)
        tilted = heading(
            *Quaternion.from_euler(EulerAngles(roll, 0, yaw)).normalize().conjugate().rotate_vector(field),
            roll,
            0.0,
        )
        assert tilted == pytest.approx(level, abs=1e-9)

    def test_vertical_field_unobservable(self):
        assert math.isnan(heading(0, 0, 1, 0.0, 0.0))


class TestAttitudeEstimator:
    def test_static_level_converges_to_identity(self):
        est = AttitudeEstimator(FusionConfig(), 60)
        w, x, y, z = est.run(make_level_stream(n=301)).q[-1]
        assert abs(w - 1) < 1e-3 and abs(x) < 1e-3 and abs(y) < 1e-3 and abs(z) < 1e-3

    def test_gyro_only_yaw_integration(self):
        # constant 0.1 rad/s yaw rate, no magnetometer, 10 s
        track = AttitudeEstimator(FusionConfig(), 60).run(make_level_stream(n=601, gyro=(0.0, 0.0, 0.1)))
        assert track.euler[-1, 2] == pytest.approx(1.0, rel=0.02)

    def test_yaw_bias_bounded_with_mag(self):
        n = 1801  # 30 s
        bias = 0.01
        est = AttitudeEstimator(FusionConfig(), 60)
        gains = est.cfg
        yaw = est.run(make_level_stream(n=n, gyro=(0.0, 0.0, bias), mag=(0.28, 0.0, -0.12))).euler[:, 2]
        assert np.abs(yaw).max() < 0.05
        # steady-state bound gamma*b*dt/(1-gamma) plus slack for the transient
        bound = gains.gamma_yaw * bias * (1 / 60.0) / (1.0 - gains.gamma_yaw)
        assert abs(yaw[-1]) <= bound * 1.05

    def test_yaw_bias_grows_without_mag(self):
        bias = 0.01
        track = AttitudeEstimator(FusionConfig(), 60).run(make_level_stream(n=1801, gyro=(0.0, 0.0, bias)))
        assert track.euler[-1, 2] == pytest.approx(bias * 30.0, rel=0.02)

    def test_unit_quaternion_maintained(self, std_noisy_arrays):
        _, t, acc, gyr, mag, has_mag, _ = std_noisy_arrays
        track = AttitudeEstimator(FusionConfig(), 60).run(ImuArrays(t, acc, gyr, mag, has_mag))
        norms = np.linalg.norm(track.q, axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-6)

    def test_quaternion_matches_euler(self, std_noisy_arrays):
        _, t, acc, gyr, mag, has_mag, _ = std_noisy_arrays
        track = AttitudeEstimator(FusionConfig(), 60).run(ImuArrays(t, acc, gyr, mag, has_mag))
        for i in range(0, len(t), 997):
            e = Quaternion(*track.q[i]).to_euler()
            np.testing.assert_allclose(e, track.euler[i], atol=1e-9)

    def test_gain_zero_tracks_filtered_accel_exactly(self):
        rng = np.random.default_rng(24)
        n = 400
        t = np.arange(n) / 60.0
        acc = rng.normal((0, 0, G), 0.5, (n, 3))
        gyr = rng.normal(0, 0.1, (n, 3))
        est = AttitudeEstimator(FusionConfig(gamma_rp=0.0, gamma_yaw=0.98), 60)
        track = est.run(ImuArrays(t, acc, gyr, np.zeros((n, 3)), np.zeros(n, dtype=np.uint8)))
        # reproduce the accel pre-filter independently
        coeffs = design_first_order_lp(5.0, 60.0)
        filts = [FilterState(coeffs) for _ in range(3)]
        for f, x in zip(filts, acc[0]):
            f.prime(x)
        roll, pitch, _ = _tilt_from_accel(*np.array([[step(f, x) for f, x in zip(filts, row)] for row in acc]).T)
        for i in range(1, n):
            assert track.euler[i, 0] == wrap_pi(roll[i])
            assert track.euler[i, 1] == wrap_pi(pitch[i])

    def test_determinism(self, std_noisy_arrays):
        _, t, acc, gyr, mag, has_mag, _ = std_noisy_arrays
        a = AttitudeEstimator(FusionConfig(), 60).run(ImuArrays(t, acc, gyr, mag, has_mag))
        b = AttitudeEstimator(FusionConfig(), 60).run(ImuArrays(t, acc, gyr, mag, has_mag))
        np.testing.assert_array_equal(a.q, b.q)
        np.testing.assert_array_equal(a.euler, b.euler)

    def test_non_monotonic_timestamp_rejected(self):
        est = AttitudeEstimator(FusionConfig(), 60)
        one_row(est, 1.0)
        with pytest.raises(TimestampOrderError):
            one_row(est, 1.0)
        with pytest.raises(TimestampOrderError):
            one_row(est, 0.5)

    def test_gap_skips_gyro_term(self):
        est = AttitudeEstimator(FusionConfig(), 60)
        one_row(est, 0.0)
        # 2 s gap with a furious yaw rate: the rate must be ignored and,
        # with no magnetometer, yaw held
        track = one_row(est, 2.0, gyro=(0.0, 0.0, 5.0))
        assert track.flags[0] & FLAG_GAP
        assert track.euler[0, 2] == 0.0

    def test_gap_uses_reference_when_available(self):
        est = AttitudeEstimator(FusionConfig(), 60)
        level = (0.0, 0.0, G)
        tilted = (0.0, G * math.sin(0.3), G * math.cos(0.3))
        one_row(est, 0.0, accel=level, mag=(0.3, 0, -0.1))
        # 5 s gap with a furious roll rate: the rate must be ignored and the
        # (pre-filtered) accel tilt adopted as-is
        roll = one_row(est, 5.0, accel=tilted, gyro=(2.0, 2.0, 2.0), mag=(0.3, 0, -0.1)).euler[0, 0]
        coeffs = design_first_order_lp(5.0, 60.0)
        filts = [FilterState(coeffs) for _ in range(3)]
        for f, x in zip(filts, level):
            f.prime(x)
            step(f, x)
        expected_roll = _tilt_from_accel(*np.array([[step(f, x)] for f, x in zip(filts, tilted)]))[0][0]
        assert roll == pytest.approx(expected_roll, abs=1e-12)
        assert 0.0 < roll < 0.3

    def test_unobservable_tilt_falls_back_to_gyro(self):
        # near-freefall stream: accel reference unusable, gyro keeps integrating
        est = AttitudeEstimator(FusionConfig(), 60)
        one_row(est, 0.0, accel=(0, 0, 0.01))
        roll = one_row(est, 1 / 60, accel=(0, 0, 0.01), gyro=(0.6, 0, 0)).euler[0, 0]
        hp = FilterState(design_first_order_hp(0.1, 60.0))
        hp.prime(0.0)
        step(hp, 0.0)
        expected = step(hp, 0.6) / 60.0
        assert roll == pytest.approx(expected, abs=1e-15)
        assert roll > 0.5 / 60.0

    def test_declination_offset(self):
        est = AttitudeEstimator(FusionConfig(declination_deg=math.degrees(0.1)), 60)
        assert one_row(est, 0.0, mag=(0.3, 0, 0)).euler[0, 2] == pytest.approx(0.1, abs=1e-12)
