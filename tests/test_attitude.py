import math

import numpy as np
import pytest

from conftest import make_level_stream
from navfuse.attitude import (
    FLAG_GAP,
    AttitudeEstimator,
    FusionGains,
    accel_to_roll_pitch,
    complementary_angle,
    mag_to_heading,
)
from navfuse.errors import (
    TimestampOrderError,
    UnobservableHeadingError,
    UnobservableTiltError,
)
from navfuse.filters import FilterState, design_first_order_hp, design_first_order_lp
from navfuse.quat import EulerAngles, Quaternion, wrap_pi

G = 9.80665


def one_row(est, t, accel=(0.0, 0.0, G), gyro=(0.0, 0.0, 0.0), mag=None):
    """Fuse one sample, without a magnetometer when ``mag`` is None."""
    return est.run([t], [accel], [gyro], [mag or (0.0, 0.0, 0.0)], [mag is not None])


class TestAccelToRollPitch:
    def test_level(self):
        assert accel_to_roll_pitch((0, 0, G)) == (0.0, 0.0)

    def test_90deg_bank(self):
        roll, pitch = accel_to_roll_pitch((0, G, 0))
        assert roll == pytest.approx(math.pi / 2)
        assert pitch == pytest.approx(0.0)

    def test_recovers_attitude_from_rotated_gravity(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            e = EulerAngles(rng.uniform(-1.2, 1.2), rng.uniform(-1.2, 1.2), rng.uniform(-3, 3))
            q = Quaternion.from_euler(e).normalize()
            # a body at rest reads gravity brought into the body frame
            reading = q.conjugate().rotate_vector((0.0, 0.0, G))
            roll, pitch = accel_to_roll_pitch(reading)
            assert roll == pytest.approx(e.roll, abs=1e-9)
            assert pitch == pytest.approx(e.pitch, abs=1e-9)

    def test_freefall_unobservable(self):
        with pytest.raises(UnobservableTiltError):
            accel_to_roll_pitch((0.0, 0.0, 0.5))


class TestMagToHeading:
    def test_level_north(self):
        assert mag_to_heading((1, 0, 0), 0.0, 0.0) == pytest.approx(0.0)

    def test_level_east_convention(self):
        assert mag_to_heading((0, -1, 0), 0.0, 0.0) == pytest.approx(math.pi / 2)

    def test_tilt_invariance(self):
        rng = np.random.default_rng(22)
        field = (0.28, 0.0, -0.12)
        for _ in range(100):
            yaw = rng.uniform(-math.pi, math.pi)
            roll = rng.uniform(-0.6, 0.6)
            pitch = rng.uniform(-0.6, 0.6)
            q = Quaternion.from_euler(EulerAngles(roll, pitch, yaw)).normalize()
            reading = q.conjugate().rotate_vector(field)
            got = mag_to_heading(reading, roll, pitch)
            assert wrap_pi(got - yaw) == pytest.approx(0.0, abs=1e-9)

    def test_thirty_degree_roll_matches_level(self):
        field = (0.3, 0.0, -0.1)
        yaw = 0.8
        level = mag_to_heading(
            Quaternion.from_euler(EulerAngles(0, 0, yaw)).normalize().conjugate().rotate_vector(field),
            0.0,
            0.0,
        )
        roll = math.radians(30)
        tilted = mag_to_heading(
            Quaternion.from_euler(EulerAngles(roll, 0, yaw)).normalize().conjugate().rotate_vector(field),
            roll,
            0.0,
        )
        assert tilted == pytest.approx(level, abs=1e-9)

    def test_vertical_field_unobservable(self):
        with pytest.raises(UnobservableHeadingError):
            mag_to_heading((0, 0, 1), 0.0, 0.0)


class TestComplementaryAngle:
    def test_gain_one_pure_integration(self):
        assert complementary_angle(0.5, 0.2, 0.1, -3.0, 1.0) == pytest.approx(0.52)

    def test_gain_zero_reference_exactly(self):
        assert complementary_angle(0.5, 0.2, 0.1, -1.234, 0.0) == -1.234

    def test_wrap_through_pi(self):
        out = complementary_angle(3.1, 0.0, 0.1, -3.1, 0.5)
        assert abs(out) > 3.0  # near +-pi, not near 0

    def test_blend_formula(self):
        out = complementary_angle(1.0, 0.5, 0.2, 1.5, 0.9)
        assert out == pytest.approx(0.9 * 1.1 + 0.1 * 1.5, abs=1e-12)

    def test_result_in_range(self):
        rng = np.random.default_rng(23)
        for _ in range(500):
            out = complementary_angle(
                rng.uniform(-10, 10), rng.uniform(-5, 5), rng.uniform(0.001, 2),
                rng.uniform(-10, 10), rng.uniform(0, 1),
            )
            assert -math.pi < out <= math.pi

    def test_dt_must_be_positive(self):
        with pytest.raises(ValueError):
            complementary_angle(0, 0, 0.0, 0, 0.5)


class TestAttitudeEstimator:
    def test_static_level_converges_to_identity(self):
        est = AttitudeEstimator(sample_rate_hz=60)
        w, x, y, z = est.run(*make_level_stream(n=301)).q[-1]
        assert abs(w - 1) < 1e-3 and abs(x) < 1e-3 and abs(y) < 1e-3 and abs(z) < 1e-3

    def test_gyro_only_yaw_integration(self):
        # constant 0.1 rad/s yaw rate, no magnetometer, 10 s
        track = AttitudeEstimator(sample_rate_hz=60).run(*make_level_stream(n=601, gyro=(0.0, 0.0, 0.1)))
        assert track.euler[-1, 2] == pytest.approx(1.0, rel=0.02)

    def test_yaw_bias_bounded_with_mag(self):
        n = 1801  # 30 s
        bias = 0.01
        est = AttitudeEstimator(sample_rate_hz=60)
        gains = est.gains
        yaw = est.run(*make_level_stream(n=n, gyro=(0.0, 0.0, bias), mag=(0.28, 0.0, -0.12))).euler[:, 2]
        assert np.abs(yaw).max() < 0.05
        # steady-state bound gamma*b*dt/(1-gamma) plus slack for the transient
        bound = gains.gamma_yaw * bias * (1 / 60.0) / (1.0 - gains.gamma_yaw)
        assert abs(yaw[-1]) <= bound * 1.05

    def test_yaw_bias_grows_without_mag(self):
        bias = 0.01
        track = AttitudeEstimator(sample_rate_hz=60).run(*make_level_stream(n=1801, gyro=(0.0, 0.0, bias)))
        assert track.euler[-1, 2] == pytest.approx(bias * 30.0, rel=0.02)

    def test_unit_quaternion_maintained(self, std_noisy_arrays):
        _, t, acc, gyr, mag, has_mag, _ = std_noisy_arrays
        track = AttitudeEstimator(sample_rate_hz=60).run(t, acc, gyr, mag, has_mag)
        norms = np.linalg.norm(track.q, axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-6)

    def test_quaternion_matches_euler(self, std_noisy_arrays):
        _, t, acc, gyr, mag, has_mag, _ = std_noisy_arrays
        track = AttitudeEstimator(sample_rate_hz=60).run(t, acc, gyr, mag, has_mag)
        for i in range(0, len(t), 997):
            e = Quaternion(*track.q[i]).to_euler()
            np.testing.assert_allclose(e, track.euler[i], atol=1e-9)

    def test_gain_zero_tracks_filtered_accel_exactly(self):
        rng = np.random.default_rng(24)
        n = 400
        t = np.arange(n) / 60.0
        acc = rng.normal((0, 0, G), 0.5, (n, 3))
        gyr = rng.normal(0, 0.1, (n, 3))
        est = AttitudeEstimator(gains=FusionGains(gamma_rp=0.0, gamma_yaw=0.98), sample_rate_hz=60)
        track = est.run(t, acc, gyr)
        # reproduce the accel pre-filter independently
        coeffs = design_first_order_lp(5.0, 60.0)
        filts = [FilterState(coeffs) for _ in range(3)]
        for f, x in zip(filts, acc[0]):
            f.prime(x)
        for i in range(n):
            fa = [f.step(x) for f, x in zip(filts, acc[i])]
            roll, pitch = accel_to_roll_pitch(fa)
            if i == 0:
                continue
            assert track.euler[i, 0] == wrap_pi(roll)
            assert track.euler[i, 1] == wrap_pi(pitch)

    def test_determinism(self, std_noisy_arrays):
        _, t, acc, gyr, mag, has_mag, _ = std_noisy_arrays
        a = AttitudeEstimator(sample_rate_hz=60).run(t, acc, gyr, mag, has_mag)
        b = AttitudeEstimator(sample_rate_hz=60).run(t, acc, gyr, mag, has_mag)
        np.testing.assert_array_equal(a.q, b.q)
        np.testing.assert_array_equal(a.euler, b.euler)

    def test_non_monotonic_timestamp_rejected(self):
        est = AttitudeEstimator()
        one_row(est, 1.0)
        with pytest.raises(TimestampOrderError):
            one_row(est, 1.0)
        with pytest.raises(TimestampOrderError):
            one_row(est, 0.5)

    def test_gap_skips_gyro_term(self):
        est = AttitudeEstimator(sample_rate_hz=60)
        one_row(est, 0.0)
        # 2 s gap with a furious yaw rate: the rate must be ignored and,
        # with no magnetometer, yaw held
        track = est.run(
            np.array([2.0]), np.array([[0, 0, G]]), np.array([[0.0, 0.0, 5.0]])
        )
        assert track.flags[0] & FLAG_GAP
        assert track.euler[0, 2] == 0.0

    def test_gap_uses_reference_when_available(self):
        est = AttitudeEstimator(sample_rate_hz=60)
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
            f.step(x)
        expected_roll, _ = accel_to_roll_pitch([f.step(x) for f, x in zip(filts, tilted)])
        assert roll == pytest.approx(expected_roll, abs=1e-12)
        assert 0.0 < roll < 0.3

    def test_unobservable_tilt_falls_back_to_gyro(self):
        # near-freefall stream: accel reference unusable, gyro keeps integrating
        est = AttitudeEstimator(sample_rate_hz=60)
        one_row(est, 0.0, accel=(0, 0, 0.01))
        roll = one_row(est, 1 / 60, accel=(0, 0, 0.01), gyro=(0.6, 0, 0)).euler[0, 0]
        hp = FilterState(design_first_order_hp(0.1, 60.0))
        hp.prime(0.0)
        hp.step(0.0)
        expected = hp.step(0.6) / 60.0
        assert roll == pytest.approx(expected, abs=1e-15)
        assert roll > 0.5 / 60.0

    def test_hard_iron_compensation(self):
        offset = (0.05, -0.02, 0.03)
        field = (0.28, 0.0, -0.12)
        reading = tuple(f + o for f, o in zip(field, offset))
        est = AttitudeEstimator(sample_rate_hz=60, hard_iron=offset)
        assert one_row(est, 0.0, mag=reading).euler[0, 2] == pytest.approx(0.0, abs=1e-9)

    def test_declination_offset(self):
        est = AttitudeEstimator(sample_rate_hz=60, declination_rad=0.1)
        assert one_row(est, 0.0, mag=(0.3, 0, 0)).euler[0, 2] == pytest.approx(0.1, abs=1e-12)
