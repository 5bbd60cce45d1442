import math

import numpy as np
import pytest

from navfuse.attitude import GRAVITY_MPS2 as G
from navfuse.attitude import AttitudeEstimator, accel_to_roll_pitch
from navfuse.filters import design_chebyshev1_2_lp
from navfuse.flightsim import (
    ZERO_NOISE,
    FlightProfile,
    FlightSegment,
    SensorNoiseModel,
    generate_flight,
    noise_from_dict,
    profile_from_dict,
    rms_error,
    sample_and_hold_track,
    square_grid,
    standard_profile,
    sweep_weights,
)
from navfuse.navigation import BlendWeights, NavEstimator

M_PER_DEG = math.pi * 6_371_000.0 / 180.0


def level_profile(duration=30.0, seed=1):
    return FlightProfile(segments=(FlightSegment("straight", duration),), seed=seed)


class TestGenerateFlight:
    def test_zero_noise_level_reads_pure_gravity(self):
        _, imu, _ = generate_flight(level_profile(), ZERO_NOISE)
        assert (imu.accel[:100] == (0.0, 0.0, G)).all()
        assert (imu.gyro[:100] == (0.0, 0.0, 0.0)).all()

    def test_same_seed_bit_identical(self):
        a = generate_flight(standard_profile(7), SensorNoiseModel())
        b = generate_flight(standard_profile(7), SensorNoiseModel())
        for col_a, col_b in zip(a[1], b[1]):
            np.testing.assert_array_equal(col_a, col_b)
        assert a[2] == b[2]
        np.testing.assert_array_equal(a[0].lat, b[0].lat)

    def test_different_seed_differs(self):
        a = generate_flight(standard_profile(7), SensorNoiseModel())
        b = generate_flight(standard_profile(8), SensorNoiseModel())
        assert any(not np.array_equal(col_a, col_b) for col_a, col_b in zip(a[1], b[1]))

    def test_empty_segments_rejected(self):
        with pytest.raises(ValueError):
            FlightProfile(segments=())

    def test_sample_count_and_rates(self):
        profile = standard_profile()
        truth, imu, fixes = generate_flight(profile, ZERO_NOISE)
        assert len(imu.t) == int(round(218.0 * 60.0)) + 1
        assert len(fixes) == 219
        assert fixes[0].t == imu.t[0]
        assert fixes[-1].t == imu.t[-1]

    def test_gps_dropout_keeps_first_and_last(self):
        profile = standard_profile(3)
        noise = SensorNoiseModel(gps_dropout_prob=0.8)
        _, imu, fixes = generate_flight(profile, noise)
        assert fixes[0].t == imu.t[0]
        assert fixes[-1].t == imu.t[-1]
        assert len(fixes) < 219

    def test_turn_sweeps_heading(self):
        profile = FlightProfile(
            segments=(FlightSegment("turn", 45.0, yaw_rate_dps=4.0),), seed=1
        )
        truth, _, _ = generate_flight(profile, ZERO_NOISE)
        assert truth.euler[0, 2] == 0.0
        assert truth.euler[-1, 2] == pytest.approx(math.pi, rel=1e-3)

    def test_climb_changes_altitude(self):
        profile = FlightProfile(
            segments=(FlightSegment("climb", 30.0, climb_rate_mps=2.0),), seed=1
        )
        truth, _, _ = generate_flight(profile, ZERO_NOISE)
        gained = truth.alt_m[-1] - truth.alt_m[0]
        assert 40.0 < gained < 61.0  # ramp-in costs a little of the full 60 m

    def test_truth_kinematically_consistent(self):
        truth, _, _ = generate_flight(standard_profile(), ZERO_NOISE)
        # velocity should match the position derivative
        dlat = np.gradient(truth.lat, truth.t) * M_PER_DEG
        mask = slice(10, -10)
        np.testing.assert_allclose(dlat[mask], truth.vn[mask], atol=0.15)

    def test_sensor_model_inverse_consistency(self):
        # unquantized, zero-noise: accel tilt must recover truth roll/pitch
        truth, imu, _ = generate_flight(level_profile(), ZERO_NOISE, quantize=False)
        for i in range(0, len(imu.t), 100):
            roll, pitch = accel_to_roll_pitch(imu.accel[i])
            assert roll == pytest.approx(truth.euler[i, 0], abs=1e-6)
            assert pitch == pytest.approx(truth.euler[i, 1], abs=1e-6)

    def test_imu_rate_below_gps_rate_rejected(self):
        with pytest.raises(ValueError):
            FlightProfile(segments=(FlightSegment("straight", 1.0),), imu_rate_hz=0.5)


class TestRmsError:
    def test_zero_for_exact_track(self, std_clean_flight):
        _, truth, _, _ = std_clean_flight
        err = rms_error(truth.t, truth.lat, truth.lon, truth)
        assert (err.lat_m, err.lon_m, err.total_m) == (0.0, 0.0, 0.0)

    def test_uniform_one_degree_shift(self, std_clean_flight):
        _, truth, _, _ = std_clean_flight
        err = rms_error(truth.t, truth.lat + 1.0, truth.lon, truth)
        assert err.lat_m == pytest.approx(111_194.93, abs=0.01)
        assert err.lon_m == pytest.approx(0.0, abs=1e-9)

    def test_white_noise_concentration(self, std_clean_flight):
        _, truth, _, _ = std_clean_flight
        rng = np.random.default_rng(77)
        sigma_deg = 2.0 / M_PER_DEG
        err = rms_error(
            truth.t, truth.lat + rng.normal(0, sigma_deg, len(truth.t)), truth.lon, truth
        )
        assert 1.8 <= err.lat_m <= 2.2

    def test_non_overlapping_tracks_rejected(self, std_clean_flight):
        _, truth, _, _ = std_clean_flight
        with pytest.raises(ValueError):
            rms_error(truth.t + 1e6, truth.lat, truth.lon, truth)


class TestSweep:
    def test_shape_and_determinism(self):
        profile = standard_profile()
        noise = SensorNoiseModel()
        grid = square_grid([0.1, 0.9])
        a = sweep_weights(profile, noise, grid)
        b = sweep_weights(profile, noise, grid)
        assert len(a) == 4
        assert a == b

    def test_zero_cell_equals_interpolation_error(self, std_noisy_arrays):
        truth, t, acc, gyr, mag, has_mag, fixes = std_noisy_arrays
        cells = sweep_weights(standard_profile(), SensorNoiseModel(), [(0.0, 0.0)])
        from navfuse.navigation import prepare_gps_reference

        ref = prepare_gps_reference(t, fixes, "replay")
        m = ref.has_pos.astype(bool)
        expected = rms_error(t[m], ref.ref_lat[m], ref.ref_lon[m], truth)
        assert cells[0].lat_err_m == pytest.approx(expected.lat_m, abs=1e-12)
        assert cells[0].lon_err_m == pytest.approx(expected.lon_m, abs=1e-12)

    def test_diagonal_strictly_increasing(self):
        cells = sweep_weights(standard_profile(), SensorNoiseModel(), [(v, v) for v in (0.1, 0.5, 0.9)])
        totals = [math.hypot(c.lat_err_m, c.lon_err_m) for c in cells]
        assert totals[0] < totals[1] < totals[2]

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            sweep_weights(standard_profile(), SensorNoiseModel(), [])

    def test_out_of_range_grid_rejected(self):
        with pytest.raises(ValueError):
            sweep_weights(standard_profile(), SensorNoiseModel(), [(0.5, 1.5)])


class TestStudies:
    def test_yaw_drift_magnetometer_correction(self, std_noisy_arrays):
        from navfuse.quat import wrap_pi

        truth, t, acc, gyr, mag, has_mag, _ = std_noisy_arrays
        fused = AttitudeEstimator(sample_rate_hz=60).run(t, acc, gyr, mag, has_mag)
        gyro_only = AttitudeEstimator(sample_rate_hz=60).run(t, acc, gyr)
        err_f = np.abs([wrap_pi(a - b) for a, b in zip(fused.euler[:, 2], truth.euler[:, 2])])
        err_g = np.abs([wrap_pi(a - b) for a, b in zip(gyro_only.euler[:, 2], truth.euler[:, 2])])
        assert err_g[-1] > 5.0 * err_f[-1]
        assert err_f.max() < 0.1

    def test_butterworth_pipeline_beats_chebyshev(self, std_noisy_arrays):
        # dead-reckoning-only run isolates the pre-filter quality; the
        # Chebyshev ripple consistently costs a little extra drift
        truth, t, acc, gyr, mag, has_mag, fixes = std_noisy_arrays
        att = AttitudeEstimator(sample_rate_hz=60).run(t, acc, gyr, mag, has_mag)

        def track_error(coeffs=None):
            nav = NavEstimator(
                weights=BlendWeights(1.0, 1.0), sample_rate_hz=60, mode="replay", coeffs=coeffs
            ).run(t, acc, att.q, fixes)
            return rms_error(t, nav.lat, nav.lon, truth).total_m

        butter = track_error()
        cheby = track_error(design_chebyshev1_2_lp(10.0, 60.0, 1.0))
        assert butter <= cheby

    def test_dead_reckoning_drift_superlinear_fusion_bounded(self, std_noisy_arrays):
        truth, t, acc, gyr, mag, has_mag, fixes = std_noisy_arrays
        keep = t <= 120.0
        att = AttitudeEstimator(sample_rate_hz=60).run(
            t[keep], acc[keep], gyr[keep], mag[keep], has_mag[keep]
        )

        def error_series(weights):
            # dead reckoning gets the true initial velocity so its drift
            # measures accumulated accel error, not the unknown start state
            nav = NavEstimator(
                weights=weights, sample_rate_hz=60, mode="replay",
                initial_vel=(float(truth.vn[0]), float(truth.ve[0])),
            ).run(t[keep], acc[keep], att.q, [f for f in fixes if f.t <= 120.0])
            dlat = (nav.lat - truth.lat[keep]) * M_PER_DEG
            dlon = (nav.lon - truth.lon[keep]) * M_PER_DEG
            return np.hypot(dlat, dlon)

        tt = t[keep]
        dr = error_series(BlendWeights(1.0, 1.0))
        early = dr[(tt >= 20) & (tt <= 40)].mean() / 30.0
        late = dr[(tt >= 100) & (tt <= 120)].mean() / 110.0
        assert late > 1.5 * early  # error/t grows: super-linear drift

        fused = error_series(BlendWeights(0.1, 0.1))
        assert fused.max() < 20.0  # bounded by a constant, not by t

    def test_sample_and_hold_track(self, std_noisy_arrays):
        truth, t, acc, gyr, mag, has_mag, fixes = std_noisy_arrays
        lat, lon, mask = sample_and_hold_track(t, fixes)
        assert mask.all()  # first fix is at t=0
        # held positions lag a moving platform noticeably more than interpolation
        err = rms_error(t[mask], lat[mask], lon[mask], truth)
        assert err.total_m > 4.0


class TestConfigLoaders:
    def test_profile_roundtrip(self):
        d = {
            "segments": [
                {"kind": "straight", "duration_s": 10},
                {"kind": "turn", "duration_s": 5, "yaw_rate_dps": 9.0},
            ],
            "seed": 99,
            "speed_mps": 22.0,
        }
        p = profile_from_dict(d)
        assert p.seed == 99
        assert p.speed_mps == 22.0
        assert p.segments[1].yaw_rate_dps == 9.0
        assert p.duration_s == 15.0

    def test_profile_defaults(self):
        p = profile_from_dict({})
        assert p.segments == standard_profile().segments

    def test_noise_partial_override(self):
        n = noise_from_dict({"gps_pos_sigma_m": 1.0})
        assert n.gps_pos_sigma_m == 1.0
        assert n.accel_noise_sigma == SensorNoiseModel().accel_noise_sigma

    def test_noise_validation(self):
        with pytest.raises(ValueError):
            noise_from_dict({"gps_dropout_prob": 1.5})
