import math
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from conftest import ZERO_NOISE, fuse_nav, joined
from hypothesis import example, given, settings
from hypothesis import strategies as st
from reference import wrap_pi

from navfuse import flightsim
from navfuse.attitude import GRAVITY_MPS2 as G
from navfuse.attitude import AttitudeEstimator, _tilt_from_accel
from navfuse.filters import FilterState, design_chebyshev1_2_lp
from navfuse.flightsim import (
    PITCH_RAMP_RATE,
    SPEED_RAMP_ACCEL,
    TRUTH_OVERSAMPLE,
    FlightProfile,
    FlightSegment,
    SensorNoiseModel,
    SweepCell,
    TruthSeries,
    _generate_truth,
    _segment_schedule,
    align_to_truth,
    generate_flight,
    noise_from_dict,
    profile_from_dict,
    square_grid,
    standard_profile,
    sweep_cells,
    track_error,
    truth_rows,
)
from navfuse.navigation import NavEstimator, gps_track, prepare_gps_reference
from navfuse.pipeline import FusionConfig, fuse_blocks

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
        for col_a, col_b in zip(a[1] + a[2], b[1] + b[2]):
            np.testing.assert_array_equal(col_a, col_b)
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
        truth, imu, gps = generate_flight(profile, ZERO_NOISE)
        assert len(imu.t) == int(round(218.0 * 60.0)) + 1
        assert len(gps.t) == 219
        assert gps.t[0] == imu.t[0]
        assert gps.t[-1] == imu.t[-1]

    def test_gps_dropout_keeps_first_and_last(self):
        profile = standard_profile(3)
        noise = SensorNoiseModel(gps_dropout_prob=0.8)
        _, imu, gps = generate_flight(profile, noise)
        assert gps.t[0] == imu.t[0]
        assert gps.t[-1] == imu.t[-1]
        assert len(gps.t) < 219

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
        # zero-noise: accel tilt must recover truth roll/pitch through the
        # wire quantization (on this level flight the tilt error is 0.0)
        truth, imu, _ = generate_flight(level_profile(), ZERO_NOISE)
        roll, pitch, ok = _tilt_from_accel(*imu.accel[::100].T)
        assert ok.all()
        np.testing.assert_allclose(roll, truth.euler[::100, 0], rtol=0, atol=1e-6)
        np.testing.assert_allclose(pitch, truth.euler[::100, 1], rtol=0, atol=1e-6)

    def test_imu_rate_below_gps_rate_rejected(self):
        with pytest.raises(ValueError):
            FlightProfile(segments=(FlightSegment("straight", 1.0),), imu_rate_hz=0.5)

    def test_imu_rate_above_millisecond_grid_rejected(self):
        FlightProfile(segments=(FlightSegment("straight", 1.0),), imu_rate_hz=1000.0)
        with pytest.raises(ValueError, match="integer-millisecond grid"):
            FlightProfile(segments=(FlightSegment("straight", 1.0),), imu_rate_hz=2000.0)


def reference_truth(profile):
    """The truth integrator as first written: two derivative evaluations per
    micro-step plus one at each sample instant, and a linear segment scan."""
    rate = profile.imu_rate_hz
    n = int(round(profile.duration_s * rate)) + 1
    t_ms = np.array([round(i * 1000.0 / rate) for i in range(n)], dtype=np.int64)
    t = t_ms / 1000.0

    schedule = _segment_schedule(profile)
    deg_per_m = 180.0 / (math.pi * profile.earth_radius_m)

    def segment_at(time_s):
        for t0, t1, yaw_rate, pitch_target, speed in schedule:
            if time_s < t1:
                return yaw_rate, pitch_target, speed
        return schedule[-1][2], schedule[-1][3], schedule[-1][4]

    psi = math.radians(profile.start_heading_deg)
    theta = 0.0
    speed = profile.speed_mps
    lat = profile.start_lat
    lon = profile.start_lon
    alt = profile.start_alt_m

    lat_s = np.empty(n)
    lon_s = np.empty(n)
    alt_s = np.empty(n)
    vn_s = np.empty(n)
    ve_s = np.empty(n)
    euler = np.zeros((n, 3))
    a_world = np.empty((n, 3))
    rates = np.empty((n, 2))

    def derivatives(time_s, psi_, theta_, speed_):
        dpsi, pitch_target, speed_target = segment_at(time_s)
        dtheta = max(-PITCH_RAMP_RATE, min(PITCH_RAMP_RATE, pitch_target - theta_))
        dspeed = max(-SPEED_RAMP_ACCEL, min(SPEED_RAMP_ACCEL, speed_target - speed_))
        ct, st = math.cos(theta_), math.sin(theta_)
        cp, sp = math.cos(psi_), math.sin(psi_)
        dir_ = (ct * cp, ct * sp, -st)
        ddir = (
            -st * dtheta * cp - ct * sp * dpsi,
            -st * dtheta * sp + ct * cp * dpsi,
            -ct * dtheta,
        )
        vel = (speed_ * dir_[0], speed_ * dir_[1], speed_ * dir_[2])
        acc = tuple(dspeed * dir_[k] + speed_ * ddir[k] for k in range(3))
        return dpsi, dtheta, dspeed, vel, acc

    for i in range(n):
        time_s = float(t[i])
        dpsi, dtheta, dspeed, vel, acc = derivatives(time_s, psi, theta, speed)
        lat_s[i] = lat
        lon_s[i] = lon
        alt_s[i] = alt
        vn_s[i] = vel[0]
        ve_s[i] = vel[1]
        euler[i, 1] = theta
        euler[i, 2] = psi
        a_world[i] = acc
        rates[i] = (dpsi, dtheta)
        if i == n - 1:
            break
        dt_micro = float(t[i + 1] - t[i]) / TRUTH_OVERSAMPLE
        for _ in range(TRUTH_OVERSAMPLE):
            dpsi_m, dtheta_m, dspeed_m, vel0, _ = derivatives(time_s, psi, theta, speed)
            psi += dpsi_m * dt_micro
            theta += dtheta_m * dt_micro
            speed += dspeed_m * dt_micro
            time_s += dt_micro
            _, _, _, vel1, _ = derivatives(time_s, psi, theta, speed)
            lat += 0.5 * (vel0[0] + vel1[0]) * dt_micro * deg_per_m
            lon += 0.5 * (vel0[1] + vel1[1]) * dt_micro * deg_per_m
            alt += 0.5 * (vel0[2] + vel1[2]) * dt_micro

    half_psi = 0.5 * euler[:, 2]
    half_th = 0.5 * euler[:, 1]
    cz, sz = np.cos(half_psi), np.sin(half_psi)
    cy, sy = np.cos(half_th), np.sin(half_th)
    q = np.column_stack([cz * cy, -sz * sy, cz * sy, sz * cy])
    flip = q[:, 0] < 0.0
    q[flip] *= -1.0

    truth = TruthSeries(t=t, lat=lat_s, lon=lon_s, alt_m=alt_s, vn=vn_s, ve=ve_s, euler=euler, q=q)
    return truth, t_ms, a_world, rates


def assert_same_bits(a, b):
    # stricter than np.array_equal: the sign of a zero must match too
    assert a.dtype == b.dtype and a.shape == b.shape
    assert np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


def assert_same_truth(a: TruthSeries, b: TruthSeries):
    for name in ("t", "lat", "lon", "alt_m", "vn", "ve", "euler", "q"):
        assert_same_bits(getattr(a, name), getattr(b, name))


# sample-grid durations put segment ends on sample instants; the floats put
# them between samples
_durations = st.sampled_from([0.5, 1.0, 2.0, 2.5]) | st.floats(0.05, 3.0)
_speeds = st.none() | st.floats(5.0, 30.0)
_segments = st.one_of(
    st.builds(FlightSegment, st.just("straight"), _durations, speed_mps=_speeds),
    st.builds(
        FlightSegment, st.just("turn"), _durations,
        yaw_rate_dps=st.sampled_from([-0.0, 0.0]) | st.floats(-20.0, 20.0), speed_mps=_speeds,
    ),
    st.builds(
        FlightSegment, st.just("climb"), _durations,
        climb_rate_mps=st.floats(-4.0, 4.0), speed_mps=_speeds,
    ),
)
_profiles = st.builds(
    FlightProfile,
    segments=st.lists(_segments, min_size=1, max_size=4).map(tuple),
    imu_rate_hz=st.sampled_from([50.0, 60.0, 97.0, 100.0, 128.0]) | st.floats(5.0, 200.0),
    start_heading_deg=st.sampled_from([0.0, -0.0]) | st.floats(-360.0, 360.0),
    speed_mps=st.floats(5.0, 30.0),
)


def assert_matches_reference(profile):
    ref = reference_truth(profile)
    new = _generate_truth(profile)
    assert_same_truth(new[0], ref[0])
    for a, b in zip(new[1:], ref[1:]):
        assert_same_bits(a, b)


def truth_examples(test):
    """Profiles whose signed zeros or ramps a random draw seldom reaches."""
    for profile in (
        # a climb at 0 m/s: the pitch target is -0.0, and so is the pitch rate
        FlightProfile(segments=(FlightSegment("climb", 1.0, climb_rate_mps=0.0),)),
        # a straight leg from a -0.0 heading, which turns +0.0 after one step
        FlightProfile(segments=(FlightSegment("straight", 1.0),), start_heading_deg=-0.0),
        # a speed of -0.0 turns +0.0 after one step, though it is at its target
        FlightProfile(segments=(FlightSegment("straight", 0.5),), speed_mps=-0.0),
        # a speed ramp of 3,333 samples, more than two blocks of 1,024
        FlightProfile(
            segments=(FlightSegment("climb", 20.0, climb_rate_mps=3.0, speed_mps=30.0),),
            imu_rate_hz=200.0, speed_mps=5.0,
        ),
    ):
        test = example(profile)(test)
    return test


class TestTruthIntegrator:
    @settings(max_examples=40, deadline=None)
    @given(_profiles)
    @truth_examples
    def test_matches_reference_bit_for_bit(self, profile):
        assert_matches_reference(profile)

    # small blocks put boundaries inside every example (a block never splits
    # a sample's micro-steps)
    @pytest.mark.parametrize("block_samples", [1, 3, 64])
    @settings(max_examples=15, deadline=None)
    @given(profile=_profiles)
    @truth_examples
    def test_matches_reference_at_any_block_size(self, block_samples, profile):
        with mock.patch.object(flightsim, "_BLOCK_SAMPLES", block_samples):
            assert_matches_reference(profile)

    def test_generate_flight_truth_matches_reference_on_standard_profile(self):
        profile = standard_profile(42)
        truth, _, _ = generate_flight(profile)
        assert_same_truth(truth, reference_truth(profile)[0])

    def test_memory_bounded_by_the_block(self):
        # the outputs take about 2 MB; micro-step arrays over the whole
        # flight would take about 25 MB
        tracemalloc.start()
        try:
            _generate_truth(standard_profile(42))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


def test_truth_rows_match_per_cell_formatting():
    profile = FlightProfile(
        segments=(
            FlightSegment("climb", 2.3, climb_rate_mps=2.0),
            FlightSegment("turn", 2.1, yaw_rate_dps=-9.0, speed_mps=20.0),
        ),
        imu_rate_hz=97.0, start_heading_deg=-40.0,
    )
    truth, _, _ = generate_flight(profile, ZERO_NOISE)
    deg = 180.0 / math.pi
    expected = [
        "%d,%.9f,%.9f,%.9f,%.9f,%.9f,%.9f,%.9f,%.9f\n"
        % (
            round(truth.t[i] * 1000.0),
            truth.lat[i], truth.lon[i], truth.alt_m[i],
            truth.vn[i], truth.ve[i],
            truth.euler[i, 0] * deg, truth.euler[i, 1] * deg, truth.euler[i, 2] * deg,
        )
        for i in range(len(truth.t))
    ]
    assert "".join(truth_rows(truth)) == "".join(expected)


class TestRmsError:
    def test_zero_for_exact_track(self, std_clean_flight):
        _, truth, _, _ = std_clean_flight
        err = track_error(align_to_truth(truth.t, truth.t), truth.lat, truth.lon, truth)
        assert (err.lat_m, err.lon_m, err.total_m) == (0.0, 0.0, 0.0)

    def test_uniform_one_degree_shift(self, std_clean_flight):
        _, truth, _, _ = std_clean_flight
        err = track_error(align_to_truth(truth.t, truth.t), truth.lat + 1.0, truth.lon, truth)
        assert err.lat_m == pytest.approx(111_194.93, abs=0.01)
        assert err.lon_m == pytest.approx(0.0, abs=1e-9)

    def test_white_noise_concentration(self, std_clean_flight):
        _, truth, _, _ = std_clean_flight
        rng = np.random.default_rng(77)
        sigma_deg = 2.0 / M_PER_DEG
        err = track_error(
            align_to_truth(truth.t, truth.t), truth.lat + rng.normal(0, sigma_deg, len(truth.t)), truth.lon, truth
        )
        assert 1.8 <= err.lat_m <= 2.2


def reference_rms_error(est_t, est_lat, est_lon, truth, earth_radius_m):
    """The track error in one piece, as it was before its alignment was split out."""
    dts = np.diff(truth.t)
    max_align_dt = np.median(dts) if len(dts) else math.inf
    idx = np.clip(np.searchsorted(est_t, truth.t), 0, len(est_t) - 1)
    left = np.clip(idx - 1, 0, len(est_t) - 1)
    use_left = np.abs(est_t[left] - truth.t) <= np.abs(est_t[idx] - truth.t)
    nearest = np.where(use_left, left, idx)
    aligned = np.abs(est_t[nearest] - truth.t) <= max_align_dt + 1e-12
    m_per_deg = math.pi * earth_radius_m / 180.0
    dlat = (est_lat[nearest] - truth.lat)[aligned] * m_per_deg
    dlon = (est_lon[nearest] - truth.lon)[aligned] * m_per_deg
    lat_m, lon_m = float(np.sqrt(np.mean(dlat**2))), float(np.sqrt(np.mean(dlon**2)))
    return lat_m, lon_m, float(math.hypot(lat_m, lon_m))


class TestSplitRmsError:
    """One alignment per pair of time grids, then one error per track."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 60), st.integers(1, 60), st.integers(1, 4))
    def test_equals_rms_error_bit_for_bit(self, seed, n_truth, n_est, tracks):
        rng = np.random.default_rng(seed)
        t = np.cumsum(rng.choice([0.01, 0.0167, 0.02, 0.5], n_truth))
        z = np.zeros(n_truth)
        truth = TruthSeries(t, rng.normal(0, 1, n_truth), rng.normal(0, 1, n_truth), z, z, z,
                            np.zeros((n_truth, 3)), np.tile([1.0, 0, 0, 0], (n_truth, 1)))
        est_t = np.sort(rng.uniform(t[0] - 0.05, t[-1] + 0.05, n_est))
        radius = float(rng.choice([6_371_000.0, 1.0]))
        try:
            alignment = align_to_truth(est_t, truth.t)
        except ValueError as exc:
            assert str(exc) == "estimate and truth tracks do not overlap in time"
            return
        for _ in range(tracks):
            lat, lon = truth.lat[0] + rng.normal(0, 1e-4, n_est), rng.normal(0, 1e-4, n_est)
            got = track_error(alignment, lat, lon, truth, radius)
            assert (got.lat_m, got.lon_m, got.total_m) == reference_rms_error(est_t, lat, lon, truth, radius)

    @pytest.mark.parametrize("shift_s", [1e6, -1e6])
    def test_tracks_apart_in_time_raise(self, shift_s, std_clean_flight):
        _, truth, _, _ = std_clean_flight
        with pytest.raises(ValueError, match="^estimate and truth tracks do not overlap in time$"):
            align_to_truth(truth.t + shift_s, truth.t)

    def test_empty_track_raises(self, std_clean_flight):
        _, truth, _, _ = std_clean_flight
        with pytest.raises(ValueError, match="empty estimate track"):
            align_to_truth(np.array([]), truth.t)


class TestRmsErrorScaling:
    """A uniform latitude offset of d degrees reads d * pi * r_e / 180 meters."""

    @staticmethod
    def lat_error_m(shift_deg, earth_radius_m=6_371_000.0):
        n = 5
        t = np.arange(n, dtype=np.float64)
        z = np.zeros(n)
        truth = TruthSeries(t, z, z, z, z, z, np.zeros((n, 3)), np.tile([1.0, 0, 0, 0], (n, 1)))
        return track_error(align_to_truth(t, truth.t), truth.lat + shift_deg, truth.lon, truth, earth_radius_m).lat_m

    def test_factor_inverse(self):
        assert self.lat_error_m(1.0) == pytest.approx(M_PER_DEG, rel=1e-12)

    def test_one_meter(self):
        assert self.lat_error_m(8.9932e-6) == pytest.approx(1.0, rel=1e-4)

    def test_roundtrip_identity(self):
        rng = np.random.default_rng(12)
        for d in rng.uniform(-1e6, 1e6, 100):
            assert self.lat_error_m(d / M_PER_DEG) == pytest.approx(abs(d), rel=1e-12)

    def test_linear(self):
        assert self.lat_error_m(5e-6) == pytest.approx(5 * self.lat_error_m(1e-6), rel=1e-12)

    def test_custom_radius(self):
        assert self.lat_error_m(1.0, 1_000_000.0) == pytest.approx(1_000_000.0 * math.pi / 180.0, rel=1e-12)


class TestSweep:
    def test_shape_and_determinism(self):
        profile = standard_profile()
        noise = SensorNoiseModel()
        grid = square_grid([0.1, 0.9])
        a = list(sweep_cells(profile, noise, grid))
        b = list(sweep_cells(profile, noise, grid))
        assert len(a) == 4
        assert a == b

    def test_zero_cell_equals_interpolation_error(self, std_noisy_arrays):
        truth, t, acc, gyr, mag, has_mag, gps = std_noisy_arrays
        cells = list(sweep_cells(standard_profile(), SensorNoiseModel(), [(0.0, 0.0)]))
        ref = prepare_gps_reference(t, gps_track(gps), "replay", 3.0)
        m = ref.has_pos.astype(bool)
        expected = track_error(align_to_truth(t[m], truth.t), ref.ref_lat[m], ref.ref_lon[m], truth)
        assert cells[0].lat_err_m == pytest.approx(expected.lat_m, abs=1e-12)
        assert cells[0].lon_err_m == pytest.approx(expected.lon_m, abs=1e-12)

    def test_diagonal_strictly_increasing(self):
        cells = list(sweep_cells(standard_profile(), SensorNoiseModel(), [(v, v) for v in (0.1, 0.5, 0.9)]))
        totals = [math.hypot(c.lat_err_m, c.lon_err_m) for c in cells]
        assert totals[0] < totals[1] < totals[2]

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            sweep_cells(standard_profile(), SensorNoiseModel(), [])

    def test_out_of_range_grid_rejected(self):
        with pytest.raises(ValueError):
            sweep_cells(standard_profile(), SensorNoiseModel(), [(0.5, 1.5)])

    @pytest.mark.parametrize("grid,cfg,message", [
        ([], FusionConfig(), "sweep grid must not be empty"),
        ([(0.1, 0.1)], FusionConfig(cutoff_hz=40.0), "cutoff"),
        ([(0.1, 0.1)], FusionConfig(accel_lp_hz=0.0), "cutoff"),
    ])
    def test_cells_refused_before_the_flight(self, grid, cfg, message, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a flight was simulated")

        monkeypatch.setattr(flightsim, "generate_flight", refuse)
        with pytest.raises(ValueError, match=message):
            sweep_cells(level_profile(5.0), SensorNoiseModel(), grid, cfg)

    def test_fixes_off_the_globe_refused_before_the_cells(self, monkeypatch):
        """The flight is checked in the call, so the iterator never starts."""
        blend_velocity = mock.Mock(side_effect=AssertionError("a cell was blended"))
        monkeypatch.setattr(NavEstimator, "blend_velocity", blend_velocity)
        profile = replace(level_profile(30.0), start_lon=179.9999, start_heading_deg=90.0)
        with pytest.raises(ValueError, match="longitude .* outside"):
            sweep_cells(profile, SensorNoiseModel(), [(0.1, 0.1)])
        blend_velocity.assert_not_called()

    @pytest.mark.parametrize("profile", [
        replace(standard_profile(5), imu_rate_hz=50.0),
        # one fix, on the first row
        replace(profile_from_dict({"segments": [{"kind": "straight", "duration_s": 0.9}]}), imu_rate_hz=50.0),
        replace(standard_profile(5), imu_rate_hz=50.0, gps_rate_hz=0.004),
        # 60 Hz on the integer-millisecond grid: steps of 16 and 17 ms, 58.82 Hz estimated
        standard_profile(42),
    ], ids=["standard", "one-fix-0.9s", "one-fix-standard", "standard-60hz"])
    def test_each_cell_is_the_replay_fusion(self, profile):
        """A cell scores ``fuse_blocks``' replay of the flight with its
        weights, where the stream starts included, bit for bit: both run
        the same passes at the rate estimated from the flight's time grid."""
        grid = square_grid([0.1, 0.9])
        cfg = FusionConfig(gps_mode="live")  # the sweep replays whatever the mode
        truth, imu, gps = generate_flight(profile, SensorNoiseModel())
        alignment = align_to_truth(imu.t, truth.t)
        want = []
        for a, b in grid:
            out = joined(fuse_blocks(imu, gps, replace(cfg, alpha=a, beta=b, gps_mode="replay")))
            err = track_error(alignment, out.lat, out.lon, truth, profile.earth_radius_m)
            want.append(SweepCell(a, b, err.lat_m, err.lon_m))
        assert list(sweep_cells(profile, SensorNoiseModel(), grid, cfg)) == want

    def test_cells_come_one_per_step_in_grid_order(self):
        grid = [(0.9, 0.1), (0.1, 0.5), (0.9, 0.9)]
        cells = sweep_cells(level_profile(5.0), SensorNoiseModel(), grid)
        assert [(c.alpha, c.beta) for c in cells] == grid
        assert list(cells) == []


class TestStudies:
    def test_yaw_drift_magnetometer_correction(self, std_noisy_arrays):
        truth, t, acc, gyr, mag, has_mag, _ = std_noisy_arrays
        fused = AttitudeEstimator(FusionConfig(), 60).run(t, acc, gyr, mag, has_mag)
        gyro_only = AttitudeEstimator(FusionConfig(), 60).run(t, acc, gyr)
        err_f = np.abs([wrap_pi(a - b) for a, b in zip(fused.euler[:, 2], truth.euler[:, 2])])
        err_g = np.abs([wrap_pi(a - b) for a, b in zip(gyro_only.euler[:, 2], truth.euler[:, 2])])
        assert err_g[-1] > 5.0 * err_f[-1]
        assert err_f.max() < 0.1

    def test_butterworth_pipeline_beats_chebyshev(self, std_noisy_arrays):
        # dead-reckoning-only run isolates the pre-filter quality; the
        # Chebyshev ripple consistently costs a little extra drift
        truth, t, acc, gyr, mag, has_mag, gps = std_noisy_arrays
        att = AttitudeEstimator(FusionConfig(), 60).run(t, acc, gyr, mag, has_mag)

        def drift_m(coeffs=None):
            nav = NavEstimator(FusionConfig(alpha=1.0, beta=1.0, gps_mode="replay"), 60)
            if coeffs is not None:
                nav.accel_lp = tuple(FilterState(coeffs) for _ in range(3))
            nav = fuse_nav(nav, t, acc, att.q, gps)
            return track_error(align_to_truth(t, truth.t), nav.lat, nav.lon, truth).total_m

        butter = drift_m()
        cheby = drift_m(design_chebyshev1_2_lp(10.0, 60.0))
        assert butter <= cheby

    def test_dead_reckoning_drift_superlinear_fusion_bounded(self, std_noisy_arrays):
        truth, t, acc, gyr, mag, has_mag, gps = std_noisy_arrays
        keep = t <= 120.0
        att = AttitudeEstimator(FusionConfig(), 60).run(
            t[keep], acc[keep], gyr[keep], mag[keep], has_mag[keep]
        )

        def error_series(alpha, beta):
            # dead reckoning gets the true initial velocity so its drift
            # measures accumulated accel error, not the unknown start state
            nav = NavEstimator(FusionConfig(alpha=alpha, beta=beta, gps_mode="replay"), 60)
            nav.vn, nav.ve = float(truth.vn[0]), float(truth.ve[0])
            nav = fuse_nav(nav, t[keep], acc[keep], att.q, gps._make(c[gps.t <= 120.0] for c in gps))
            dlat = (nav.lat - truth.lat[keep]) * M_PER_DEG
            dlon = (nav.lon - truth.lon[keep]) * M_PER_DEG
            return np.hypot(dlat, dlon)

        tt = t[keep]
        dr = error_series(1.0, 1.0)
        early = dr[(tt >= 20) & (tt <= 40)].mean() / 30.0
        late = dr[(tt >= 100) & (tt <= 120)].mean() / 110.0
        assert late > 1.5 * early  # error/t grows: super-linear drift

        fused = error_series(0.1, 0.1)
        assert fused.max() < 20.0  # bounded by a constant, not by t

    def test_held_fix_reference(self, std_noisy_arrays):
        truth, t, acc, gyr, mag, has_mag, gps = std_noisy_arrays
        held = prepare_gps_reference(t, gps_track(gps), "live", math.inf)
        mask = held.has_pos.astype(bool)
        assert mask.all()  # first fix is at t=0
        # held positions lag a moving platform noticeably more than interpolation
        err = track_error(align_to_truth(t[mask], truth.t), held.ref_lat[mask], held.ref_lon[mask], truth)
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

    @pytest.mark.parametrize("radius", [0.0, -5.0, math.nan, math.inf])
    def test_profile_earth_radius_checked(self, radius):
        with pytest.raises(ValueError, match="earth radius must be positive and finite"):
            profile_from_dict({"earth_radius_m": radius})

    def test_profile_bounds_are_accepted(self):
        segments = (FlightSegment("straight", 1.0, speed_mps=0.0),)
        for lat, lon, speed in ((90.0, 180.0, 0.0), (-90.0, -179.999, -0.0)):
            p = FlightProfile(segments=segments, start_lat=lat, start_lon=lon, speed_mps=speed)
            assert (p.start_lat, p.start_lon, p.speed_mps) == (lat, lon, speed)

    def test_noise_validation(self):
        with pytest.raises(ValueError):
            noise_from_dict({"gps_dropout_prob": 1.5})
