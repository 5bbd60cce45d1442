import math
from dataclasses import astuple

import numpy as np
import pytest
from conftest import gps_arrays

from navfuse.attitude import GRAVITY_MPS2 as G
from navfuse.errors import InterpolationRangeError, TimestampOrderError
from navfuse.filters import BiquadCoeffs, design_butterworth2_lp
from navfuse.geo import GeoPoint
from navfuse.navigation import (
    BlendWeights,
    NavEstimator,
    default_position_cutoff_hz,
    interpolate_gps,
    prepare_gps_reference,
)
from navfuse.quat import EulerAngles, Quaternion

DEG_PER_M = 180.0 / (math.pi * 6_371_000.0)

# b0 = 1 and nothing else: the accel pre-filter passes its input through unchanged
PASS_THROUGH = BiquadCoeffs(1.0, 0.0, 0.0, 0.0, 0.0, sample_rate_hz=60.0, cutoff_hz=10.0)
LEVEL = (1.0, 0.0, 0.0, 0.0)


def one_step(accel, dt, weights, fixes=gps_arrays(), t0=0.0, q=LEVEL, **kw):
    """Row 1 of a two-sample ``NavEstimator.run`` from t0 to t0 + dt, constant
    accel and attitude, pre-filter passed through: one blend step from the
    initial state, after the first sample has snapped to any fix it has."""
    est = NavEstimator(weights=weights, coeffs=PASS_THROUGH, **kw)
    track = est.run(np.array([t0, t0 + dt]), np.tile(accel, (2, 1)), np.tile(q, (2, 1)), fixes)
    return tuple(track.vel[1].tolist()), (float(track.lat[1]), float(track.lon[1]))


def world_accel(reading, q):
    """North/east accel of a body reading: the velocity after one 1 s step of
    pure integration from rest."""
    vel, _ = one_step(reading, 1.0, BlendWeights(1.0, 1.0), q=q)
    return vel


class TestGravityCompensate:
    # the nav kernel has no vertical channel: gravity, on the z axis, drops out
    # of the north/east components the blend uses
    def test_level_static(self):
        np.testing.assert_allclose(world_accel((0, 0, G), LEVEL), (0, 0), atol=1e-12)

    def test_rolled_static(self):
        q = Quaternion.from_euler(EulerAngles(math.pi / 2, 0, 0)).normalize()
        reading = q.conjugate().rotate_vector((0, 0, G))
        np.testing.assert_allclose(world_accel(reading, astuple(q)), (0, 0), atol=1e-9)

    def test_forward_model_roundtrip(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            e = EulerAngles(rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-3, 3))
            q = Quaternion.from_euler(e).normalize()
            a_world = rng.normal(0, 3, 3)
            reading = q.conjugate().rotate_vector(a_world + np.array([0, 0, G]))
            np.testing.assert_allclose(world_accel(reading, astuple(q)), a_world[:2], atol=1e-9)

    def test_non_unit_rejected(self):
        with pytest.raises(ValueError):
            world_accel((0, 0, G), (2.0, 0.0, 0.0, 0.0))


class TestVelocityStep:
    def test_alpha_one_pure_integration(self):
        vel, _ = one_step((0.5, -0.5, G), 0.1, BlendWeights(1.0, 0.5), initial_vel=(1.0, 2.0))
        assert vel == (1.05, 1.95)

    def test_alpha_zero_full_gps(self):
        fixes = gps_arrays([9.0, 10.0], [0.0, 0.001], 0.0, speed=10.0)  # due north
        vel, _ = one_step((0, 0, G), 0.1, BlendWeights(0.0, 0.5), fixes, t0=10.0, initial_vel=(99.0, 99.0))
        assert vel[0] == pytest.approx(10.0, abs=1e-9)
        assert vel[1] == pytest.approx(0.0, abs=1e-9)

    def test_hand_computed_blend(self):
        # V_n = 0.5*(2 + 1*0.1) + 0.5*4*cos(0) = 3.05
        fixes = gps_arrays([0.0, 0.9], [0.0, 0.001], 0.0, speed=4.0)
        vel, _ = one_step((1.0, 0.0, G), 0.1, BlendWeights(0.5, 0.5), fixes, t0=0.9, initial_vel=(2.0, 0.0))
        assert vel[0] == pytest.approx(3.05, abs=1e-9)

    def test_fewer_than_two_distinct_fixes_integrates(self):
        vel, _ = one_step((1.0, 1.0, G), 0.5, BlendWeights(0.0, 0.5), gps_arrays([0.0]),
                          initial_vel=(1.0, 0.0))
        assert vel == (1.5, 0.5)

    def test_static_gps_never_defines_bearing(self):
        # alpha 0 takes the GPS velocity whenever a bearing exists; none does
        fixes = gps_arrays(range(5), 0.001, 0.002)
        t = np.arange(0.0, 5.0, 0.25)
        est = NavEstimator(weights=BlendWeights(0.0, 0.5), coeffs=PASS_THROUGH, initial_vel=(1.0, 0.0))
        track = est.run(t, np.tile((0, 0, G), (len(t), 1)), np.tile(LEVEL, (len(t), 1)), fixes)
        assert track.vel.tolist() == [[1.0, 0.0]] * len(t)

    def test_stale_fix_ignored(self):
        fixes = gps_arrays([0.0, 1.0], [0.0, 0.001], 0.0)
        vel, _ = one_step((0, 0, G), 0.1, BlendWeights(0.0, 0.5), fixes, t0=20.0, initial_vel=(1.0, 0.0))
        assert vel == (1.0, 0.0)  # pure integration of zero accel


class TestPositionStep:
    # a fix at t0 + dt only: the first sample has no reference to snap to, so
    # the step starts from initial_pos
    def test_beta_zero_equals_reference(self):
        _, pos = one_step((0, 0, G), 0.1, BlendWeights(0.5, 0.0), gps_arrays([0.1], 1.25, -2.5),
                          initial_pos=GeoPoint(5.0, 5.0), initial_vel=(100.0, 100.0))
        assert pos == (1.25, -2.5)

    def test_beta_one_advances_one_degree(self):
        v_north = math.pi * 6_371_000.0 / 180.0
        _, pos = one_step((0, 0, G), 1.0, BlendWeights(0.5, 1.0), gps_arrays([1.0], 45.0, 45.0),
                          initial_vel=(v_north, 0.0))
        assert pos[0] == pytest.approx(1.0, abs=1e-12)
        assert pos[1] == 0.0

    def test_hand_computed_blend(self):
        # 0.1 * 0.001 + 0.9 * 0.0011 = 0.00109
        _, pos = one_step((0, 0, G), 0.1, BlendWeights(0.5, 0.1), gps_arrays([0.1], 0.0011, 0.0),
                          initial_pos=GeoPoint(0.001, 0.0))
        assert pos[0] == pytest.approx(0.00109, abs=1e-15)

    def test_no_reference_dead_reckons(self):
        _, pos = one_step((0, 0, G), 1.0, BlendWeights(0.5, 0.0), initial_vel=(10.0, -10.0))
        assert pos[0] == pytest.approx(10.0 * DEG_PER_M, rel=1e-12)
        assert pos[1] == pytest.approx(-10.0 * DEG_PER_M, rel=1e-12)

    def test_lon_scale_correction(self):
        common = dict(initial_pos=GeoPoint(60.0, 0.0), initial_vel=(0.0, 10.0))
        _, plain = one_step((0, 0, G), 1.0, BlendWeights(0.5, 1.0), **common)
        _, corrected = one_step((0, 0, G), 1.0, BlendWeights(0.5, 1.0), lon_scale_correction=True, **common)
        assert corrected[1] == pytest.approx(plain[1] / math.cos(math.radians(60.0)), rel=1e-12)


class TestInterpolateGps:
    def test_exact_at_fixes(self):
        fixes = gps_arrays([0.0, 10.0, 20.0], [0.0, 1.0, 2.0], [10.0, 11.0, 12.0])
        for t, lat, lon in zip(fixes.t.tolist(), fixes.lat.tolist(), fixes.lon.tolist()):
            p = interpolate_gps(fixes, t)
            assert (p.lat, p.lon) == (lat, lon)

    def test_midpoint(self):
        fixes = gps_arrays([0.0, 10.0], [0.0, 1.0], 0.0)
        assert interpolate_gps(fixes, 5.0).lat == pytest.approx(0.5, abs=1e-15)

    def test_linear_in_time(self):
        fixes = gps_arrays([0.0, 4.0], [0.0, 2.0], [0.0, -1.0])
        for u in np.linspace(0, 1, 21):
            p = interpolate_gps(fixes, 4.0 * u)
            assert p.lat == pytest.approx(2.0 * u, abs=1e-12)
            assert p.lon == pytest.approx(-1.0 * u, abs=1e-12)

    def test_continuity(self):
        rng = np.random.default_rng(32)
        times = np.cumsum(rng.uniform(0.5, 2.0, 20))
        fixes = gps_arrays(times, rng.uniform(-1, 1, 20), rng.uniform(-1, 1, 20))
        max_rate = (np.maximum(np.abs(np.diff(fixes.lat)), np.abs(np.diff(fixes.lon))) / np.diff(times)).max()
        queries = rng.uniform(times[0], times[-1], 1000)
        for t in queries:
            t2 = min(t + 0.001, times[-1])
            p1 = interpolate_gps(fixes, float(t))
            p2 = interpolate_gps(fixes, float(t2))
            assert abs(p2.lat - p1.lat) <= max_rate * 0.001 + 1e-12
            assert abs(p2.lon - p1.lon) <= max_rate * 0.001 + 1e-12

    def test_extrapolation_rejected(self):
        fixes = gps_arrays([0.0, 10.0], [0.0, 1.0], 0.0)
        with pytest.raises(InterpolationRangeError):
            interpolate_gps(fixes, -0.1)
        with pytest.raises(InterpolationRangeError):
            interpolate_gps(fixes, 10.1)

    def test_needs_two_valid_fixes(self):
        with pytest.raises(ValueError):
            interpolate_gps(gps_arrays([0.0, 1.0], [0.0, 1.0], [0.0, 1.0], valid=[True, False]), 0.5)

    def test_invalid_fixes_skipped(self):
        fixes = gps_arrays([0.0, 5.0, 10.0], [0.0, 89.0, 1.0], 0.0, valid=[True, False, True])
        assert interpolate_gps(fixes, 5.0).lat == pytest.approx(0.5, abs=1e-15)


class TestNavStep:
    def test_static_with_pinned_gps_stays_at_origin(self):
        t = np.arange(3600) / 60.0  # 60 s at 60 Hz
        fixes = gps_arrays(range(60), 0.0, 0.0, speed=0.0)
        est = NavEstimator(weights=BlendWeights(0.1, 0.1), sample_rate_hz=60.0)
        track = est.run(t, np.tile((0.0, 0.0, G), (len(t), 1)), np.tile(LEVEL, (len(t), 1)), fixes)
        worst = max(np.abs(track.lat).max(), np.abs(track.lon).max()) / DEG_PER_M
        assert worst < 0.5

    def test_timestamp_ordering(self):
        est = NavEstimator(sample_rate_hz=60.0)
        est.run(np.array([1.0]), np.array([[0, 0, G]]), np.array([LEVEL]), gps_arrays())
        with pytest.raises(TimestampOrderError):
            est.run(np.array([1.0]), np.array([[0, 0, G]]), np.array([LEVEL]), gps_arrays())


class TestPrepareGpsReference:
    def test_live_holds_latest_fresh_fix(self):
        t = np.array([0.0, 0.5, 1.0, 1.5, 6.0])
        fixes = gps_arrays([0.0, 1.0], [1.0, 3.0], [2.0, 4.0])
        ref = prepare_gps_reference(t, fixes, "live")
        np.testing.assert_array_equal(ref.has_pos, [1, 1, 1, 1, 0])  # 6.0 is stale
        assert ref.ref_lat[1] == 1.0 and ref.ref_lat[2] == 3.0

    def test_replay_interpolates(self):
        t = np.array([0.0, 0.5, 1.0])
        fixes = gps_arrays([0.0, 1.0], [0.0, 1.0], [0.0, 2.0])
        ref = prepare_gps_reference(t, fixes, "replay")
        np.testing.assert_allclose(ref.ref_lat, [0.0, 0.5, 1.0], atol=1e-15)
        np.testing.assert_allclose(ref.ref_lon, [0.0, 1.0, 2.0], atol=1e-15)

    def test_replay_no_extrapolation(self):
        t = np.array([0.0, 2.0])
        fixes = gps_arrays([0.5, 1.0], [0.0, 1.0], [0.0, 1.0])
        ref = prepare_gps_reference(t, fixes, "replay")
        np.testing.assert_array_equal(ref.has_pos, [0, 0])

    def test_velocity_needs_two_distinct(self):
        t = np.array([0.0, 1.0, 2.0, 3.0])
        fixes = gps_arrays([0.0, 1.0, 2.0], [0.0, 0.0, 0.001], 0.0)
        ref = prepare_gps_reference(t, fixes, "live")
        np.testing.assert_array_equal(ref.has_vel, [0, 0, 1, 1])
        assert ref.ref_theta[2] == pytest.approx(0.0, abs=1e-9)

    def test_invalid_fixes_ignored(self):
        t = np.array([0.0, 1.0])
        fixes = gps_arrays([0.0], 1.0, 1.0, valid=False)
        ref = prepare_gps_reference(t, fixes, "live")
        assert not ref.has_pos.any()

    def test_replay_needs_two_fixes(self):
        ref = prepare_gps_reference(np.array([0.0, 1.0]), gps_arrays([1.0], 1.0, 1.0), "replay")
        np.testing.assert_array_equal(ref.has_pos, [0, 0])


class TestCheckGps:
    """Fix values no fix can hold are refused where fixes enter the library,
    invalid fixes included."""

    @pytest.mark.parametrize("column, value, message", [
        ("t", math.nan, "GPS fix 1: GPS time nan is not finite"),
        ("lat", 90.5, "GPS fix 1: latitude 90.5 outside [-90, 90]"),
        ("lat", math.nan, "GPS fix 1: latitude nan outside [-90, 90]"),
        ("lon", -180.0, "GPS fix 1: longitude -180.0 outside (-180, 180]"),
        ("lon", 180.5, "GPS fix 1: longitude 180.5 outside (-180, 180]"),
        ("speed", -1.0, "GPS fix 1: GPS speed must be finite and >= 0, got -1.0"),
        ("speed", math.inf, "GPS fix 1: GPS speed must be finite and >= 0, got inf"),
    ])
    def test_out_of_range_rejected(self, column, value, message):
        fixes = gps_arrays([0.0, 1.0, 2.0], [0.0, 0.1, 0.2], 0.0, valid=[True, False, True])
        getattr(fixes, column)[1] = value
        for call in (
            lambda: prepare_gps_reference(np.array([0.5]), fixes),
            lambda: interpolate_gps(fixes, 0.5),
        ):
            with pytest.raises(ValueError) as exc:
                call()
            assert str(exc.value) == message

    def test_bounds_accepted(self):
        fixes = gps_arrays([0.0, 1.0, 2.0], [-90.0, 90.0, 0.0], [180.0, -179.9, 0.0], speed=0.0)
        assert prepare_gps_reference(np.array([0.5]), fixes).has_pos.tolist() == [1]


class TestWeightValidation:
    def test_ranges(self):
        with pytest.raises(ValueError):
            BlendWeights(-0.1, 0.5)
        with pytest.raises(ValueError):
            BlendWeights(0.5, 1.1)

    def test_default_cutoff_rule(self):
        assert default_position_cutoff_hz(1000.0) == 10.0
        assert default_position_cutoff_hz(60.0) == 10.0
        assert default_position_cutoff_hz(30.0) == 5.0


class TestDegeneration:
    """alpha = beta = 0 reproduces the reference; 1 reproduces dead reckoning."""

    def _arrays(self):
        rng = np.random.default_rng(34)
        n = 300
        t = np.arange(n) / 60.0
        acc = rng.normal((0, 0, G), 0.3, (n, 3))
        q = np.tile([1.0, 0, 0, 0], (n, 1))
        k = np.arange(5)
        fixes = gps_arrays(k, 0.0001 * (k + 1), -0.0002 * (k + 1), speed=5.0)
        return t, acc, q, fixes

    def test_zero_weights_reproduce_reference(self):
        t, acc, q, fixes = self._arrays()
        est = NavEstimator(weights=BlendWeights(0.0, 0.0), sample_rate_hz=60, mode="replay")
        track = est.run(t, acc, q, fixes)
        ref = prepare_gps_reference(t, fixes, "replay")
        m = ref.has_pos.astype(bool)
        np.testing.assert_array_equal(track.lat[m], ref.ref_lat[m])
        np.testing.assert_array_equal(track.lon[m], ref.ref_lon[m])

    def test_unit_weights_reproduce_dead_reckoning(self):
        t, acc, q, fixes = self._arrays()
        est = NavEstimator(weights=BlendWeights(1.0, 1.0), sample_rate_hz=60, mode="replay")
        track = est.run(t, acc, q, fixes)

        # independent dead-reckoning oracle: Butterworth + integrate, no GPS terms
        from navfuse.filters import FilterState

        coeffs = design_butterworth2_lp(10.0, 60.0)
        filts = [FilterState(coeffs) for _ in range(3)]
        for f, x in zip(filts, acc[0]):
            f.prime(x)
        vn = ve = 0.0
        lat, lon = fixes.lat[0], fixes.lon[0]  # first reference seeds the start
        for i in range(len(t)):
            fa = [f.step(x) for f, x in zip(filts, acc[i])]
            if i == 0:
                continue
            dt = t[i] - t[i - 1]
            vn += fa[0] * dt
            ve += fa[1] * dt
            lat += vn * dt * DEG_PER_M
            lon += ve * dt * DEG_PER_M
            assert track.lat[i] == pytest.approx(lat, abs=1e-12)
            assert track.lon[i] == pytest.approx(lon, abs=1e-12)
