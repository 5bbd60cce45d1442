import math
from dataclasses import astuple

import numpy as np
import pytest
from conftest import assert_same_bits, fuse_nav, gps_arrays
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import EulerAngles, Quaternion, step

from navfuse.attitude import GRAVITY_MPS2 as G
from navfuse.attitude import AttitudeEstimator
from navfuse.errors import TimestampOrderError
from navfuse.filters import BiquadCoeffs, FilterState, design_butterworth2_lp
from navfuse.geo import bearing
from navfuse.navigation import (
    NavEstimator,
    check_gps,
    default_position_cutoff_hz,
    gps_track,
    prepare_gps_reference,
)
from navfuse.pipeline import FusionConfig

DEG_PER_M = 180.0 / (math.pi * 6_371_000.0)

# b0 = 1 and nothing else: the accel pre-filter passes its input through unchanged
PASS_THROUGH = BiquadCoeffs(1.0, 0.0, 0.0, 0.0, 0.0, sample_rate_hz=60.0, cutoff_hz=10.0)
LEVEL = (1.0, 0.0, 0.0, 0.0)


def pass_through(weights, vel=(0.0, 0.0), pos=(0.0, 0.0), **options):
    """A 60 Hz ``NavEstimator`` with (alpha, beta) ``weights`` and the other
    ``options``, its accel pre-filter passing its input through, starting at
    velocity ``vel`` and position ``pos``."""
    est = NavEstimator(FusionConfig(alpha=weights[0], beta=weights[1], **options), 60.0)
    est.accel_lp = tuple(FilterState(PASS_THROUGH) for _ in range(3))
    (est.vn, est.ve), (est.lat, est.lon) = vel, pos
    return est


def one_step(accel, dt, weights, fixes=gps_arrays(), t0=0.0, q=LEVEL, **kw):
    """Row 1 of a two-sample ``fuse_nav`` from t0 to t0 + dt, constant accel
    and attitude, pre-filter passed through: one blend step from the initial
    state, after the first sample has snapped to any fix it has."""
    est = pass_through(weights, **kw)
    track = fuse_nav(est, np.array([t0, t0 + dt]), np.tile(accel, (2, 1)), np.tile(q, (2, 1)), fixes)
    return tuple(track.vel[1].tolist()), (float(track.lat[1]), float(track.lon[1]))


def world_accel(reading, q):
    """North/east accel of a body reading: the velocity after one 1 s step of
    pure integration from rest."""
    vel, _ = one_step(reading, 1.0, (1.0, 1.0), q=q)
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


class TestVelocityStep:
    def test_alpha_one_pure_integration(self):
        vel, _ = one_step((0.5, -0.5, G), 0.1, (1.0, 0.5), vel=(1.0, 2.0))
        assert vel == (1.05, 1.95)

    def test_alpha_zero_full_gps(self):
        fixes = gps_arrays([9.0, 10.0], [0.0, 0.001], 0.0, speed=10.0)  # due north
        vel, _ = one_step((0, 0, G), 0.1, (0.0, 0.5), fixes, t0=10.0, vel=(99.0, 99.0))
        assert vel[0] == pytest.approx(10.0, abs=1e-9)
        assert vel[1] == pytest.approx(0.0, abs=1e-9)

    def test_hand_computed_blend(self):
        # V_n = 0.5*(2 + 1*0.1) + 0.5*4*cos(0) = 3.05
        fixes = gps_arrays([0.0, 0.9], [0.0, 0.001], 0.0, speed=4.0)
        vel, _ = one_step((1.0, 0.0, G), 0.1, (0.5, 0.5), fixes, t0=0.9, vel=(2.0, 0.0))
        assert vel[0] == pytest.approx(3.05, abs=1e-9)

    def test_fewer_than_two_distinct_fixes_integrates(self):
        vel, _ = one_step((1.0, 1.0, G), 0.5, (0.0, 0.5), gps_arrays([0.0]),
                          vel=(1.0, 0.0))
        assert vel == (1.5, 0.5)

    def test_static_gps_never_defines_bearing(self):
        # alpha 0 takes the GPS velocity whenever a bearing exists; none does
        fixes = gps_arrays(range(5), 0.001, 0.002)
        t = np.arange(0.0, 5.0, 0.25)
        est = pass_through((0.0, 0.5), vel=(1.0, 0.0))
        track = fuse_nav(est, t, np.tile((0, 0, G), (len(t), 1)), np.tile(LEVEL, (len(t), 1)), fixes)
        assert track.vel.tolist() == [[1.0, 0.0]] * len(t)

    def test_stale_fix_ignored(self):
        fixes = gps_arrays([0.0, 1.0], [0.0, 0.001], 0.0)
        vel, _ = one_step((0, 0, G), 0.1, (0.0, 0.5), fixes, t0=20.0, vel=(1.0, 0.0))
        assert vel == (1.0, 0.0)  # pure integration of zero accel


class TestPositionStep:
    # a fix at t0 + dt only: the first sample has no reference to snap to, so
    # the step starts from pos
    def test_beta_zero_equals_reference(self):
        _, pos = one_step((0, 0, G), 0.1, (0.5, 0.0), gps_arrays([0.1], 1.25, -2.5),
                          pos=(5.0, 5.0), vel=(100.0, 100.0))
        assert pos == (1.25, -2.5)

    def test_beta_one_advances_one_degree(self):
        v_north = math.pi * 6_371_000.0 / 180.0
        _, pos = one_step((0, 0, G), 1.0, (0.5, 1.0), gps_arrays([1.0], 45.0, 45.0),
                          vel=(v_north, 0.0))
        assert pos[0] == pytest.approx(1.0, abs=1e-12)
        assert pos[1] == 0.0

    def test_hand_computed_blend(self):
        # 0.1 * 0.001 + 0.9 * 0.0011 = 0.00109
        _, pos = one_step((0, 0, G), 0.1, (0.5, 0.1), gps_arrays([0.1], 0.0011, 0.0),
                          pos=(0.001, 0.0))
        assert pos[0] == pytest.approx(0.00109, abs=1e-15)

    def test_no_reference_dead_reckons(self):
        _, pos = one_step((0, 0, G), 1.0, (0.5, 0.0), vel=(10.0, -10.0))
        assert pos[0] == pytest.approx(10.0 * DEG_PER_M, rel=1e-12)
        assert pos[1] == pytest.approx(-10.0 * DEG_PER_M, rel=1e-12)

    def test_lon_scale_correction(self):
        common = dict(pos=(60.0, 0.0), vel=(0.0, 10.0))
        _, plain = one_step((0, 0, G), 1.0, (0.5, 1.0), **common)
        _, corrected = one_step((0, 0, G), 1.0, (0.5, 1.0), lon_scale_correction=True, **common)
        assert corrected[1] == pytest.approx(plain[1] / math.cos(math.radians(60.0)), rel=1e-12)


class TestReplayReference:
    """The replay position reference: the fix track interpolated at the
    sample times, ``has_pos`` 0 outside the fix span."""

    @staticmethod
    def replay(fixes, t):
        return prepare_gps_reference(np.array(t, dtype=np.float64).reshape(-1), gps_track(fixes), "replay", 3.0)

    def test_exact_at_fixes(self):
        fixes = gps_arrays([0.0, 10.0, 20.0], [0.0, 1.0, 2.0], [10.0, 11.0, 12.0])
        ref = self.replay(fixes, fixes.t)
        assert ref.has_pos.tolist() == [1, 1, 1]
        assert ref.ref_lat.tolist() == fixes.lat.tolist()
        assert ref.ref_lon.tolist() == fixes.lon.tolist()

    def test_midpoint(self):
        fixes = gps_arrays([0.0, 10.0], [0.0, 1.0], 0.0)
        assert self.replay(fixes, 5.0).ref_lat[0] == pytest.approx(0.5, abs=1e-15)

    def test_linear_in_time(self):
        fixes = gps_arrays([0.0, 4.0], [0.0, 2.0], [0.0, -1.0])
        u = np.linspace(0, 1, 21)
        ref = self.replay(fixes, 4.0 * u)
        assert ref.has_pos.all()
        np.testing.assert_allclose(ref.ref_lat, 2.0 * u, rtol=0, atol=1e-12)
        np.testing.assert_allclose(ref.ref_lon, -1.0 * u, rtol=0, atol=1e-12)

    def test_continuity(self):
        rng = np.random.default_rng(32)
        times = np.cumsum(rng.uniform(0.5, 2.0, 20))
        fixes = gps_arrays(times, rng.uniform(-1, 1, 20), rng.uniform(-1, 1, 20))
        max_rate = (np.maximum(np.abs(np.diff(fixes.lat)), np.abs(np.diff(fixes.lon))) / np.diff(times)).max()
        queries = rng.uniform(times[0], times[-1], 1000)
        p1 = self.replay(fixes, queries)
        p2 = self.replay(fixes, np.minimum(queries + 0.001, times[-1]))
        assert (np.abs(p2.ref_lat - p1.ref_lat) <= max_rate * 0.001 + 1e-12).all()
        assert (np.abs(p2.ref_lon - p1.ref_lon) <= max_rate * 0.001 + 1e-12).all()

    def test_no_extrapolation(self):
        fixes = gps_arrays([0.0, 10.0], [0.0, 1.0], 0.0)
        assert self.replay(fixes, [-0.1, 10.1]).has_pos.tolist() == [0, 0]

    def test_needs_two_valid_fixes(self):
        ref = self.replay(gps_arrays([0.0, 1.0], [0.0, 1.0], [0.0, 1.0], valid=[True, False]), 0.5)
        assert ref.has_pos.tolist() == [0]

    def test_invalid_fixes_skipped(self):
        fixes = gps_arrays([0.0, 5.0, 10.0], [0.0, 89.0, 1.0], 0.0, valid=[True, False, True])
        assert self.replay(fixes, 5.0).ref_lat[0] == pytest.approx(0.5, abs=1e-15)


class TestNavStep:
    def test_static_with_pinned_gps_stays_at_origin(self):
        t = np.arange(3600) / 60.0  # 60 s at 60 Hz
        fixes = gps_arrays(range(60), 0.0, 0.0, speed=0.0)
        est = NavEstimator(FusionConfig(), 60.0)
        track = fuse_nav(est, t, np.tile((0.0, 0.0, G), (len(t), 1)), np.tile(LEVEL, (len(t), 1)), fixes)
        worst = max(np.abs(track.lat).max(), np.abs(track.lon).max()) / DEG_PER_M
        assert worst < 0.5

    def test_timestamp_ordering(self):
        # the attitude step, which every block runs before the nav step, checks the order
        est = AttitudeEstimator(FusionConfig(), 60.0)
        est.run(np.array([1.0]), np.array([[0, 0, G]]), np.zeros((1, 3)))
        with pytest.raises(TimestampOrderError):
            est.run(np.array([1.0]), np.array([[0, 0, G]]), np.zeros((1, 3)))


class TestPrepareGpsReference:
    def test_live_holds_latest_fresh_fix(self):
        t = np.array([0.0, 0.5, 1.0, 1.5, 6.0])
        fixes = gps_arrays([0.0, 1.0], [1.0, 3.0], [2.0, 4.0])
        ref = prepare_gps_reference(t, gps_track(fixes), "live", 3.0)
        np.testing.assert_array_equal(ref.has_pos, [1, 1, 1, 1, 0])  # 6.0 is stale
        assert ref.ref_lat[1] == 1.0 and ref.ref_lat[2] == 3.0

    def test_replay_interpolates(self):
        t = np.array([0.0, 0.5, 1.0])
        fixes = gps_arrays([0.0, 1.0], [0.0, 1.0], [0.0, 2.0])
        ref = prepare_gps_reference(t, gps_track(fixes), "replay", 3.0)
        np.testing.assert_allclose(ref.ref_lat, [0.0, 0.5, 1.0], atol=1e-15)
        np.testing.assert_allclose(ref.ref_lon, [0.0, 1.0, 2.0], atol=1e-15)

    def test_replay_no_extrapolation(self):
        t = np.array([0.0, 2.0])
        fixes = gps_arrays([0.5, 1.0], [0.0, 1.0], [0.0, 1.0])
        ref = prepare_gps_reference(t, gps_track(fixes), "replay", 3.0)
        np.testing.assert_array_equal(ref.has_pos, [0, 0])

    def test_velocity_needs_two_distinct(self):
        t = np.array([0.0, 1.0, 2.0, 3.0])
        fixes = gps_arrays([0.0, 1.0, 2.0], [0.0, 0.0, 0.001], 0.0)
        ref = prepare_gps_reference(t, gps_track(fixes), "live", 3.0)
        np.testing.assert_array_equal(ref.has_vel, [0, 0, 1, 1])
        assert ref.ref_cos[2] == pytest.approx(1.0, abs=1e-9)  # due north
        assert ref.ref_sin[2] == pytest.approx(0.0, abs=1e-9)

    def test_bearing_trig_is_math_of_each_fix_pair(self):
        t = np.array([0.5, 1.5, 2.5, 2.7])
        fixes = gps_arrays([0.0, 1.0, 2.0], [0.0, 0.001, 0.0015], [0.0, 0.002, 0.0021])
        ref = prepare_gps_reference(t, gps_track(fixes), "live", 3.0)
        theta = [bearing(0.0, 0.0, 0.001, 0.002), bearing(0.001, 0.002, 0.0015, 0.0021)]
        np.testing.assert_array_equal(ref.has_vel, [0, 1, 1, 1])
        assert ref.ref_cos.tolist() == [0.0, math.cos(theta[0]), math.cos(theta[1]), math.cos(theta[1])]
        assert ref.ref_sin.tolist() == [0.0, math.sin(theta[0]), math.sin(theta[1]), math.sin(theta[1])]

    def test_invalid_fixes_ignored(self):
        t = np.array([0.0, 1.0])
        fixes = gps_arrays([0.0], 1.0, 1.0, valid=False)
        ref = prepare_gps_reference(t, gps_track(fixes), "live", 3.0)
        assert not ref.has_pos.any()

    def test_replay_needs_two_fixes(self):
        ref = prepare_gps_reference(np.array([0.0, 1.0]), gps_track(gps_arrays([1.0], 1.0, 1.0)), "replay", 3.0)
        np.testing.assert_array_equal(ref.has_pos, [0, 0])


@st.composite
def cut_references(draw):
    """Fixes, IMU times on, just before and just after each fix time and
    elsewhere, and the cuts of those times into blocks, a cut on a fix time
    or next to it as often as not."""
    m = draw(st.integers(0, 12))
    ft = np.cumsum(draw(st.lists(st.sampled_from([0.5, 1.0, 3.0]) | st.floats(1e-3, 5.0), min_size=m, max_size=m)))
    # a few positions only, so that fixes repeat one (1e-13 deg is not distinct from 0)
    spot = st.lists(st.sampled_from([0.0, 1e-13, 0.001, -0.002]), min_size=m, max_size=m)
    fixes = gps_arrays(ft, draw(spot), draw(spot), draw(st.lists(st.floats(0.0, 30.0), min_size=m, max_size=m)),
                       valid=draw(st.lists(st.booleans(), min_size=m, max_size=m)))
    near = np.concatenate([np.nextafter(ft, -math.inf), ft, np.nextafter(ft, math.inf)])
    t = np.unique(np.concatenate([near, draw(st.lists(st.floats(-2.0, 70.0), max_size=20))]))
    on_fixes = np.searchsorted(t, near).tolist()
    cuts = draw(st.lists((st.sampled_from(on_fixes) if m else st.nothing()) | st.integers(0, len(t)), max_size=8))
    return fixes, t, sorted(cuts)


@settings(max_examples=150, deadline=None)
@given(cut_references(), st.sampled_from(["live", "replay"]), st.sampled_from([0.0, 3.0, math.inf]))
def test_reference_of_blocks_is_the_reference_of_all_rows(case, mode, stale_after_s):
    """``fuse_blocks`` resolves each block's rows alone: the blocks' columns,
    joined, are one call's over all rows, bit for bit. A block may hold
    fewer rows than there are fixes, where ``np.interp`` does not
    precompute its slopes, and still match."""
    fixes, t, cuts = case
    track = gps_track(fixes)
    whole = prepare_gps_reference(t, track, mode, stale_after_s)
    bounds = [0, *cuts, len(t)]
    parts = [prepare_gps_reference(t[lo:hi], track, mode, stale_after_s) for lo, hi in zip(bounds, bounds[1:])]
    for got, want in zip(zip(*parts), whole):
        assert_same_bits(np.concatenate(got), want)


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
        with pytest.raises(ValueError) as exc:
            gps_track(fixes)
        assert str(exc.value) == message

    def test_valid_fix_accepted(self):
        fixes = gps_arrays([0.0], -7.765, 110.37)
        check_gps(fixes)
        assert (fixes.lat[0], fixes.lon[0]) == (-7.765, 110.37)

    @pytest.mark.parametrize("lat,lon", [(91, 0), (-91, 0), (0, 181), (0, -180), (float("nan"), 0)])
    def test_invalid_position_rejected(self, lat, lon):
        with pytest.raises(ValueError):
            check_gps(gps_arrays([0.0], lat, lon))

    def test_bounds_accepted(self):
        fixes = gps_arrays([0.0, 1.0, 2.0], [-90.0, 90.0, 0.0], [180.0, -179.9, 0.0], speed=0.0)
        assert prepare_gps_reference(np.array([0.5]), gps_track(fixes), "live", 3.0).has_pos.tolist() == [1]


class TestWeightValidation:
    def test_ranges(self):
        with pytest.raises(ValueError, match="alpha must be in"):
            NavEstimator(FusionConfig(alpha=-0.1, beta=0.5), 60.0)
        with pytest.raises(ValueError, match="beta must be in"):
            NavEstimator(FusionConfig(alpha=0.5, beta=1.1), 60.0)

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
        est = NavEstimator(FusionConfig(alpha=0.0, beta=0.0, gps_mode="replay"), 60)
        track = fuse_nav(est, t, acc, q, fixes)
        ref = prepare_gps_reference(t, gps_track(fixes), "replay", 3.0)
        m = ref.has_pos.astype(bool)
        np.testing.assert_array_equal(track.lat[m], ref.ref_lat[m])
        np.testing.assert_array_equal(track.lon[m], ref.ref_lon[m])

    def test_unit_weights_reproduce_dead_reckoning(self):
        t, acc, q, fixes = self._arrays()
        est = NavEstimator(FusionConfig(alpha=1.0, beta=1.0, gps_mode="replay"), 60)
        track = fuse_nav(est, t, acc, q, fixes)

        # independent dead-reckoning oracle: Butterworth + integrate, no GPS terms
        from navfuse.filters import FilterState

        coeffs = design_butterworth2_lp(10.0, 60.0)
        filts = [FilterState(coeffs) for _ in range(3)]
        for f, x in zip(filts, acc[0]):
            f.prime(x)
        vn = ve = 0.0
        lat, lon = fixes.lat[0], fixes.lon[0]  # first reference seeds the start
        for i in range(len(t)):
            fa = [step(f, x) for f, x in zip(filts, acc[i])]
            if i == 0:
                continue
            dt = t[i] - t[i - 1]
            vn += fa[0] * dt
            ve += fa[1] * dt
            lat += vn * dt * DEG_PER_M
            lon += ve * dt * DEG_PER_M
            assert track.lat[i] == pytest.approx(lat, abs=1e-12)
            assert track.lon[i] == pytest.approx(lon, abs=1e-12)
