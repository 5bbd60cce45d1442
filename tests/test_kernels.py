"""The fusion loops: flag bytes, state carried across calls, ``FilterState.run``
against the reference ``step`` and scipy, the single-implementation backend
shims of the CLI and the package, and the estimators against their per-sample
reference loops.

``reference_attitude_run`` and ``reference_nav_run`` are the fusion loops as
they were before the filters, rotation (now ``quat.rotate``), tilt and
quaternion assembly (now ``quat.from_euler``) became array passes, kept
verbatim with the helpers they call; ``wrap_pi`` and ``step`` come from
``reference.py``. They carry their state in a flat float vector;
``AttitudeEstimator.run`` and ``NavEstimator.world_accel`` with
``blend_velocity`` and ``blend_position`` must match them bit for bit,
outputs and state alike: numpy may do only + - * / and sqrt, which IEEE 754
rounds exactly, while every transcendental stays ``math.*``. (``np.arctan2``
differs from ``math.atan2`` in the last bit on some inputs of some numpy
builds.)
"""

import ast
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from conftest import assert_same_bits, fuse_nav, gps_arrays
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import step, wrap_pi
from scipy import signal

import navfuse
from navfuse.attitude import (
    FLAG_GAP,
    FLAG_NO_HEADING_REF,
    FLAG_NO_TILT_REF,
    MAX_GYRO_GAP_S,
    MIN_HORIZONTAL_FIELD,
    MIN_TILT_ACCEL_MPS2,
    AttitudeEstimator,
)
from navfuse.cli import main
from navfuse.filters import (
    FilterState,
    design_butterworth2_lp,
    design_chebyshev1_2_lp,
    design_first_order_hp,
    design_first_order_lp,
)
from navfuse.flightsim import (
    FlightProfile,
    FlightSegment,
    SensorNoiseModel,
    SweepCell,
    align_to_truth,
    generate_flight,
    standard_profile,
    sweep_cells,
    track_error,
)
from navfuse.navigation import NavEstimator, gps_track, prepare_gps_reference
from navfuse.pipeline import FusionConfig, estimate_sample_rate
from navfuse.recording import write_recording


# ---------------------------------------------------------------- reference loops

def complementary_angle(prev, rate, dt, reference, gain):
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    if gain == 1.0:
        return wrap_pi(prev + rate * dt)
    if gain == 0.0:
        return wrap_pi(reference)
    prop = prev + rate * dt
    delta = wrap_pi(reference - prop)
    return wrap_pi(prop + (1.0 - gain) * delta)


def biquad_prime(b0, b1, b2, a1, a2, x0):
    h = (b0 + b1 + b2) / (1.0 + a1 + a2)
    return h * x0 - b0 * x0, b2 * x0 - a2 * h * x0


def _tilt_from_accel(ax, ay, az):
    if ax * ax + ay * ay + az * az <= MIN_TILT_ACCEL_MPS2 * MIN_TILT_ACCEL_MPS2:
        return math.nan, math.nan
    roll = math.atan2(ay, az)
    pitch = math.atan2(-ax, math.sqrt(ay * ay + az * az))
    return roll, pitch


def _heading_from_mag(mx, my, mz, roll, pitch):
    cr = math.cos(roll)
    sr = math.sin(roll)
    cp = math.cos(pitch)
    sp = math.sin(pitch)
    ty = my * cr - mz * sr
    tz = my * sr + mz * cr
    mxp = mx * cp + tz * sp
    myp = ty
    if mxp * mxp + myp * myp < MIN_HORIZONTAL_FIELD * MIN_HORIZONTAL_FIELD:
        return math.nan
    return math.atan2(-myp, mxp)


def reference_attitude_run(t, acc, gyr, mag, has_mag, lp, hp, gamma_rp, gamma_yaw, declination, state):
    """One pass of the attitude fusion loop over a stream of n samples, one
    row at a time (the kernel before its array passes, kept as the oracle).

    ``state`` (16 floats: the init flag, the last time, roll/pitch/yaw and the
    five filters' delay lines) carries the filter and angle state between
    calls and is updated in place. Returns the (n, 3)
    Euler angles, the (n, 4) quaternions and the (n,) uint8 FLAG_* bits.
    """
    n = len(t)
    euler = np.empty((n, 3), dtype=np.float64)
    q = np.empty((n, 4), dtype=np.float64)
    flags = np.zeros(n, dtype=np.uint8)

    lb0, lb1, lb2, la1, la2 = lp
    hb0, hb1, hb2, ha1, ha2 = hp

    ts = t.tolist()
    axs, ays, azs = acc[:, 0].tolist(), acc[:, 1].tolist(), acc[:, 2].tolist()
    gxs, gys, gzs = gyr[:, 0].tolist(), gyr[:, 1].tolist(), gyr[:, 2].tolist()
    mxs, mys, mzs = mag[:, 0].tolist(), mag[:, 1].tolist(), mag[:, 2].tolist()
    hms = has_mag.tolist()

    init = state[0] != 0.0
    t_last = state[1]
    roll, pitch, yaw = state[2], state[3], state[4]
    lx1, lx2, ly1, ly2, lz1, lz2 = state[5], state[6], state[7], state[8], state[9], state[10]
    hx1, hx2, hy1, hy2 = state[11], state[12], state[13], state[14]

    for i in range(n):
        ti = ts[i]
        ax, ay, az = axs[i], ays[i], azs[i]
        gx, gy, gz = gxs[i], gys[i], gzs[i]
        fl = 0

        if not init:
            lx1, lx2 = biquad_prime(lb0, lb1, lb2, la1, la2, ax)
            ly1, ly2 = biquad_prime(lb0, lb1, lb2, la1, la2, ay)
            lz1, lz2 = biquad_prime(lb0, lb1, lb2, la1, la2, az)
            hx1, hx2 = biquad_prime(hb0, hb1, hb2, ha1, ha2, gx)
            hy1, hy2 = biquad_prime(hb0, hb1, hb2, ha1, ha2, gy)

        fax = lb0 * ax + lx1
        lx1 = lb1 * ax - la1 * fax + lx2
        lx2 = lb2 * ax - la2 * fax
        fay = lb0 * ay + ly1
        ly1 = lb1 * ay - la1 * fay + ly2
        ly2 = lb2 * ay - la2 * fay
        faz = lb0 * az + lz1
        lz1 = lb1 * az - la1 * faz + lz2
        lz2 = lb2 * az - la2 * faz
        fgx = hb0 * gx + hx1
        hx1 = hb1 * gx - ha1 * fgx + hx2
        hx2 = hb2 * gx - ha2 * fgx
        fgy = hb0 * gy + hy1
        hy1 = hb1 * gy - ha1 * fgy + hy2
        hy2 = hb2 * gy - ha2 * fgy

        rref, pref = _tilt_from_accel(fax, fay, faz)
        tilt_ok = not math.isnan(rref)

        if not init:
            roll = rref if tilt_ok else 0.0
            pitch = pref if tilt_ok else 0.0
            if not tilt_ok:
                fl |= FLAG_NO_TILT_REF
            yaw = 0.0
            if hms[i]:
                h = _heading_from_mag(mxs[i], mys[i], mzs[i], roll, pitch)
                if math.isnan(h):
                    fl |= FLAG_NO_HEADING_REF
                else:
                    yaw = wrap_pi(h + declination)
            init = True
        else:
            dt = ti - t_last
            gap = dt > MAX_GYRO_GAP_S
            if gap:
                fl |= FLAG_GAP
            if not tilt_ok:
                fl |= FLAG_NO_TILT_REF
            if gap:
                if tilt_ok:
                    roll = rref
                    pitch = pref
            elif tilt_ok:
                roll = complementary_angle(roll, fgx, dt, rref, gamma_rp)
                pitch = complementary_angle(pitch, fgy, dt, pref, gamma_rp)
            else:
                roll = wrap_pi(roll + fgx * dt)
                pitch = wrap_pi(pitch + fgy * dt)
            heading_ok = False
            h = 0.0
            if hms[i]:
                h = _heading_from_mag(mxs[i], mys[i], mzs[i], roll, pitch)
                heading_ok = not math.isnan(h)
                if not heading_ok:
                    fl |= FLAG_NO_HEADING_REF
            if heading_ok:
                href = wrap_pi(h + declination)
                yaw = href if gap else complementary_angle(yaw, gz, dt, href, gamma_yaw)
            elif not gap:
                yaw = wrap_pi(yaw + gz * dt)

        t_last = ti

        # from_euler (two Hamilton products) then normalize with w >= 0.
        czw = math.cos(0.5 * yaw)
        szw = math.sin(0.5 * yaw)
        cpw = math.cos(0.5 * pitch)
        spw = math.sin(0.5 * pitch)
        crw = math.cos(0.5 * roll)
        srw = math.sin(0.5 * roll)
        # h1 = qz * qy with qz = (czw, 0, 0, szw), qy = (cpw, 0, spw, 0)
        h1w = czw * cpw - 0.0 * 0.0 - 0.0 * spw - szw * 0.0
        h1x = czw * 0.0 + 0.0 * cpw + 0.0 * 0.0 - szw * spw
        h1y = czw * spw - 0.0 * 0.0 + 0.0 * cpw + szw * 0.0
        h1z = czw * 0.0 + 0.0 * spw - 0.0 * 0.0 + szw * cpw
        # q = h1 * qx with qx = (crw, srw, 0, 0)
        qw = h1w * crw - h1x * srw - h1y * 0.0 - h1z * 0.0
        qx = h1w * srw + h1x * crw + h1y * 0.0 - h1z * 0.0
        qy = h1w * 0.0 - h1x * 0.0 + h1y * crw + h1z * srw
        qz = h1w * 0.0 + h1x * 0.0 - h1y * srw + h1z * crw
        norm = math.sqrt(qw * qw + qx * qx + qy * qy + qz * qz)
        qw, qx, qy, qz = qw / norm, qx / norm, qy / norm, qz / norm
        if qw < 0.0:
            qw, qx, qy, qz = -qw, -qx, -qy, -qz

        euler[i, 0] = roll
        euler[i, 1] = pitch
        euler[i, 2] = yaw
        q[i, 0] = qw
        q[i, 1] = qx
        q[i, 2] = qy
        q[i, 3] = qz
        flags[i] = fl

    state[0] = 1.0 if init else 0.0
    state[1] = t_last
    state[2], state[3], state[4] = roll, pitch, yaw
    state[5], state[6], state[7], state[8] = lx1, lx2, ly1, ly2
    state[9], state[10], state[11], state[12] = lz1, lz2, hx1, hx2
    state[13], state[14] = hy1, hy2
    return euler, q, flags


def reference_nav_run(
    t, acc, quat,
    ref_lat, ref_lon, has_pos,
    ref_speed, ref_cos, ref_sin, has_vel,
    bw, alpha, beta, deg_per_m, lon_scale_correction, state,
):
    """One pass of the position fusion loop over a stream of n samples, one
    row at a time (the kernel before its array passes, kept as the oracle).

    The GPS reference columns come from ``prepare_gps_reference``. ``state``
    (12 floats: the init flag, the last time, vn/ve, lat/lon and the three
    filters' delay lines) carries the filter, velocity and position state
    between calls and is updated in place. Returns the (n, 2)
    north/east velocities and the (n,) latitudes and longitudes.
    """
    n = len(t)
    vel = np.empty((n, 2), dtype=np.float64)
    lat_out = np.empty(n, dtype=np.float64)
    lon_out = np.empty(n, dtype=np.float64)

    b0, b1, b2, a1, a2 = bw
    ts = t.tolist()
    axs, ays, azs = acc[:, 0].tolist(), acc[:, 1].tolist(), acc[:, 2].tolist()
    qws, qxs, qys, qzs = (quat[:, j].tolist() for j in range(4))
    rlats, rlons, hps = ref_lat.tolist(), ref_lon.tolist(), has_pos.tolist()
    rspd, rcos, rsin, hvs = ref_speed.tolist(), ref_cos.tolist(), ref_sin.tolist(), has_vel.tolist()

    init = state[0] != 0.0
    t_last = state[1]
    vn, ve = state[2], state[3]
    lat, lon = state[4], state[5]
    fx1, fx2, fy1, fy2, fz1, fz2 = state[6], state[7], state[8], state[9], state[10], state[11]

    for i in range(n):
        ti = ts[i]
        ax, ay, az = axs[i], ays[i], azs[i]

        if not init:
            fx1, fx2 = biquad_prime(b0, b1, b2, a1, a2, ax)
            fy1, fy2 = biquad_prime(b0, b1, b2, a1, a2, ay)
            fz1, fz2 = biquad_prime(b0, b1, b2, a1, a2, az)

        fax = b0 * ax + fx1
        fx1 = b1 * ax - a1 * fax + fx2
        fx2 = b2 * ax - a2 * fax
        fay = b0 * ay + fy1
        fy1 = b1 * ay - a1 * fay + fy2
        fy2 = b2 * ay - a2 * fay
        faz = b0 * az + fz1
        fz1 = b1 * az - a1 * faz + fz2
        fz2 = b2 * az - a2 * faz

        if not init:
            if hps[i]:
                lat = rlats[i]
                lon = rlons[i]
            init = True
        else:
            dt = ti - t_last
            qw, qx, qy, qz = qws[i], qxs[i], qys[i], qzs[i]
            xx = qx * qx
            yy = qy * qy
            zz = qz * qz
            wx = qw * qx
            wy = qw * qy
            wz = qw * qz
            xy = qx * qy
            xz = qx * qz
            yz = qy * qz
            a_n = (1.0 - 2.0 * (yy + zz)) * fax + 2.0 * (xy - wz) * fay + 2.0 * (xz + wy) * faz
            a_e = 2.0 * (xy + wz) * fax + (1.0 - 2.0 * (xx + zz)) * fay + 2.0 * (yz - wx) * faz

            vn_i = vn + a_n * dt
            ve_i = ve + a_e * dt
            if hvs[i]:
                vn = alpha * vn_i + (1.0 - alpha) * rspd[i] * rcos[i]
                ve = alpha * ve_i + (1.0 - alpha) * rspd[i] * rsin[i]
            else:
                vn = vn_i
                ve = ve_i

            lat_dr = lat + vn * dt * deg_per_m
            if lon_scale_correction:
                lon_dr = lon + ve * dt * (deg_per_m / math.cos(lat * math.pi / 180.0))
            else:
                lon_dr = lon + ve * dt * deg_per_m
            if hps[i]:
                lat = beta * lat_dr + (1.0 - beta) * rlats[i]
                lon = beta * lon_dr + (1.0 - beta) * rlons[i]
            else:
                lat = lat_dr
                lon = lon_dr

        t_last = ti
        vel[i, 0] = vn
        vel[i, 1] = ve
        lat_out[i] = lat
        lon_out[i] = lon

    state[0] = 1.0 if init else 0.0
    state[1] = t_last
    state[2], state[3] = vn, ve
    state[4], state[5] = lat, lon
    state[6], state[7], state[8] = fx1, fx2, fy1
    state[9], state[10], state[11] = fy2, fz1, fz2
    return vel, lat_out, lon_out



# ---------------------------------------------------------------- kernel tests

class TestComplementaryAngle:
    """The reference blend that ``AttitudeEstimator.run``'s angle loops match."""

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
    track = AttitudeEstimator(FusionConfig(), 60).run(t, acc, gyr, mag, has_mag)
    assert track.flags.dtype == np.uint8
    assert track.flags.tolist() == [0, 0, FLAG_GAP, 0, 0]


def test_unobservable_reference_flags():
    # zero accel (filters primed at zero, so no tilt reference on the first two
    # samples) and a mag reading with no horizontal component
    t = np.array([0.0, 0.016, 0.033, 0.05])
    acc = np.array([[0, 0, 0.0], [0, 0, 0.0], [0, 0, 9.8], [0, 0, 9.8]])
    gyr = np.full((4, 3), 0.3)
    mag = np.array([[0.0, 0.0, 0.0], [0.3, 0.0, -0.1], [0.0, 0.0, -0.4], [0.3, 0.0, -0.1]])
    track = AttitudeEstimator(FusionConfig(), 60).run(t, acc, gyr, mag, np.ones(4, dtype=np.uint8))
    both = FLAG_NO_TILT_REF | FLAG_NO_HEADING_REF
    assert track.flags.tolist() == [both, FLAG_NO_TILT_REF, FLAG_NO_HEADING_REF, 0]
    # no tilt reference: roll and pitch start level and integrate the
    # high-passed rates, which are exactly zero for a constant primed input
    assert track.euler[:2, :2].tolist() == [[0.0, 0.0], [0.0, 0.0]]


class TestChunkedEquivalence:
    """State carried across calls must match a single whole-stream call."""

    def test_attitude_chunks(self):
        t, acc, gyr, mag, has_mag = random_stream(7, n=500)
        whole = AttitudeEstimator(FusionConfig(), 60).run(t, acc, gyr, mag, has_mag)
        est = AttitudeEstimator(FusionConfig(), 60)
        parts = []
        for lo, hi in ((0, 100), (100, 101), (101, 500)):
            parts.append(est.run(t[lo:hi], acc[lo:hi], gyr[lo:hi], mag[lo:hi], has_mag[lo:hi]))
        stitched = np.vstack([p.euler for p in parts])
        np.testing.assert_array_equal(whole.euler, stitched)


def chunks(n, cuts):
    bounds = [0, *sorted(c % (n + 1) for c in cuts), n]
    return list(zip(bounds, bounds[1:]))


designs = (design_butterworth2_lp, design_chebyshev1_2_lp, design_first_order_lp, design_first_order_hp)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(designs), st.floats(0.01, 0.49), st.sampled_from([60.0, 100.0, 1000.0]),
       st.lists(st.floats(-1e4, 1e4), max_size=80), st.lists(st.integers(0, 10**6), max_size=4),
       st.floats(-10.0, 10.0), st.floats(-10.0, 10.0))
def test_filter_state_run_matches_step(design, band, fs, x, cuts, s1, s2):
    """``run`` over any split of a column is ``step`` over the whole column,
    bit for bit, delay line included."""
    c = design(band * fs, fs)
    x = np.array(x, dtype=np.float64)
    stepped, ran = FilterState(c, s1, s2), FilterState(c, s1, s2)
    want = np.array([step(stepped, xi) for xi in x.tolist()], dtype=np.float64)
    got = np.concatenate([ran.run(x[lo:hi]) for lo, hi in chunks(len(x), cuts)])
    assert_same_bits(got, want)
    assert_same_bits([ran.s1, ran.s2], [stepped.s1, stepped.s2])


def test_biquad_matches_scipy_lfilter():
    rng = np.random.default_rng(8)
    c = design_butterworth2_lp(10.0, 1000.0)
    x = rng.normal(size=2000)
    y = FilterState(c).run(x)
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


# ---------------------------------------------------------------- the trig rule

# numpy functions whose result IEEE 754 does not round exactly, so that their
# last bit may differ from math.*'s (np.arctan2 from math.atan2, on some builds)
NUMPY_TRANSCENDENTALS = {
    "sin", "cos", "tan", "arcsin", "arccos", "arctan", "arctan2", "hypot", "sinh", "cosh", "tanh",
    "exp", "exp2", "expm1", "log", "log1p", "log2", "log10", "power",
}


def test_package_numpy_does_no_transcendentals():
    """numpy does only + - * / and sqrt in the package, and every
    transcendental is ``math.*``: a use of one of numpy's, as ``np.sin`` or
    imported from numpy, fails here, naming its module and line."""
    found = []
    for path in sorted(Path(navfuse.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy"):
                names = [node.attr]
            elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy":
                names = [alias.name for alias in node.names]
            else:
                continue
            found += [f"{path.name}:{node.lineno}: numpy.{name}" for name in names if name in NUMPY_TRANSCENDENTALS]
    assert found == []


# ---------------------------------------------------------------- estimators against the reference loops

def coeff_tuple(filt):
    c = filt.coeffs
    return c.b0, c.b1, c.b2, c.a1, c.a2


def assert_same_state(est, state, fields, filters, times=("t_last",)):
    """``est``'s named fields and filter delay lines hold what the reference
    loop's ``state`` vector holds in slots 2 on, and each of its ``times`` its
    slot 1."""
    for name in times:
        assert getattr(est, name) == (state[1] if state[0] != 0.0 else None)
    delay = [s for f in filters for s in (f.s1, f.s2)]
    assert_same_bits([getattr(est, name) for name in fields] + delay, state[2:2 + len(fields) + len(delay)])


gains = st.one_of(st.sampled_from([0.0, 1.0, 0.98]), st.floats(0.0, 1.0))


@st.composite
def imu_streams(draw):
    """Streams rich in the kernel's branches: tilts far beyond 0.25 rad,
    gaps over MAX_GYRO_GAP_S, accel below 0.1 g (a weak first row starts the
    stream without a tilt reference), rows without a magnetometer and rows
    whose field has no horizontal part."""
    n = draw(st.integers(1, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dt = rng.uniform(0.004, 0.05, n)
    dt[draw(st.lists(st.integers(0, n - 1), max_size=3))] = rng.uniform(MAX_GYRO_GAP_S, 3.0)
    t = 50.0 + np.cumsum(dt)
    roll = rng.uniform(-3.0, 3.0, n)
    pitch = rng.uniform(-1.5, 1.5, n)
    g = rng.uniform(5.0, 12.0, n)
    acc = np.column_stack([-np.sin(pitch), np.sin(roll) * np.cos(pitch), np.cos(roll) * np.cos(pitch)]) * g[:, None]
    acc += rng.normal(0.0, draw(st.sampled_from([0.0, 0.5, 3.0])), (n, 3))
    lo = draw(st.integers(0, n - 1))
    acc[lo:lo + draw(st.integers(0, 25))] = rng.normal(0.0, 0.2, 3)
    gyr = rng.normal(0.0, 1.5, (n, 3))
    mag = rng.normal((0.25, 0.05, -0.4), 0.2, (n, 3))
    mag[rng.random(n) < draw(st.sampled_from([0.0, 0.2]))] = 0.0
    has_mag = (rng.random(n) < draw(st.sampled_from([0.0, 0.6, 1.0]))).astype(np.uint8)
    return t, acc, gyr, mag, has_mag


@settings(max_examples=120, deadline=None)
@given(imu_streams(), gains, gains, st.floats(-230.0, 230.0), st.sampled_from([60.0, 100.0]),
       st.lists(st.integers(0, 10**6), max_size=4))
def test_attitude_matches_reference(stream, gamma_rp, gamma_yaw, declination_deg, fs, cuts):
    t, acc, gyr, mag, has_mag = stream
    cfg = FusionConfig(gamma_rp=gamma_rp, gamma_yaw=gamma_yaw, declination_deg=declination_deg)
    est = AttitudeEstimator(cfg, fs)
    declination = math.radians(declination_deg)
    lp, hp = coeff_tuple(est.accel_lp[0]), coeff_tuple(est.gyro_hp[0])
    state = np.zeros(16)
    got, want = [], []
    for lo, hi in chunks(len(t), cuts):
        track = est.run(t[lo:hi], acc[lo:hi], gyr[lo:hi], mag[lo:hi], has_mag[lo:hi])
        got.append((track.euler, track.q, track.flags))
        want.append(reference_attitude_run(
            t[lo:hi], acc[lo:hi], gyr[lo:hi], mag[lo:hi], has_mag[lo:hi],
            lp, hp, gamma_rp, gamma_yaw, declination, state,
        ))
        assert_same_state(est, state, ("roll", "pitch", "yaw"), (*est.accel_lp, *est.gyro_hp))
    for k in range(3):
        assert_same_bits(np.concatenate([g[k] for g in got]), np.concatenate([w[k] for w in want]))


@st.composite
def nav_cases(draw):
    """A stream with unit attitude quaternions and fixes that are invalid,
    repeat a position, fall before, inside or after it, or go stale. Tracks
    start at or near lat/lon 0 too, where a degree has fine enough ulps to
    show a last-bit change in a position increment."""
    n = draw(st.integers(1, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    t = 10.0 + np.cumsum(rng.uniform(0.01, 0.3, n))
    acc = rng.normal((0.0, 0.0, 9.8), draw(st.sampled_from([0.3, 4.0])), (n, 3))
    q = rng.normal(size=(n, 4))
    q /= np.sqrt((q * q).sum(axis=1))[:, None]
    k = draw(st.integers(0, 8))
    fix_t = np.unique(rng.uniform(t[0] - 1.0, t[-1] + 1.0, k))
    lat = rng.uniform(-1.0, 1.0) * draw(st.sampled_from([0.0, 1e-3, 75.0]))
    lon = rng.uniform(-1.0, 1.0) * draw(st.sampled_from([0.0, 1e-3, 170.0]))
    lats, lons, speeds, valid = [], [], [], []
    for _ in fix_t:
        if rng.random() < 0.7:  # else the fix repeats the previous position
            lat += rng.normal(0.0, 1e-4)
            lon += rng.normal(0.0, 1e-4)
        lats.append(lat)
        lons.append(lon)
        speeds.append(rng.uniform(0.0, 40.0))
        valid.append(rng.random() < 0.85)
    fixes = gps_arrays(fix_t, lats, lons, speed=speeds, valid=valid)
    cfg = FusionConfig(
        alpha=draw(gains),
        beta=draw(gains),
        lon_scale_correction=draw(st.booleans()),
        stale_after_s=draw(st.sampled_from([0.2, 3.0, math.inf])),
        gps_mode=draw(st.sampled_from(["live", "replay"])),
    )
    fs = draw(st.sampled_from([60.0, 100.0]))
    pos = float(lat * rng.integers(0, 2)), float(lon * rng.integers(0, 2))
    start = (*rng.normal(0.0, 10.0, 2).tolist(), *pos)  # vn, ve, lat, lon
    return t, acc, q, fixes, cfg, fs, start


def nav_estimator(cfg, fs, start):
    """A ``NavEstimator`` that starts at ``start``, (vn, ve, lat, lon)."""
    est = NavEstimator(cfg, fs)
    est.vn, est.ve, est.lat, est.lon = start
    return est


@settings(max_examples=120, deadline=None)
@given(nav_cases(), st.lists(st.integers(0, 10**6), max_size=4))
def test_nav_matches_reference(case, cuts):
    t, acc, q, fixes, cfg, fs, start = case
    est = nav_estimator(cfg, fs, start)
    state = np.zeros(12)
    state[2:6] = start
    deg_per_m = 180.0 / (math.pi * cfg.earth_radius_m)
    track = gps_track(fixes)
    got, want = [], []
    for lo, hi in chunks(len(t), cuts):
        ref = prepare_gps_reference(t[lo:hi], track, cfg.gps_mode, cfg.stale_after_s)  # per block, as fuse_blocks does
        vel = est.blend_velocity(t[lo:hi], est.world_accel(acc[lo:hi], q[lo:hi]), ref)
        got.append((vel, *est.blend_position(t[lo:hi], vel, ref)))
        want.append(reference_nav_run(
            t[lo:hi], acc[lo:hi], q[lo:hi],
            ref.ref_lat, ref.ref_lon, ref.has_pos, ref.ref_speed, ref.ref_cos, ref.ref_sin, ref.has_vel,
            coeff_tuple(est.accel_lp[0]), cfg.alpha, cfg.beta, deg_per_m, cfg.lon_scale_correction, state,
        ))
        assert_same_state(est, state, ("vn", "ve", "lat", "lon"), est.accel_lp, times=("t_vel", "t_pos"))
    for k in range(3):
        assert_same_bits(np.concatenate([g[k] for g in got]), np.concatenate([w[k] for w in want]))


# grids of up to 6 cells over at most 2 distinct alphas, so that most repeat one
repeating_grids = st.lists(gains, min_size=1, max_size=2).flatmap(
    lambda alphas: st.lists(st.tuples(st.sampled_from(alphas), gains), min_size=1, max_size=6))


@settings(max_examples=40, deadline=None)
@given(nav_cases(), repeating_grids)
def test_shared_world_accel_matches_per_cell_fusion(case, grid):
    """The sweep's path: world-frame accel and GPS reference made once, the
    velocity pass once per alpha, then only the position pass per cell."""
    t, acc, q, fixes, cfg, fs, start = case
    a_world = NavEstimator(cfg, fs).world_accel(acc, q)
    ref = prepare_gps_reference(t, gps_track(fixes), cfg.gps_mode, cfg.stale_after_s)
    vels = {}
    for alpha, beta in grid:
        cell = replace(cfg, alpha=alpha, beta=beta)
        nav = nav_estimator(cell, fs, start)
        if alpha not in vels:
            vels[alpha] = nav.blend_velocity(t, a_world, ref)
        lat, lon = nav.blend_position(t, vels[alpha], ref)
        alone = fuse_nav(nav_estimator(cell, fs, start), t, acc, q, fixes)
        for got, want in ((vels[alpha], alone.vel), (lat, alone.lat), (lon, alone.lon)):
            assert_same_bits(got, want)


@pytest.fixture(scope="module")
def seed5_accel_and_attitude():
    """The seed-5 standard flight's accel, its attitude quaternions and sample rate."""
    _, imu, _ = generate_flight(standard_profile(5), SensorNoiseModel())
    fs = estimate_sample_rate(imu.t)
    return imu.accel, AttitudeEstimator(FusionConfig(), fs).run(*imu).q, fs


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(0, 10**6), min_size=1, max_size=4))
def test_world_accel_split_matches_whole_stream(seed5_accel_and_attitude, cuts):
    """Only the stream's first sample primes the Butterworth delay lines, so
    ``world_accel`` over a stream split into calls, with no blend pass
    between them, is the whole-stream call bit for bit."""
    acc, q, fs = seed5_accel_and_attitude
    whole = NavEstimator(FusionConfig(), fs).world_accel(acc, q)
    nav = NavEstimator(FusionConfig(), fs)
    parts = [nav.world_accel(acc[lo:hi], q[lo:hi]) for lo, hi in chunks(len(acc), cuts)]
    assert_same_bits(np.concatenate(parts), whole)


def test_sweep_cells_matches_per_cell_fusion():
    profile = FlightProfile(segments=(FlightSegment("turn", 12.0, yaw_rate_dps=6.0),), seed=9)
    grids = (
        [(0.0, 1.0), (0.3, 0.7), (1.0, 0.0)],
        # alphas repeated, not square, cells out of order
        [(0.3, 0.7), (0.0, 1.0), (0.3, 0.1), (1.0, 0.0), (0.3, 0.7), (0.0, 0.5), (1.0, 0.9)],
        # -0.0 and 0.0 are two alphas
        [(-0.0, 0.4), (0.0, 0.4), (-0.0, 0.9), (0.0, 0.0)],
    )
    truth, imu, fixes = generate_flight(profile, SensorNoiseModel())
    fs = estimate_sample_rate(imu.t)  # the rate replay designs at, not the profile's
    for cfg in (
        FusionConfig(),
        # the earth radius and GPS mode are not read: the sweep runs replay on the profile's earth
        FusionConfig(accel_lp_hz=2.0, gyro_hp_hz=0.5, declination_deg=5.0, cutoff_hz=3.0, stale_after_s=0.5,
                     lon_scale_correction=True, earth_radius_m=1.0, gps_mode="live"),
    ):
        q = AttitudeEstimator(cfg, fs).run(*imu).q
        for grid in grids:
            want = []
            for a, b in grid:
                cell = replace(cfg, alpha=a, beta=b, earth_radius_m=profile.earth_radius_m, gps_mode="replay")
                nav = fuse_nav(NavEstimator(cell, fs), imu.t, imu.accel, q, fixes)
                err = track_error(align_to_truth(imu.t, truth.t), nav.lat, nav.lon, truth, profile.earth_radius_m)
                want.append(SweepCell(a, b, err.lat_m, err.lon_m))
            got = list(sweep_cells(profile, SensorNoiseModel(), grid, cfg))
            assert got == want
            assert [math.copysign(1.0, c.alpha) for c in got] == [math.copysign(1.0, a) for a, _ in grid]
