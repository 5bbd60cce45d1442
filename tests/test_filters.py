import math

import numpy as np
import pytest
from reference import frequency_response, poles, step
from scipy import signal

from navfuse.filters import (
    CHEBYSHEV_RIPPLE_DB,
    FilterState,
    design_butterworth2_lp,
    design_chebyshev1_2_lp,
    design_first_order_hp,
    design_first_order_lp,
)

DB01 = 10 ** (0.1 / 20) - 1  # 0.1 dB as a relative magnitude band


def run_filter(coeffs, x, prime=None):
    f = FilterState(coeffs)
    if prime is not None:
        f.prime(prime)
    return np.array([step(f, v) for v in x])


def step_response(coeffs, n):
    return run_filter(coeffs, np.ones(n))


class TestButterworth:
    def test_matches_scipy_bilinear_oracle(self):
        c = design_butterworth2_lp(10.0, 1000.0)
        b, a = signal.butter(2, 10.0, fs=1000.0)
        np.testing.assert_allclose([c.b0, c.b1, c.b2], b, rtol=1e-9)
        np.testing.assert_allclose([1.0, c.a1, c.a2], a, rtol=1e-9)

    def test_dc_gain_unity(self):
        for fc, fs in [(10, 1000), (5, 60), (0.5, 20), (40, 100)]:
            c = design_butterworth2_lp(fc, fs)
            assert c.dc_gain() == pytest.approx(1.0, abs=1e-6)

    def test_minus_3db_at_cutoff(self):
        c = design_butterworth2_lp(10.0, 1000.0)
        assert frequency_response(c, 10.0) == pytest.approx(1 / math.sqrt(2), rel=DB01)

    def test_monotone_magnitude(self):
        c = design_butterworth2_lp(10.0, 1000.0)
        freqs = np.linspace(0.0, 500.0, 100)
        mags = [frequency_response(c, f) for f in freqs]
        assert all(b <= a + 1e-12 for a, b in zip(mags, mags[1:]))

    def test_stable_poles(self):
        for fc, fs in [(10, 1000), (5, 60), (10, 60), (0.1, 60)]:
            c = design_butterworth2_lp(fc, fs)
            assert all(abs(p) < 1 - 1e-9 for p in poles(c))

    def test_cutoff_validation(self):
        with pytest.raises(ValueError):
            design_butterworth2_lp(500.0, 1000.0)
        with pytest.raises(ValueError):
            design_butterworth2_lp(0.0, 1000.0)


class TestChebyshev:
    def test_matches_scipy_oracle(self):
        c = design_chebyshev1_2_lp(10.0, 1000.0)
        b, a = signal.cheby1(2, 1.0, 10.0, fs=1000.0)
        np.testing.assert_allclose([c.b0, c.b1, c.b2], b, rtol=1e-9)
        np.testing.assert_allclose([1.0, c.a1, c.a2], a, rtol=1e-9)

    def test_dc_gain_within_ripple_band(self):
        c = design_chebyshev1_2_lp(10.0, 1000.0)
        g = c.dc_gain()
        assert 10 ** (-CHEBYSHEV_RIPPLE_DB / 20) - 1e-9 <= g <= 1.0 + 1e-9

    def test_rolls_off_faster_than_butterworth(self):
        ch = design_chebyshev1_2_lp(10.0, 1000.0)
        bw = design_butterworth2_lp(10.0, 1000.0)
        assert frequency_response(ch, 100.0) < frequency_response(bw, 100.0)

    def test_step_overshoot_exceeds_butterworth(self):
        ch = design_chebyshev1_2_lp(10.0, 1000.0)
        bw = design_butterworth2_lp(10.0, 1000.0)
        n = 2000
        over_ch = step_response(ch, n).max() - frequency_response(ch, 0.0)
        over_bw = step_response(bw, n).max() - frequency_response(bw, 0.0)
        assert over_ch > over_bw > 0

    def test_stable(self):
        c = design_chebyshev1_2_lp(10.0, 60.0)
        assert all(abs(p) < 1 - 1e-9 for p in poles(c))


class TestFirstOrder:
    def test_hp_blocks_dc(self):
        c = design_first_order_hp(0.1, 60.0)
        assert frequency_response(c, 0.0) == pytest.approx(0.0, abs=1e-9)

    def test_lp_passes_dc(self):
        c = design_first_order_lp(5.0, 60.0)
        assert frequency_response(c, 0.0) == pytest.approx(1.0, abs=1e-9)

    def test_lp_cutoff_matches_analytic_single_pole(self):
        # bilinear with pre-warping puts |H(fc)| exactly at 1/sqrt(2)
        c = design_first_order_lp(5.0, 60.0)
        assert frequency_response(c, 5.0) == pytest.approx(1 / math.sqrt(2), rel=DB01)

    def test_hp_nyquist_gain_unity(self):
        c = design_first_order_hp(0.1, 60.0)
        assert frequency_response(c, 30.0) == pytest.approx(1.0, abs=1e-6)

    def test_lp_nyquist_attenuated(self):
        c = design_first_order_lp(5.0, 60.0)
        assert frequency_response(c, 30.0) < 1 / math.sqrt(2)

    def test_biquad_form(self):
        c = design_first_order_lp(5.0, 60.0)
        assert c.b2 == 0.0 and c.a2 == 0.0


class TestStep:
    def test_zero_in_zero_out(self):
        c = design_butterworth2_lp(10.0, 1000.0)
        assert np.all(run_filter(c, np.zeros(100)) == 0.0)

    def test_dc_convergence(self):
        c = design_first_order_lp(5.0, 60.0)
        y = step_response(c, int(5 / 5.0 * 60) + 60)
        assert y[-1] == pytest.approx(1.0, abs=1e-6)

    def test_noise_variance_reduced(self):
        rng = np.random.default_rng(42)
        x = rng.normal(0, 1, 20000)
        c = design_butterworth2_lp(10.0, 1000.0)
        y = run_filter(c, x)
        assert y.var() < 0.1 * x.var()

    def test_linearity(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=500)
        y = rng.normal(size=500)
        c = design_butterworth2_lp(10.0, 100.0)
        lhs = run_filter(c, 2.0 * x + 3.0 * y)
        rhs = 2.0 * run_filter(c, x) + 3.0 * run_filter(c, y)
        np.testing.assert_allclose(lhs, rhs, atol=1e-9)

    def test_matches_scipy_lfilter(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=1000)
        c = design_butterworth2_lp(10.0, 1000.0)
        y = run_filter(c, x)
        ref = signal.lfilter([c.b0, c.b1, c.b2], [1.0, c.a1, c.a2], x)
        np.testing.assert_allclose(y, ref, atol=1e-12)

    def test_determinism(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=300)
        c = design_chebyshev1_2_lp(8.0, 100.0)
        np.testing.assert_array_equal(run_filter(c, x), run_filter(c, x))

    def test_non_finite_input_rejected(self):
        f = FilterState(design_butterworth2_lp(10.0, 1000.0))
        with pytest.raises(ValueError):
            step(f, float("nan"))

    def test_prime_removes_transient(self):
        c = design_first_order_hp(0.1, 60.0)
        y = run_filter(c, np.full(10, 7.0), prime=7.0)
        np.testing.assert_allclose(y, 0.0, atol=1e-12)


def test_frequency_response_range_check():
    c = design_butterworth2_lp(10.0, 1000.0)
    with pytest.raises(ValueError):
        frequency_response(c, 501.0)
