"""Digital IIR sections: 2nd-order Butterworth / Chebyshev-I low-pass and
1st-order LP/HP, all expressed as normalized biquads and evaluated in
direct-form-II transposed.

Designs discretize the analog prototypes with the bilinear transform and
frequency pre-warping, so the -3 dB point of the Butterworth lands exactly on
the requested cutoff.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class BiquadCoeffs:
    """Normalized biquad (a0 = 1). First-order sections set b2 = a2 = 0."""

    b0: float
    b1: float
    b2: float
    a1: float
    a2: float
    sample_rate_hz: float
    cutoff_hz: float

    def dc_gain(self) -> float:
        return (self.b0 + self.b1 + self.b2) / (1.0 + self.a1 + self.a2)


def _check_band(cutoff_hz: float, sample_rate_hz: float) -> None:
    if sample_rate_hz <= 0:
        raise ValueError(f"sample rate must be positive, got {sample_rate_hz}")
    if not 0.0 < cutoff_hz < 0.5 * sample_rate_hz:
        raise ValueError(
            f"cutoff {cutoff_hz} Hz must lie strictly inside (0, Nyquist={0.5 * sample_rate_hz}) Hz"
        )


def _bilinear_second_order(c0: float, c1: float, num: float, fc: float, fs: float) -> BiquadCoeffs:
    # Analog prototype num / (s^2 + c1 s + c0), mapped by s = 2 fs (z-1)/(z+1).
    k = 2.0 * fs
    a0 = k * k + c1 * k + c0
    return BiquadCoeffs(
        b0=num / a0,
        b1=2.0 * num / a0,
        b2=num / a0,
        a1=(2.0 * c0 - 2.0 * k * k) / a0,
        a2=(k * k - c1 * k + c0) / a0,
        sample_rate_hz=fs,
        cutoff_hz=fc,
    )


def design_butterworth2_lp(cutoff_hz: float, sample_rate_hz: float) -> BiquadCoeffs:
    """Second-order Butterworth low-pass, wc^2 / (s^2 + sqrt(2) wc s + wc^2)."""
    _check_band(cutoff_hz, sample_rate_hz)
    wc = 2.0 * sample_rate_hz * math.tan(math.pi * cutoff_hz / sample_rate_hz)
    return _bilinear_second_order(wc * wc, SQRT2 * wc, wc * wc, cutoff_hz, sample_rate_hz)


def design_chebyshev1_2_lp(cutoff_hz: float, sample_rate_hz: float, ripple_db: float = 1.0) -> BiquadCoeffs:
    """Second-order Chebyshev type-I low-pass with the given passband ripple."""
    _check_band(cutoff_hz, sample_rate_hz)
    if not 0.0 < ripple_db <= 3.0:
        raise ValueError(f"ripple must be in (0, 3] dB, got {ripple_db}")
    eps = math.sqrt(10.0 ** (ripple_db / 10.0) - 1.0)
    v = math.asinh(1.0 / eps) / 2.0
    wc = 2.0 * sample_rate_hz * math.tan(math.pi * cutoff_hz / sample_rate_hz)
    # Conjugate pole pair of the normalized prototype at theta = pi/4.
    pr = -math.sinh(v) * math.sin(math.pi / 4.0)
    pi_ = math.cosh(v) * math.cos(math.pi / 4.0)
    c1 = -2.0 * pr * wc
    c0 = (pr * pr + pi_ * pi_) * wc * wc
    # Even-order Chebyshev-I: DC sits at the bottom of the ripple band.
    num = c0 / math.sqrt(1.0 + eps * eps)
    return _bilinear_second_order(c0, c1, num, cutoff_hz, sample_rate_hz)


def design_first_order_lp(cutoff_hz: float, sample_rate_hz: float) -> BiquadCoeffs:
    """Single-pole low-pass, wc / (s + wc), in biquad form (b2 = a2 = 0)."""
    _check_band(cutoff_hz, sample_rate_hz)
    wc = 2.0 * sample_rate_hz * math.tan(math.pi * cutoff_hz / sample_rate_hz)
    k = 2.0 * sample_rate_hz
    a0 = k + wc
    return BiquadCoeffs(
        b0=wc / a0,
        b1=wc / a0,
        b2=0.0,
        a1=(wc - k) / a0,
        a2=0.0,
        sample_rate_hz=sample_rate_hz,
        cutoff_hz=cutoff_hz,
    )


def design_first_order_hp(cutoff_hz: float, sample_rate_hz: float) -> BiquadCoeffs:
    """Single-pole high-pass, s / (s + wc)."""
    _check_band(cutoff_hz, sample_rate_hz)
    wc = 2.0 * sample_rate_hz * math.tan(math.pi * cutoff_hz / sample_rate_hz)
    k = 2.0 * sample_rate_hz
    a0 = k + wc
    return BiquadCoeffs(
        b0=k / a0,
        b1=-k / a0,
        b2=0.0,
        a1=(wc - k) / a0,
        a2=0.0,
        sample_rate_hz=sample_rate_hz,
        cutoff_hz=cutoff_hz,
    )


@dataclass
class FilterState:
    """Streaming biquad state (direct-form-II transposed, two delay slots)."""

    coeffs: BiquadCoeffs
    s1: float = field(default=0.0)
    s2: float = field(default=0.0)

    def reset(self) -> None:
        self.s1 = 0.0
        self.s2 = 0.0

    def prime(self, x0: float) -> None:
        """Set the delay line to the steady state for a constant input x0.

        Starts a stream without the power-on transient: the first output is
        dc_gain * x0 instead of b0 * x0.
        """
        c = self.coeffs
        h = c.dc_gain()
        self.s1, self.s2 = h * x0 - c.b0 * x0, c.b2 * x0 - c.a2 * h * x0

    def step(self, x: float) -> float:
        if not math.isfinite(x):
            raise ValueError(f"non-finite filter input {x}")
        c = self.coeffs
        y = c.b0 * x + self.s1
        self.s1 = c.b1 * x - c.a1 * y + self.s2
        self.s2 = c.b2 * x - c.a2 * y
        return y

    def run(self, x: np.ndarray) -> np.ndarray:
        """Filter a column, advancing the delay line: ``step`` over each
        value, bit for bit, without its finiteness check."""
        c = self.coeffs
        b0, b1, b2, a1, a2 = c.b0, c.b1, c.b2, c.a1, c.a2
        s1, s2 = self.s1, self.s2
        x = np.ascontiguousarray(x, dtype=np.float64)
        y = np.empty_like(x)
        for i, xi in enumerate(x.tolist()):
            yi = b0 * xi + s1
            s1 = b1 * xi - a1 * yi + s2
            s2 = b2 * xi - a2 * yi
            y[i] = yi
        self.s1, self.s2 = s1, s2
        return y


def frequency_response(coeffs: BiquadCoeffs, f_hz: float) -> float:
    """|H(e^{j 2 pi f / fs})| evaluated exactly from the coefficients."""
    fs = coeffs.sample_rate_hz
    if not 0.0 <= f_hz <= 0.5 * fs:
        raise ValueError(f"frequency {f_hz} Hz outside [0, Nyquist]")
    z = cmath.exp(2j * math.pi * f_hz / fs)
    num = coeffs.b0 + coeffs.b1 / z + coeffs.b2 / (z * z)
    den = 1.0 + coeffs.a1 / z + coeffs.a2 / (z * z)
    return abs(num / den)


def poles(coeffs: BiquadCoeffs) -> tuple[complex, ...]:
    """Roots of the denominator z-polynomial (for stability checks)."""
    if coeffs.a2 == 0.0:
        return (complex(-coeffs.a1),) if coeffs.a1 != 0.0 else ()
    disc = cmath.sqrt(coeffs.a1 * coeffs.a1 - 4.0 * coeffs.a2)
    return ((-coeffs.a1 + disc) / 2.0, (-coeffs.a1 - disc) / 2.0)
