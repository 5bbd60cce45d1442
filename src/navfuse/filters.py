"""Digital IIR sections: 2nd-order Butterworth / Chebyshev-I low-pass and
1st-order LP/HP, all expressed as normalized biquads and evaluated in
direct-form-II transposed.

``FilterState.run`` filters a column as a generator over its
``.tolist()``, drained by one ``np.fromiter``.

Designs discretize the analog prototypes with the bilinear transform and
frequency pre-warping, so the -3 dB point of the Butterworth lands exactly on
the requested cutoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

SQRT2 = math.sqrt(2.0)
CHEBYSHEV_RIPPLE_DB = 1.0


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


def _prewarp(cutoff_hz: float, sample_rate_hz: float) -> float:
    """The analog cutoff wc = 2 fs tan(pi fc / fs), rad/s, that the bilinear
    transform maps onto ``cutoff_hz``; raises unless the cutoff lies strictly
    inside (0, Nyquist)."""
    if sample_rate_hz <= 0:
        raise ValueError(f"sample rate must be positive, got {sample_rate_hz}")
    if not 0.0 < cutoff_hz < 0.5 * sample_rate_hz:
        raise ValueError(
            f"cutoff {cutoff_hz} Hz must lie strictly inside (0, Nyquist={0.5 * sample_rate_hz}) Hz"
        )
    return 2.0 * sample_rate_hz * math.tan(math.pi * cutoff_hz / sample_rate_hz)


def _bilinear_first_order(n1: float, n0: float, wc: float, fc: float, fs: float) -> BiquadCoeffs:
    # Analog prototype (n1 s + n0) / (s + wc), mapped by s = 2 fs (z-1)/(z+1).
    k = 2.0 * fs
    a0 = k + wc
    return BiquadCoeffs(
        b0=(n1 * k + n0) / a0,
        b1=(n0 - n1 * k) / a0,
        b2=0.0,
        a1=(wc - k) / a0,
        a2=0.0,
        sample_rate_hz=fs,
        cutoff_hz=fc,
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
    wc = _prewarp(cutoff_hz, sample_rate_hz)
    return _bilinear_second_order(wc * wc, SQRT2 * wc, wc * wc, cutoff_hz, sample_rate_hz)


def design_chebyshev1_2_lp(cutoff_hz: float, sample_rate_hz: float) -> BiquadCoeffs:
    """Second-order Chebyshev type-I low-pass with ``CHEBYSHEV_RIPPLE_DB`` of
    passband ripple."""
    wc = _prewarp(cutoff_hz, sample_rate_hz)
    eps = math.sqrt(10.0 ** (CHEBYSHEV_RIPPLE_DB / 10.0) - 1.0)
    v = math.asinh(1.0 / eps) / 2.0
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
    wc = _prewarp(cutoff_hz, sample_rate_hz)
    return _bilinear_first_order(0.0, wc, wc, cutoff_hz, sample_rate_hz)


def design_first_order_hp(cutoff_hz: float, sample_rate_hz: float) -> BiquadCoeffs:
    """Single-pole high-pass, s / (s + wc)."""
    wc = _prewarp(cutoff_hz, sample_rate_hz)
    return _bilinear_first_order(1.0, 0.0, wc, cutoff_hz, sample_rate_hz)


def design_option(design, option: str, cutoff_hz: float, sample_rate_hz: float) -> BiquadCoeffs:
    """``design(cutoff_hz, sample_rate_hz)`` for a cutoff that the fusion
    option ``option`` set: a refusal ends with the option's name."""
    try:
        return design(cutoff_hz, sample_rate_hz)
    except ValueError as e:
        raise ValueError(f"{e} (option {option!r})") from None


@dataclass
class FilterState:
    """Streaming biquad state (direct-form-II transposed, two delay slots)."""

    coeffs: BiquadCoeffs
    s1: float = field(default=0.0)
    s2: float = field(default=0.0)

    def prime(self, x0: float) -> None:
        """Set the delay line to the steady state for a constant input x0.

        Starts a stream without the power-on transient: the first output is
        dc_gain * x0 instead of b0 * x0.
        """
        c = self.coeffs
        h = c.dc_gain()
        self.s1, self.s2 = h * x0 - c.b0 * x0, c.b2 * x0 - c.a2 * h * x0

    def run(self, x: np.ndarray) -> np.ndarray:
        """Filter a column, advancing the delay line: bit for bit the per-value
        ``step`` of ``tests/reference.py``, without its finiteness check. The
        loop is a generator over the column's ``.tolist()``, drained by one
        ``np.fromiter``. The generator writes the delay line back after its
        loop, which a drain with ``count`` would stop short of, so the drain
        takes none."""
        return np.fromiter(self._outputs(np.asarray(x, dtype=np.float64).tolist()), dtype=np.float64)

    def _outputs(self, xs: list):
        c = self.coeffs
        b0, b1, b2, a1, a2 = c.b0, c.b1, c.b2, c.a1, c.a2
        s1, s2 = self.s1, self.s2
        for xi in xs:
            yi = b0 * xi + s1
            s1 = b1 * xi - a1 * yi + s2
            s2 = b2 * xi - a2 * yi
            yield yi
        self.s1, self.s2 = s1, s2
