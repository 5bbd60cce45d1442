"""Scalar reference implementations that the tests check the package against:
``Quaternion``, the quaternion algebra one value at a time (scalar-first,
Hamilton product, ZYX Euler angles in radians, ``normalize`` gives ``w >= 0``),
for ``navfuse.quat``; ``step``, the biquad recursion one value at a time, for
``FilterState.run``; and ``frequency_response`` and ``poles`` of a design.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from navfuse.filters import BiquadCoeffs, FilterState

_UNIT_TOL = 1e-6


class DegenerateQuaternionError(ValueError):
    """Quaternion norm too small to normalize."""


class EulerAngles(NamedTuple):
    """Roll, pitch, yaw in radians (ZYX convention)."""

    roll: float
    pitch: float
    yaw: float


def wrap_pi(angle: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    r = math.fmod(angle + math.pi, 2.0 * math.pi)
    if r <= 0.0:
        r += 2.0 * math.pi
    return r - math.pi


@dataclass(frozen=True)
class Quaternion:
    w: float
    x: float
    y: float
    z: float

    @classmethod
    def identity(cls) -> "Quaternion":
        return cls(1.0, 0.0, 0.0, 0.0)

    @classmethod
    def from_axis_angle(cls, axis: Sequence[float], angle: float) -> "Quaternion":
        """Quaternion rotating by ``angle`` about a unit ``axis``."""
        ax, ay, az = axis
        norm = math.sqrt(ax * ax + ay * ay + az * az)
        if abs(norm - 1.0) > 1e-6:
            raise ValueError(f"rotation axis must be unit length, |axis| = {norm}")
        half = 0.5 * angle
        s = math.sin(half)
        return cls(math.cos(half), ax * s, ay * s, az * s)

    @classmethod
    def from_euler(cls, e: EulerAngles) -> "Quaternion":
        """Compose q_yaw(z) * q_pitch(y) * q_roll(x)."""
        qz = cls(math.cos(0.5 * e.yaw), 0.0, 0.0, math.sin(0.5 * e.yaw))
        qy = cls(math.cos(0.5 * e.pitch), 0.0, math.sin(0.5 * e.pitch), 0.0)
        qx = cls(math.cos(0.5 * e.roll), math.sin(0.5 * e.roll), 0.0, 0.0)
        return hamilton(hamilton(qz, qy), qx)

    def norm(self) -> float:
        return math.sqrt(self.w * self.w + self.x * self.x + self.y * self.y + self.z * self.z)

    def conjugate(self) -> "Quaternion":
        return Quaternion(self.w, -self.x, -self.y, -self.z)

    def normalize(self) -> "Quaternion":
        """Unit quaternion with the same direction, sign-canonicalized (w >= 0)."""
        n = self.norm()
        if n <= 1e-12:
            raise DegenerateQuaternionError(f"cannot normalize quaternion with norm {n}")
        w, x, y, z = self.w / n, self.x / n, self.y / n, self.z / n
        if w < 0.0:
            w, x, y, z = -w, -x, -y, -z
        return Quaternion(w, x, y, z)

    def rotate_vector(self, v: Sequence[float]) -> tuple[float, float, float]:
        """Rotate ``v``; equals ``to_rotation_matrix() @ v``."""
        _require_unit(self)
        p = Quaternion(0.0, v[0], v[1], v[2])
        r = hamilton(hamilton(self, p), self.conjugate())
        return (r.x, r.y, r.z)

    def to_rotation_matrix(self) -> np.ndarray:
        """3x3 direction-cosine matrix (row-major, orthogonal, det +1)."""
        _require_unit(self)
        w, x, y, z = self.w, self.x, self.y, self.z
        return np.array(
            [
                [1.0 - 2.0 * (y * y + z * z), 2.0 * (x * y - w * z), 2.0 * (x * z + w * y)],
                [2.0 * (x * y + w * z), 1.0 - 2.0 * (x * x + z * z), 2.0 * (y * z - w * x)],
                [2.0 * (x * z - w * y), 2.0 * (y * z + w * x), 1.0 - 2.0 * (x * x + y * y)],
            ]
        )

    def to_euler(self) -> EulerAngles:
        """ZYX extraction; the asin argument is clamped against round-off."""
        _require_unit(self)
        w, x, y, z = self.w, self.x, self.y, self.z
        roll = math.atan2(2.0 * (w * x + y * z), 1.0 - 2.0 * (x * x + y * y))
        sp = 2.0 * (w * y - x * z)
        pitch = math.asin(max(-1.0, min(1.0, sp)))
        yaw = math.atan2(2.0 * (w * z + x * y), 1.0 - 2.0 * (y * y + z * z))
        return EulerAngles(wrap_pi(roll), pitch, wrap_pi(yaw))


def hamilton(p: Quaternion, q: Quaternion) -> Quaternion:
    """Hamilton product p * q (non-commutative rotation composition)."""
    return Quaternion(
        p.w * q.w - p.x * q.x - p.y * q.y - p.z * q.z,
        p.w * q.x + p.x * q.w + p.y * q.z - p.z * q.y,
        p.w * q.y - p.x * q.z + p.y * q.w + p.z * q.x,
        p.w * q.z + p.x * q.y - p.y * q.x + p.z * q.w,
    )


def _require_unit(q: Quaternion) -> None:
    n = q.norm()
    if abs(n - 1.0) > _UNIT_TOL:
        raise ValueError(f"operation requires a unit quaternion, |q| = {n}")


def step(f: FilterState, x: float) -> float:
    """One value through the biquad ``f`` (direct-form-II transposed),
    advancing its delay line; ``FilterState.run`` is this over a column."""
    if not math.isfinite(x):
        raise ValueError(f"non-finite filter input {x}")
    c = f.coeffs
    y = c.b0 * x + f.s1
    f.s1 = c.b1 * x - c.a1 * y + f.s2
    f.s2 = c.b2 * x - c.a2 * y
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
