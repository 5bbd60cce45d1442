"""Quaternion array maths, one row per sample: the Euler-to-quaternion
assembly and the rotation of vectors by a quaternion.

Scalar-first unit quaternions ``(w, x, y, z)``, ``w >= 0``, rows of an
``(n, 4)`` array; Euler angles in the intrinsic ZYX (yaw-pitch-roll)
sequence, radians. R(q) takes a body-frame vector to the world frame. numpy
does only + - * / and sqrt, and every transcendental is ``math.*`` mapped
over the column (``_map``), so each row is bit-identical to the scalar
``Quaternion`` of ``tests/reference.py``.
"""

from __future__ import annotations

import math
from itertools import islice

import numpy as np


def _map(fn, *cols) -> np.ndarray:
    """``math`` function ``fn`` over float64 columns, element by element."""
    return np.fromiter(map(fn, *(c.tolist() for c in cols)), dtype=np.float64, count=len(cols[0]))


def from_euler(euler: np.ndarray) -> np.ndarray:
    """(n, 4) unit quaternions, ``w >= 0``, of (n, 3) roll/pitch/yaw rows.

    Column for column the operations of the scalar ``Quaternion.from_euler``
    (two Hamilton products, the ``0.0 * 0.0`` terms included) and
    ``normalize``, so every element is bit-identical to the scalar path.
    """
    half = 0.5 * euler
    crw, cpw, czw = (_map(math.cos, half[:, k]) for k in range(3))
    srw, spw, szw = (_map(math.sin, half[:, k]) for k in range(3))
    # h1 = qz * qy with qz = (czw, 0, 0, szw), qy = (cpw, 0, spw, 0)
    h1w = czw * cpw - 0.0 * 0.0 - 0.0 * spw - szw * 0.0
    h1x = czw * 0.0 + 0.0 * cpw + 0.0 * 0.0 - szw * spw
    h1y = czw * spw - 0.0 * 0.0 + 0.0 * cpw + szw * 0.0
    h1z = czw * 0.0 + 0.0 * spw - 0.0 * 0.0 + szw * cpw
    # q = h1 * qx with qx = (crw, srw, 0, 0)
    q = np.empty((len(euler), 4), dtype=np.float64)
    q[:, 0] = h1w * crw - h1x * srw - h1y * 0.0 - h1z * 0.0
    q[:, 1] = h1w * srw + h1x * crw + h1y * 0.0 - h1z * 0.0
    q[:, 2] = h1w * 0.0 - h1x * 0.0 + h1y * crw + h1z * srw
    q[:, 3] = h1w * 0.0 + h1x * 0.0 - h1y * srw + h1z * crw
    qw, qx, qy, qz = q.T
    q /= np.sqrt(qw * qw + qx * qx + qy * qy + qz * qz)[:, None]
    neg = q[:, 0] < 0.0
    q[neg] = -q[neg]
    return q


def _dcm(q: np.ndarray):
    """The direction-cosine matrix R(q) of (n, 4) unit quaternions, yielded
    row by row, each row three (n,) columns: a caller that stops early pays
    for no later row."""
    w, x, y, z = q.T
    xx, yy, zz = x * x, y * y, z * z
    wx, wy, wz = w * x, w * y, w * z
    xy, xz, yz = x * y, x * z, y * z
    yield 1.0 - 2.0 * (yy + zz), 2.0 * (xy - wz), 2.0 * (xz + wy)
    yield 2.0 * (xy + wz), 1.0 - 2.0 * (xx + zz), 2.0 * (yz - wx)
    yield 2.0 * (xz - wy), 2.0 * (yz + wx), 1.0 - 2.0 * (xx + yy)


def rotate(q: np.ndarray, vx, vy, vz, rows: int = 3) -> np.ndarray:
    """(n, rows) R(q) v per row, its first ``rows`` world components only:
    body-frame vectors (vx, vy, vz) in the world frame. Each component is an
    (n,) column or one value for every row."""
    return np.column_stack([a * vx + b * vy + c * vz for a, b, c in islice(_dcm(q), rows)])


def rotate_inverse(q: np.ndarray, vx, vy, vz) -> np.ndarray:
    """(n, 3) R(q)^T v per row: world-frame vectors in the body frame, the
    inverse of ``rotate``."""
    return np.column_stack([a * vx + b * vy + c * vz for a, b, c in zip(*_dcm(q))])
