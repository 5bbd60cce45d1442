"""Spherical-earth geodesy: forward bearing and the earth-radius check.

The earth is a sphere of one radius, a plain float in meters:
``FusionConfig.earth_radius_m`` for the estimators and
``FlightProfile.earth_radius_m`` for the simulated flight, both
``EARTH_RADIUS_M`` unless set and both checked by ``check_earth_radius``.
"""

from __future__ import annotations

import math

EARTH_RADIUS_M = 6_371_000.0


def check_earth_radius(radius_m: float) -> None:
    """Raise unless ``radius_m`` is a positive, finite earth radius."""
    if not 0.0 < radius_m < math.inf:
        raise ValueError(f"earth radius must be positive and finite, got earth_radius_m={radius_m}")


def bearing(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Initial great-circle bearing from (lat1, lon1) to a distinct
    (lat2, lon2), degrees in, radians in [0, 2pi) out.

    0 is due north, pi/2 due east (clockwise-from-north compass convention).
    """
    phi1 = math.radians(lat1)
    phi2 = math.radians(lat2)
    dlon = math.radians(lon2 - lon1)
    dy = math.sin(dlon) * math.cos(phi2)
    dx = math.cos(phi1) * math.sin(phi2) - math.sin(phi1) * math.cos(phi2) * math.cos(dlon)
    theta = math.atan2(dy, dx)
    return theta % (2.0 * math.pi)
