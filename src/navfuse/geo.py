"""Spherical-earth geodesy: forward bearing and meter/degree scaling.

The earth is a sphere of one radius, a plain float in meters:
``FusionConfig.earth_radius_m`` for the estimators and
``FlightProfile.earth_radius_m`` for the simulated flight, both
``EARTH_RADIUS_M`` unless set and both checked by ``check_earth_radius``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

EARTH_RADIUS_M = 6_371_000.0


@dataclass(frozen=True)
class GeoPoint:
    """Geographic position in degrees, lat in [-90, 90], lon in (-180, 180]."""

    lat: float
    lon: float

    def __post_init__(self):
        if not (math.isfinite(self.lat) and math.isfinite(self.lon)):
            raise ValueError("GeoPoint components must be finite")
        if not -90.0 <= self.lat <= 90.0:
            raise ValueError(f"latitude {self.lat} outside [-90, 90]")
        if not -180.0 < self.lon <= 180.0:
            raise ValueError(f"longitude {self.lon} outside (-180, 180]")


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


def meters_to_degrees_lat(d: float, radius_m: float = EARTH_RADIUS_M) -> float:
    """Linear north-displacement conversion, d * 180 / (pi * r_e)."""
    return d * 180.0 / (math.pi * radius_m)
