"""Spherical-earth geodesy: forward bearing and meter/degree scaling."""

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


@dataclass(frozen=True)
class EarthModel:
    radius_m: float = EARTH_RADIUS_M

    def __post_init__(self):
        if self.radius_m <= 0:
            raise ValueError("earth radius must be positive")


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


def meters_to_degrees_lat(d: float, earth: EarthModel = EarthModel()) -> float:
    """Linear north-displacement conversion, d * 180 / (pi * r_e)."""
    return d * 180.0 / (math.pi * earth.radius_m)
