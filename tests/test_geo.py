import math

import numpy as np
import pytest

from navfuse.geo import EarthModel, GeoPoint, bearing, meters_to_degrees_lat

# Frozen via a 50-digit mpmath evaluation of the forward-azimuth formula.
BEARING_10_20_TO_35_45 = 0.67113911584897614


class TestGeoPoint:
    def test_valid(self):
        p = GeoPoint(-7.765, 110.37)
        assert (p.lat, p.lon) == (-7.765, 110.37)

    @pytest.mark.parametrize("lat,lon", [(91, 0), (-91, 0), (0, 181), (0, -180), (float("nan"), 0)])
    def test_invalid_rejected(self, lat, lon):
        with pytest.raises(ValueError):
            GeoPoint(lat, lon)


class TestBearing:
    def test_due_north(self):
        assert bearing(0, 0, 1, 0) == pytest.approx(0.0, abs=1e-12)

    def test_due_east(self):
        assert bearing(0, 0, 0, 1) == pytest.approx(math.pi / 2, abs=1e-12)

    def test_matches_high_precision_oracle(self):
        assert bearing(10, 20, 35, 45) == pytest.approx(
            BEARING_10_20_TO_35_45, abs=1e-12
        )

    def test_range(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            a = (rng.uniform(-80, 80), rng.uniform(-179, 179))
            b = (rng.uniform(-80, 80), rng.uniform(-179, 179))
            if a == b:
                continue
            th = bearing(*a, *b)
            assert 0.0 <= th < 2 * math.pi

    def test_small_east_offsets(self):
        for x in (1e-9, 1e-6, 1e-3, 0.1):
            assert bearing(0, 0, 0, x) == pytest.approx(math.pi / 2, abs=1e-9)

    def test_reverse_differs_by_pi_for_nearby_equatorial_points(self):
        fwd = bearing(0.0, 0.0, 0.001, 0.002)
        rev = bearing(0.001, 0.002, 0.0, 0.0)
        assert abs(abs(fwd - rev) - math.pi) < 1e-6


class TestMeterDegreeScaling:
    def test_zero(self):
        assert meters_to_degrees_lat(0.0) == 0.0

    def test_factor_inverse(self):
        d = math.pi * 6_371_000.0 / 180.0
        assert meters_to_degrees_lat(d) == pytest.approx(1.0, rel=1e-12)

    def test_one_meter(self):
        assert meters_to_degrees_lat(1.0) == pytest.approx(8.9932e-6, rel=1e-4)

    def test_roundtrip_identity(self):
        rng = np.random.default_rng(12)
        for d in rng.uniform(-1e6, 1e6, 100):
            assert meters_to_degrees_lat(d) * math.pi * 6_371_000.0 / 180.0 == pytest.approx(d, rel=1e-12)

    def test_linear(self):
        assert meters_to_degrees_lat(5.0) == pytest.approx(5 * meters_to_degrees_lat(1.0), rel=1e-12)

    def test_custom_radius(self):
        e = EarthModel(radius_m=1_000_000.0)
        assert meters_to_degrees_lat(1_000_000.0 * math.pi / 180.0, e) == pytest.approx(1.0, rel=1e-12)


def test_earth_model_validation():
    with pytest.raises(ValueError):
        EarthModel(radius_m=0.0)
