import math

import numpy as np
import pytest

from navfuse.geo import bearing

# Frozen via a 50-digit mpmath evaluation of the forward-azimuth formula.
BEARING_10_20_TO_35_45 = 0.67113911584897614


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
