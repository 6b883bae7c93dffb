import math
import random

import pytest

from netevolve import InsufficientDataError, degree_histogram, fit_powerlaw, loglog_points
from netevolve.generators import barabasi_albert
from oracles import loglog_fit_brute


class TestLogLogPoints:
    def test_log10_arithmetic(self):
        points = loglog_points({1: 400, 2: 100, 4: 25})
        expected = [
            (math.log10(1), math.log10(400)),
            (math.log10(2), math.log10(100)),
            (math.log10(4), math.log10(25)),
        ]
        assert points == pytest.approx(expected)

    def test_degree_zero_excluded_leaving_single_point(self):
        with pytest.raises(InsufficientDataError):
            loglog_points({0: 7, 1: 3})

    def test_regular_histogram_insufficient(self):
        with pytest.raises(InsufficientDataError):
            loglog_points({3: 4})

    def test_zero_counts_excluded(self):
        points = loglog_points({1: 10, 2: 0, 3: 5})
        assert len(points) == 2

    def test_empty_histogram(self):
        with pytest.raises(InsufficientDataError):
            loglog_points({})


class TestFitPowerlaw:
    def test_exact_inverse_square(self):
        fit = fit_powerlaw({1: 400, 2: 100, 4: 25})
        assert fit.exponent == pytest.approx(2.0, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
        assert fit.n_points == 3

    @pytest.mark.parametrize("exponent", [1.0, 1.5, 2.0, 3.0])
    def test_recovers_generating_exponent(self, exponent):
        degrees = [1, 2, 4, 8, 16]
        hist = {k: 409600.0 * k**-exponent for k in degrees}
        assert all(c >= 1 for c in hist.values())
        fit = fit_powerlaw(hist)
        assert fit.exponent == pytest.approx(exponent, abs=1e-9)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-9)

    def test_flat_histogram_degenerate_horizontal_fit(self):
        fit = fit_powerlaw({1: 10, 2: 10, 4: 10})
        assert fit.exponent == 0.0
        assert math.copysign(1.0, fit.exponent) == 1.0  # 0.0, never -0.0
        assert fit.r_squared == 1.0

    def test_symmetric_histogram_fits_r_squared_zero(self):
        # the line through these points is flat, and rounding leaves the raw
        # r² at -2.2e-16, which the clamp raises to 0
        assert fit_powerlaw({4: 4, 8: 1, 16: 4}).r_squared == 0.0

    def test_degrees_equal_in_float_are_insufficient(self):
        # two distinct degrees whose log10 both round to 17.0
        with pytest.raises(InsufficientDataError, match="^all usable degrees are equal$"):
            fit_powerlaw({10**17: 1, 10**17 + 1: 1})

    def test_scale_invariance_of_slope(self):
        rng = random.Random(3)
        for _ in range(20):
            hist = {k: rng.randint(1, 500) for k in rng.sample(range(1, 40), 6)}
            base = fit_powerlaw(hist)
            scaled = fit_powerlaw({k: 17 * c for k, c in hist.items()})
            assert scaled.exponent == pytest.approx(base.exponent, abs=1e-12)
            assert scaled.r_squared == pytest.approx(base.r_squared, abs=1e-12)
            assert scaled.intercept != pytest.approx(base.intercept)

    def test_input_order_insensitive(self):
        hist = {1: 300, 2: 90, 3: 44, 7: 10}
        reversed_hist = dict(reversed(list(hist.items())))
        assert fit_powerlaw(hist) == fit_powerlaw(reversed_hist)

    def test_ba_graph_fit_matches_reference_regression(self):
        graph = barabasi_albert(2000, 3, seed=11)
        hist = degree_histogram(graph)
        fit = fit_powerlaw(hist)
        exponent, intercept, r_squared = loglog_fit_brute(hist)
        assert fit.exponent == pytest.approx(exponent, abs=1e-9)
        assert fit.intercept == pytest.approx(intercept, abs=1e-9)
        assert fit.r_squared == pytest.approx(r_squared, abs=1e-9)
        assert 1.5 <= fit.exponent <= 3.5
        assert fit.r_squared > 0.7
