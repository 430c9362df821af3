import math
import warnings

import numpy as np
import pytest

from backproc import (
    SimConfig,
    band_critical_values,
    bands,
    backward_curve,
    generate_cohort,
)
from backproc.bands import _quantile_ceil
from backproc.model import Cohort

from conftest import random_cohort

GRID = np.array([0.2, 0.5, 1.0])


@pytest.fixture
def cohort():
    return random_cohort(21, n=60)


class TestMultiplierDraw:
    """The bootstrap process W = n^{-1/2} G psi, from the psi of the fit."""

    def test_shape_validation(self, cohort, property_window):
        curve = backward_curve(cohort, property_window, GRID)
        with pytest.raises(ValueError, match="another cohort, window or grid"):
            band_critical_values(cohort, property_window, GRID[:2], m=50, fit=curve)
        with pytest.raises(ValueError, match="another cohort, window or grid"):
            band_critical_values(random_cohort(22, n=61), property_window, GRID, m=50,
                                 fit=curve)

    def test_mean_zero_over_draws(self, cohort, property_window):
        curve = backward_curve(cohort, property_window, GRID)
        m = 4000
        g = np.random.default_rng(1).standard_normal((m, curve.psi.shape[0]))
        draws = g @ curve.psi / math.sqrt(cohort.n)
        se = draws.std(axis=0) / np.sqrt(m)
        assert np.all(np.abs(draws.mean(axis=0)) <= 4 * se)
        # band_critical_values takes its sup over these same draws
        b, b_star = band_critical_values(cohort, property_window, GRID, m=m, seed=1, fit=curve)
        assert b == _quantile_ceil(np.sort(np.max(np.abs(draws), axis=1)), 0.05)
        assert b_star == _quantile_ceil(
            np.sort(np.max(np.abs(draws) / curve.sigma, axis=1)), 0.05)


class TestCriticalValues:
    def test_deterministic_given_seed(self, cohort, property_window):
        a = band_critical_values(cohort, property_window, GRID, m=500, seed=7)
        b = band_critical_values(cohort, property_window, GRID, m=500, seed=7)
        assert a == b
        c = band_critical_values(cohort, property_window, GRID, m=500, seed=8)
        assert a != c

    def test_simultaneous_dominates_pointwise(self, cohort, property_window):
        b, b_star = band_critical_values(cohort, property_window, GRID, m=2000, seed=0)
        assert b_star >= 1.9  # close to or above the normal 97.5% point
        assert b > 0

    def test_warning_does_not_depend_on_the_marks_scale(self):
        # b is on the scale of the marks; b_star, compared with z, has no unit
        window = SimConfig().window()
        grid = np.linspace(0.0, 1.0, 101)
        cohort = generate_cohort(SimConfig(n=400), 12345)
        small = Cohort.from_columns(cohort.ids, cohort.w, cohort.x, cohort.delta,
                                    cohort.ptr, cohort.time, cohort.mark * 1e-3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            b, b_star = band_critical_values(cohort, window, grid, m=1000, seed=0)
            b_small, b_star_small = band_critical_values(small, window, grid, m=1000, seed=0)
        assert b_small < 1.96 < b_star_small
        assert b_small == pytest.approx(1e-3 * b, rel=1e-12)
        assert b_star_small == pytest.approx(b_star, rel=1e-12)

    def test_warns_when_b_star_below_z(self, cohort, property_window):
        # on one grid point b_star estimates z itself; this seed falls below it
        with pytest.warns(UserWarning, match="b_star=1.9456 below pointwise z=1.9600"):
            band_critical_values(cohort, property_window, GRID[:1], m=200, seed=0)

    def test_argument_validation(self, cohort, property_window):
        with pytest.raises(ValueError):
            band_critical_values(cohort, property_window, GRID, m=0)
        with pytest.raises(ValueError):
            band_critical_values(cohort, property_window, GRID, alpha=1.5)


class TestBands:
    def test_plain_band_contains_pointwise_ci(self, cohort, property_window):
        curve = backward_curve(cohort, property_window, GRID)
        _, b_star = band_critical_values(cohort, property_window, GRID, m=2000, seed=3)
        res = bands(curve, b_star)
        half = b_star * curve.sigma / np.sqrt(curve.n)
        assert res.band_lo == pytest.approx(curve.mu - half, rel=1e-12)
        assert res.band_hi == pytest.approx(curve.mu + half, rel=1e-12)

    def test_log_band_nonnegative_and_excludes_zero_points(self, cohort, property_window):
        grid = np.array([0.0, 0.5, 1.0])
        curve = backward_curve(cohort, property_window, grid)
        res = bands(curve, 2.5, kind="log")
        for k in range(grid.size):
            if k in res.excluded:
                assert np.isnan(res.band_lo[k]) and np.isnan(res.band_hi[k])
            else:
                assert res.band_lo[k] >= 0

    def test_unknown_kind(self, cohort, property_window):
        curve = backward_curve(cohort, property_window, GRID)
        with pytest.raises(ValueError):
            bands(curve, 2.0, kind="exp")
