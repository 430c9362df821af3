import math
import warnings

import numpy as np
import pytest

from backproc import (
    SimConfig,
    apply_prevalent_shift,
    band_critical_values,
    bands,
    backward_curve,
    default_grid,
    generate_cohort,
)
from backproc.backward import WindowEngine
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
        # the fit comes with the critical values, on the cohort, window and grid given
        fit = band_critical_values(cohort, property_window, GRID, m=50, seed=0)
        curve = backward_curve(cohort, property_window, GRID)
        assert np.array_equal(fit.curve.grid, GRID) and fit.curve.n == cohort.n
        assert np.array_equal(fit.curve.mu, curve.mu)
        assert np.array_equal(fit.curve.sigma, curve.sigma)
        # a grid outside [0, tau0] is rejected before the multipliers are drawn
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="outside"):
            band_critical_values(cohort, property_window, [0.5, 2.0], m=50, seed=rng)
        assert rng.bit_generator.state == state

    def test_mean_zero_over_draws(self, cohort, property_window):
        eng = WindowEngine(cohort, property_window)
        psi = eng.psi_matrix(eng.v_matrix(GRID))
        m = 4000
        g = np.random.default_rng(1).standard_normal((m, psi.shape[0]))
        draws = g @ psi / math.sqrt(cohort.n)
        se = draws.std(axis=0) / np.sqrt(m)
        assert np.all(np.abs(draws.mean(axis=0)) <= 4 * se)
        # band_critical_values takes its sup over these same draws
        fit = band_critical_values(cohort, property_window, GRID, m=m, seed=1)
        assert fit.b == _quantile_ceil(np.sort(np.max(np.abs(draws), axis=1)), 0.05)
        assert fit.b_star == _quantile_ceil(
            np.sort(np.max(np.abs(draws) / fit.curve.sigma, axis=1)), 0.05)


class TestCriticalValues:
    def test_deterministic_given_seed(self, cohort, property_window):
        def critical(seed):
            fit = band_critical_values(cohort, property_window, GRID, m=500, seed=seed)
            return fit.b, fit.b_star

        a = critical(7)
        assert a == critical(7)
        assert a != critical(8)

    def test_simultaneous_dominates_pointwise(self, cohort, property_window):
        fit = band_critical_values(cohort, property_window, GRID, m=2000, seed=0)
        b, b_star = fit.b, fit.b_star
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
            fit = band_critical_values(cohort, window, grid, m=1000, seed=0)
            fit_small = band_critical_values(small, window, grid, m=1000, seed=0)
        assert fit_small.b < 1.96 < fit_small.b_star
        assert fit_small.b == pytest.approx(1e-3 * fit.b, rel=1e-12)
        assert fit_small.b_star == pytest.approx(fit.b_star, rel=1e-12)

    def test_warns_when_b_star_below_z(self, cohort, property_window):
        # on one grid point b_star estimates z itself; this seed falls below it
        with pytest.warns(UserWarning, match="b_star=1.9456 below pointwise z=1.9600"):
            band_critical_values(cohort, property_window, GRID[:1], m=200, seed=0)

    def test_equals_direct_formula_with_zero_sigma_column(self, cohort, property_window):
        # the lossless grid starts at u = 0, where no event is counted yet
        grid = default_grid(cohort, property_window)
        fit = band_critical_values(cohort, property_window, grid, m=300, seed=2)
        curve = fit.curve
        assert curve.sigma[0] == 0 and np.any(curve.sigma > 0)
        eng = WindowEngine(cohort, property_window)
        psi = eng.psi_matrix(eng.v_matrix(grid))
        g = np.random.default_rng(2).standard_normal((300, psi.shape[0]))
        w = g @ psi / math.sqrt(curve.n)
        pos = curve.sigma > 0
        assert fit.b == _quantile_ceil(np.sort(np.max(np.abs(w), axis=1)), 0.05)
        assert fit.b_star == _quantile_ceil(
            np.sort(np.max(np.abs(w[:, pos]) / curve.sigma[pos], axis=1)), 0.05)

    def test_argument_validation(self, cohort, property_window):
        with pytest.raises(ValueError):
            band_critical_values(cohort, property_window, GRID, m=0)
        with pytest.raises(ValueError):
            band_critical_values(cohort, property_window, GRID, alpha=1.5)

    def test_b_star_undefined_where_sigma_is_zero_everywhere(self, cohort, property_window):
        # at u = 0 no event is counted yet, so sigma_hat = 0 and no studentized sup exists
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = band_critical_values(cohort, property_window, [0.0], m=300, seed=0)
        assert fit.curve.sigma[0] == 0 and fit.b == 0
        assert math.isnan(fit.b_star)


class TestBands:
    def test_plain_band_contains_pointwise_ci(self, cohort, property_window):
        curve = backward_curve(cohort, property_window, GRID)
        b_star = band_critical_values(cohort, property_window, GRID, m=2000, seed=3).b_star
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

    @pytest.mark.parametrize("kind", ["plain", "log"])
    @pytest.mark.parametrize("critical_value", [-1.0, math.nan])
    def test_invalid_critical_value_raises(self, cohort, property_window, critical_value,
                                           kind):
        # a negative value inverts the band and a NaN blanks it
        curve = backward_curve(cohort, property_window, GRID)
        with pytest.raises(ValueError, match="critical value must be nonnegative"):
            bands(curve, critical_value, kind=kind)

    def test_unknown_kind(self, cohort, property_window):
        curve = backward_curve(cohort, property_window, GRID)
        with pytest.raises(ValueError):
            bands(curve, 2.0, kind="exp")


class TestScoredPoints:
    """The study scores its band at the grid points with sigma_hat > 0, the
    points the bootstrap's sup runs over. Below t*, the smallest backward
    offset of a positive mark of an in-window subject, every V_i(u) is 0, so
    sigma_hat > 0 only at or beyond t*; and b_star is NaN exactly when no
    sigma_hat is positive."""

    @staticmethod
    def t_star(cohort, window):
        offsets = [s.x - ev.time for s in cohort.subjects
                   if s.delta == 1 and window.t1 <= s.x < window.t2
                   for ev in s.events if ev.mark > 0]
        return min(offsets, default=math.inf)

    @staticmethod
    def grids(t_star, tau0, rng):
        """Unsorted grids with ties: one over [0, tau0], one with points at
        and around t*, and one wholly below t*."""
        spread = np.round(rng.uniform(0.0, tau0, 20), 1)
        near = [0.0, tau0] + ([] if math.isinf(t_star) else [t_star, t_star, t_star / 2])
        near = np.array(near + list(rng.uniform(0.0, tau0, 6)))
        below = t_star * np.round(rng.uniform(0.0, 1.0, 8), 1) if t_star <= tau0 else spread
        return [rng.permutation(np.minimum(g, tau0)) for g in (spread, near, below)]

    def check(self, cohort, window, rng, *grids):
        t_star = self.t_star(cohort, window)
        nan = 0
        for grid in [*self.grids(t_star, window.tau0, rng), *grids]:
            fit = band_critical_values(cohort, window, grid, m=50, seed=rng)
            positive = fit.curve.sigma > 0
            assert np.all(grid[positive] >= t_star)
            assert math.isnan(fit.b_star) == (not np.any(positive))
            nan += math.isnan(fit.b_star)
        return nan

    def test_random_cohorts_with_zero_marks(self, property_window):
        rng = np.random.default_rng(16)
        nan = 0
        for seed in range(40):
            c = random_cohort(seed)
            # about half the marks set to 0
            mark = np.where(rng.random(c.mark.size) < 0.5, 0.0, c.mark)
            c = Cohort.from_columns(c.ids, c.w, c.x, c.delta, c.ptr, c.time, mark)
            nan += self.check(c, property_window, rng)
        assert nan > 0  # the NaN side of the rule is exercised

    @pytest.mark.parametrize("shift", [False, True])
    def test_study_cohorts(self, shift):
        config = SimConfig(n=100, shift_prevalent=shift)
        rng = np.random.default_rng(17)
        for seed in range(6):
            c = generate_cohort(config, seed)
            if shift:
                c = apply_prevalent_shift(c, config.tau0)
            self.check(c, config.window(), rng, np.array(config.u_grid))
