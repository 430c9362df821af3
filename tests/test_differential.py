"""Every public estimator against its direct definition in ``reference.py``.

One row per estimator, each held to the tolerance that
``reference.TOLERANCES`` gives it, on the edge cohorts of
``reference.edge_cases`` and on two random cohorts; every row runs on each
drawn cohort, and a failure names its row. ``test_exports.py``
checks that every public function has a row here or is exempt.
"""

import math
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import example, given, settings

import backproc
from backproc import CohortValidationError, EstimandWindow, KernelSpec
from backproc import rate as rate_mod
from backproc.backward import WindowEngine
from backproc.rate import KERNELS

import reference as ref
from conftest import random_cohort, reordered_marks_cohort
from reference import TOLERANCES, assert_close

# every q the percentile tests have drawn, the extremes included
QS = [1e-9, 0.1, 0.25, 1 / 3, 0.5, 0.75, 0.9, 1 - 1e-9]
CANDIDATES = [0.05, 0.2, 0.4, 1.0]
CURVE_TOL = TOLERANCES["backward_curve"]


def grids(cohort, window, grid):
    """The drawn grid and the lossless one."""
    return grid, backproc.default_grid(cohort, window)


def check_backward_matrix(cohort, window, grid, tol):
    rows = cohort.in_window(window)
    assert rows.tolist() == ref.reference_in_window(cohort, window)
    for g in grids(cohort, window, grid):
        assert_close(cohort.backward_matrix(rows, g), ref.reference_v(cohort, rows, g), tol)


def check_product_limit(cohort, window, grid, tol):
    curve = backproc.product_limit(cohort)
    times, risk, jump, steps = ref.product_limit_terms(cohort)
    assert_close(curve.event_times, times, tol)
    assert_close(curve.risk_fraction, risk, tol)
    assert_close(curve.jump, jump, tol)
    assert_close(curve.s_left, steps[:-1], tol)


def check_survival_at(cohort, window, grid, tol):
    t = np.concatenate([cohort.w, cohort.x, cohort.time, [-1.0, 0.0, 100.0]])
    got = backproc.survival_at(backproc.product_limit(cohort), t)
    assert_close(got, ref.survival_by_definition(cohort, t), tol)


def check_default_grid(cohort, window, grid, tol):
    got = backproc.default_grid(cohort, window)
    assert_close(got, ref.reference_default_grid(cohort, window), tol)


def check_prevalent_shift(cohort, window, grid, tol):
    try:
        expected = ref.old_shift(cohort, window.tau0)
    except CohortValidationError:
        with pytest.raises(CohortValidationError, match="no subjects remain"):
            backproc.apply_prevalent_shift(cohort, window.tau0)
        return
    shifted = backproc.apply_prevalent_shift(cohort, window.tau0)
    assert shifted.subjects == expected
    assert_close(shifted.event_times, sorted({s.x for s in expected if s.delta == 1}), tol)


def check_weighted_sample(cohort, window, grid, tol):
    fit = ref.reference_fit(cohort, window)
    for u in (grid[0], window.tau0):
        ws = backproc.weighted_sample(cohort, window, u)
        assert_close(ws.values, ref.reference_v(cohort, fit.in_window, [u])[:, 0], tol)
        assert_close(ws.times, fit.x_in, tol)
        assert_close(ws.weights, fit.c_in / fit.n, tol)
        assert_close(ws.normalizer, fit.d, tol)


def check_backward_curve(cohort, window, grid, tol):
    for g in grids(cohort, window, grid):
        _, _, mu, sigma, _ = ref.dense_curve(cohort, window, g)
        curve = backproc.backward_curve(cohort, window, g)
        assert_close(curve.mu, mu, tol)
        assert_close(curve.sigma, sigma, tol)


def check_backward_mean(cohort, window, grid, tol):
    _, _, mu, _, _ = ref.dense_curve(cohort, window, grid)
    got = [backproc.backward_mean(cohort, window, float(u)) for u in grid]
    assert_close(got, mu, tol)


def check_covariance(cohort, window, grid, tol):
    fit, _, _, sigma, psi = ref.dense_curve(cohort, window, grid)
    pairs = list(zip(range(grid.size), range(grid.size - 1, -1, -1)))
    got = [backproc.covariance(cohort, window, float(grid[j]), float(grid[k])) for j, k in pairs]
    expected = [psi[:, j] @ psi[:, k] / fit.n for j, k in pairs]
    # relative to the largest variance on the grid
    assert np.all(np.abs(np.subtract(got, expected)) <= tol.of_max * np.max(sigma) ** 2)


def check_band_critical_values(cohort, window, grid, tol):
    fit = backproc.band_critical_values(cohort, window, grid, m=50, seed=1)
    ref_fit, v, mu, sigma, psi = ref.dense_curve(cohort, window, grid)
    b, b_star = ref.dense_critical_values(ref_fit, psi, sigma, 50, 1)
    assert_close(fit.curve.mu, mu, CURVE_TOL)
    assert_close(fit.curve.sigma, sigma, CURVE_TOL)
    # sigma is exactly zero where it is zero in exact arithmetic, in both,
    # and above rounding noise elsewhere, so that no sup is taken over noise
    assert np.all((sigma == 0) | (sigma > ref.psi_noise(ref_fit, v)))
    assert np.array_equal(sigma == 0, fit.curve.sigma == 0)
    assert_close([fit.b, fit.b_star], [b, b_star], tol)


def check_bands(cohort, window, grid, tol):
    curve = backproc.backward_curve(cohort, window, grid)
    for kind in ("plain", "log"):
        for critical_value in (0.0, 1.96, 2.5):
            band = backproc.bands(curve, critical_value, kind)
            lo, hi = ref.reference_band(curve.mu, curve.sigma, curve.n, critical_value, kind)
            assert_close(band.band_lo, lo, tol)
            assert_close(band.band_hi, hi, tol)
            assert band.excluded.tolist() == np.flatnonzero(np.isnan(lo)).tolist()


def check_pointwise_ci(cohort, window, grid, tol):
    curve = backproc.backward_curve(cohort, window, grid)
    z = NormalDist().inv_cdf(0.975)
    assert_close(backproc.pointwise_ci(curve),
                 ref.reference_band(curve.mu, curve.sigma, curve.n, z, "plain"), tol)
    if np.any(curve.mu == 0):
        with pytest.raises(ValueError, match="mu_hat = 0"):
            backproc.pointwise_ci(curve, kind="log")
    else:
        assert_close(backproc.pointwise_ci(curve, kind="log"),
                     ref.reference_band(curve.mu, curve.sigma, curve.n, z, "log"), tol)


def check_percentile_curve(cohort, window, grid, tol):
    for g in grids(cohort, window, grid):
        assert_close(backproc.percentile_curve(cohort, window, QS, g),
                     ref.dense_percentiles(cohort, window, QS, g), tol)


def check_percentile(cohort, window, grid, tol):
    u = float(grid[0])
    got = [backproc.percentile(cohort, window, q, u) for q in (0.25, 0.5, 0.9)]
    assert_close(got, ref.dense_percentiles(cohort, window, [0.25, 0.5, 0.9], [u])[:, 0], tol)


def library_v(cohort, fit, u):
    return cohort.backward_matrix(fit.in_window, [u])[:, 0]


def cdf_points(window, fit, values):
    """t at t1 and at the failure times in the window; m below, at and
    between the observed values."""
    ts = sorted({window.t1, *fit.x_in.tolist()})
    ms = np.unique(values)
    return ts, [ms[0] - 1.0, *ms, *(ms + 0.125)]


def check_joint_cdf_slice(cohort, window, grid, tol):
    fit = ref.reference_fit(cohort, window)
    u = float(grid[0])
    values = library_v(cohort, fit, u)
    ts, _ = cdf_points(window, fit, values)
    for t in [*ts, float(np.nextafter(window.t2, -np.inf))]:
        m, p = backproc.joint_cdf_slice(cohort, window, t, u)
        assert_close(m, np.unique(values), tol)
        assert_close(p, [ref.reference_joint_cdf(fit, values, mk, t) for mk in m], tol)


def check_joint_cdf(cohort, window, grid, tol):
    fit = ref.reference_fit(cohort, window)
    u = float(grid[-1])
    values = library_v(cohort, fit, u)
    _, ms = cdf_points(window, fit, values)
    ts = (window.t1, float(np.max(fit.x_in)))
    got = [backproc.joint_cdf(cohort, window, float(m), t, u) for t in ts for m in ms]
    assert_close(got, [ref.reference_joint_cdf(fit, values, m, t) for t in ts for m in ms], tol)


def check_estimating_fn(cohort, window, grid, tol):
    fit = ref.reference_fit(cohort, window)
    u = float(grid[0])
    values = library_v(cohort, fit, u)
    _, ms = cdf_points(window, fit, values)
    for q in (0.25, 0.5):
        got = [backproc.estimating_fn(cohort, window, q, float(m), u) for m in ms]
        assert_close(got, [ref.reference_estimating_fn(fit, values, q, m) for m in ms], tol)


def check_pearson(cohort, window, grid, tol):
    fit = ref.reference_fit(cohort, window)
    for u in (float(grid[0]), window.tau0):
        expected = ref.reference_pearson(fit, ref.reference_v(cohort, fit.in_window, [u])[:, 0])
        if expected is None:
            with pytest.raises(ValueError):
                backproc.pearson_correlation(cohort, window, u)
        else:
            assert_close(backproc.pearson_correlation(cohort, window, u), expected, tol)


def check_backward_rate(cohort, window, grid, tol):
    for kernel in sorted(KERNELS):
        for h in (0.15, 0.4):
            spec = KernelSpec(kernel=kernel, bandwidth=h)
            assert_close(backproc.backward_rate(cohort, window, grid, spec),
                         ref.reference_rate(cohort, window, grid, spec), tol)


def check_select_bandwidth(cohort, window, grid, tol):
    # one kernel per cohort keeps the double loop's cost down
    kernel = sorted(KERNELS)[cohort.n % len(KERNELS)]
    if cohort.in_window(window).size < 2:
        with pytest.raises(ValueError, match="at least two"):
            backproc.select_bandwidth(cohort, window, kernel, CANDIDATES)
        return
    expected = ref.cv_by_double_loop(cohort, window, kernel, CANDIDATES)
    got = rate_mod._cv_criterion(WindowEngine(cohort, window), kernel, CANDIDATES)
    assert_close(got, expected, tol)
    assert backproc.select_bandwidth(cohort, window, kernel, CANDIDATES) == \
        ref.pick_smallest_best(CANDIDATES, expected)


def check_forward_mean(cohort, window, grid, tol):
    ts = [0.0, *np.unique(cohort.time), float(np.max(cohort.x)) + 1.0]
    got = [backproc.forward_mean(cohort, float(t)) for t in ts]
    assert_close(got, [ref.forward_by_definition(cohort, t) for t in ts], tol)


def check_forward_mean_curve(cohort, window, grid, tol):
    times, values = backproc.forward_mean_curve(cohort)
    assert times.tolist() == sorted({0.0, *cohort.time.tolist()})
    assert_close(values, [ref.forward_by_definition(cohort, t) for t in times], tol)


def check_naive_estimators(cohort, window, grid, tol):
    u = float(grid[-1])
    expected = ref.reference_naive(cohort, window, u)
    if any(math.isnan(arm) for arm in expected):
        with pytest.raises(ValueError, match="no qualifying subjects"):
            backproc.naive_estimators(cohort, window, u)
    else:
        assert_close(backproc.naive_estimators(cohort, window, u), expected, tol)


ROWS = {
    "Cohort.backward_matrix": check_backward_matrix,
    "weighted_sample": check_weighted_sample,
    "product_limit": check_product_limit,
    "survival_at": check_survival_at,
    "default_grid": check_default_grid,
    "apply_prevalent_shift": check_prevalent_shift,
    "percentile_curve": check_percentile_curve,
    "percentile": check_percentile,
    "backward_curve": check_backward_curve,
    "backward_mean": check_backward_mean,
    "covariance": check_covariance,
    "band_critical_values": check_band_critical_values,
    "bands": check_bands,
    "pointwise_ci": check_pointwise_ci,
    "joint_cdf_slice": check_joint_cdf_slice,
    "joint_cdf": check_joint_cdf,
    "estimating_fn": check_estimating_fn,
    "pearson_correlation": check_pearson,
    "backward_rate": check_backward_rate,
    "select_bandwidth": check_select_bandwidth,
    "forward_mean": check_forward_mean,
    "forward_mean_curve": check_forward_mean_curve,
    "naive_estimators": check_naive_estimators,
}

RANDOM_WINDOW = EstimandWindow(t1=1.0, t2=8.0, tau0=1.0)


def random_case(seed):
    """A random cohort of 42 subjects, with an unsorted grid with ties."""
    grid = np.random.default_rng(seed).permutation([0.0, 0.1, 0.25, 0.5, 0.5, 0.8, 1.0])
    return random_cohort(seed), RANDOM_WINDOW, grid


def test_every_row_has_a_check():
    assert set(ROWS) == set(TOLERANCES)


@settings(max_examples=25, deadline=None)
@given(case=ref.edge_cases())
@example(case=random_case(0))
@example(case=random_case(8))
@example(case=(reordered_marks_cohort(), RANDOM_WINDOW, np.array([0.5, 1.0])))
def test_estimators_match_their_definitions(case):
    # every row on each drawn case: drawing a case costs more than checking it
    for name, tol in TOLERANCES.items():
        try:
            ROWS[name](*case, tol)
        except BaseException as err:
            err.add_note(f"in the {name!r} row")
            raise
