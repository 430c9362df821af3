"""Metamorphic relations: how the estimates must move when the data move in
a way that the estimand sees through. Unlike the direct definitions of
``tests/reference.py``, these share no formula with the library, so a term
that both would leave out still shows here.

Scaling by a power of two is exact in floating point, so the relations
built on it hold bit for bit: marks x 2 doubles mu, sigma, the percentiles,
the rate, the forward mean and the values m of the joint CDF, and leaves
b_star and the joint CDF's p_hat as they are; w, x, event times, window, t
and grid x 2 leave mu, b_star, the percentiles, the joint CDF, and the
survival curve's values, risk fractions and cumulative hazard as they are,
double the survival curve's and the forward mean's times, and with the
bandwidth x 2 halve the rate. Adding 0.5 to w, x, the event times and the
window is not exact, yet it leaves mu bit for bit as it is on a grid off
the event offsets. Reversing the order of the subjects leaves sigma as it
is within rounding, and mu too, bit for bit where no two in-window
subjects fail at the same time; every subject twice, under new ids, leaves
mu and sigma within rounding and the percentiles as they are.
"""

import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import example, given, settings

from backproc import (
    Cohort,
    EstimandWindow,
    KernelSpec,
    ProcessEvent,
    SimConfig,
    SubjectRecord,
    backward_curve,
    backward_rate,
    band_critical_values,
    default_grid,
    forward_mean_curve,
    generate_cohort,
    joint_cdf_slice,
    percentile_curve,
    product_limit,
    validate_cohort,
)
from backproc.rate import KERNELS

from reference import edge_cases

QS = [0.25, 0.5, 0.9]
ROUNDING = 1e-14  # relative, for a relation that changes the order of sums


@dataclasses.dataclass(frozen=True)
class Fit:
    mu: np.ndarray
    sigma: np.ndarray
    b_star: float
    percentiles: np.ndarray


def fit(cohort: Cohort, window: EstimandWindow, grid: np.ndarray) -> Fit:
    curve = backward_curve(cohort, window, grid)
    b_star = band_critical_values(cohort, window, grid, m=200, seed=1).b_star
    return Fit(curve.mu, curve.sigma, b_star, percentile_curve(cohort, window, QS, grid))


def with_columns(cohort: Cohort, **changed) -> Cohort:
    columns = dict(ids=cohort.ids, w=cohort.w, x=cohort.x, delta=cohort.delta,
                   ptr=cohort.ptr, time=cohort.time, mark=cohort.mark)
    return Cohort.from_columns(**{**columns, **changed})


def stretched(cohort: Cohort, window: EstimandWindow):
    """The cohort and window with every time x 2."""
    return (with_columns(cohort, w=2 * cohort.w, x=2 * cohort.x, time=2 * cohort.time),
            EstimandWindow(t1=2 * window.t1, t2=2 * window.t2, tau0=2 * window.tau0))


def identical(a, b) -> None:
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and np.array_equal(a, b, equal_nan=True), (a, b)


def close(a, b) -> None:
    np.testing.assert_allclose(a, b, rtol=ROUNDING, atol=0)


def marks_doubled(cohort, window, grid, base):
    got = fit(with_columns(cohort, mark=2 * cohort.mark), window, grid)
    identical(got.mu, 2 * base.mu)
    identical(got.sigma, 2 * base.sigma)
    identical(got.b_star, base.b_star)
    identical(got.percentiles, 2 * base.percentiles)


def times_doubled(cohort, window, grid, base):
    got = fit(*stretched(cohort, window), 2 * grid)
    identical(got.mu, base.mu)
    identical(got.b_star, base.b_star)
    identical(got.percentiles, base.percentiles)


def subjects_reversed(cohort, window, grid, base):
    got = fit(validate_cohort(cohort.subjects[::-1]), window, grid)
    # the prefix sum behind mu takes the subjects of tied x in input order
    x_in = cohort.x[cohort.in_window(window)]
    (identical if np.unique(x_in).size == x_in.size else close)(got.mu, base.mu)
    close(got.sigma, base.sigma)


def subjects_twice(cohort, window, grid, base):
    copies = tuple(dataclasses.replace(s, id=f"{s.id}/copy") for s in cohort.subjects)
    got = fit(validate_cohort(cohort.subjects + copies), window, grid)
    close(got.mu, base.mu)
    close(got.sigma, base.sigma)
    identical(got.percentiles, base.percentiles)


RELATIONS = {f.__name__: f for f in (marks_doubled, times_doubled, subjects_reversed,
                                     subjects_twice)}


def rate_relations(cohort, window, grid):
    for kernel in sorted(KERNELS):
        spec = KernelSpec(kernel=kernel, bandwidth=0.3)
        rate = backward_rate(cohort, window, grid, spec)
        identical(backward_rate(*stretched(cohort, window), 2 * grid,
                                KernelSpec(kernel=kernel, bandwidth=0.6)), rate / 2)
        identical(backward_rate(with_columns(cohort, mark=2 * cohort.mark), window, grid, spec),
                  2 * rate)


def curve_relations(cohort, window, grid):
    """product_limit, forward_mean_curve and joint_cdf_slice under times x 2
    and marks x 2."""
    long, long_window = stretched(cohort, window)
    heavy = with_columns(cohort, mark=2 * cohort.mark)
    curve, got = product_limit(cohort), product_limit(long)
    identical(got.event_times, 2 * curve.event_times)
    for values in ("s_left", "risk_fraction", "cum_hazard"):
        identical(getattr(got, values), getattr(curve, values))
    times, values = forward_mean_curve(cohort)
    long_times, long_values = forward_mean_curve(long)
    identical(long_times, 2 * times)
    identical(long_values, values)
    identical(forward_mean_curve(heavy)[1], 2 * values)
    u = float(grid[0])
    for t in (window.t1, float(np.nextafter(window.t2, -np.inf))):
        m, p = joint_cdf_slice(cohort, window, t, u)
        for (got_m, got_p), want_m in ((joint_cdf_slice(long, long_window, 2 * t, 2 * u), m),
                                       (joint_cdf_slice(heavy, window, t, u), 2 * m)):
            identical(got_m, want_m)
            identical(got_p, p)


WINDOW = SimConfig().window()  # [t1, t2) = [1, 20), tau0 = 1


@functools.cache
def study_case(seed: int):
    """A study cohort on its own lossless grid, and its fit."""
    cohort = generate_cohort(SimConfig(n=400), seed)
    grid = default_grid(cohort, WINDOW)
    return cohort, grid, fit(cohort, WINDOW, grid)


@pytest.mark.parametrize("relation", RELATIONS)
@pytest.mark.parametrize("seed", range(5))
def test_relation_on_a_study_cohort(seed, relation):
    cohort, grid, base = study_case(seed)
    RELATIONS[relation](cohort, WINDOW, grid, base)


@pytest.mark.parametrize("seed", range(5))
def test_rate_relations_on_a_study_cohort(seed):
    cohort, grid, _ = study_case(seed)
    rate_relations(cohort, WINDOW, grid)


@pytest.mark.parametrize("seed", range(5))
def test_curve_relations_on_a_study_cohort(seed):
    cohort, grid, _ = study_case(seed)
    curve_relations(cohort, WINDOW, grid)


# a grid off the event offsets: on the lossless grid x + 0.5 - (t + 0.5)
# rounds away from x - t, so an event on a grid point may move past it
SHIFT_GRID = np.arange(11) / 10


@pytest.mark.parametrize("seed", range(5))
def test_times_shifted_on_a_study_cohort(seed):
    cohort, _, _ = study_case(seed)
    shifted = with_columns(cohort, w=cohort.w + 0.5, x=cohort.x + 0.5, time=cohort.time + 0.5)
    window = EstimandWindow(t1=WINDOW.t1 + 0.5, t2=WINDOW.t2 + 0.5, tau0=WINDOW.tau0)
    identical(backward_curve(shifted, window, SHIFT_GRID).mu,
              backward_curve(cohort, WINDOW, SHIFT_GRID).mu)


def without_subject(cohort: Cohort, i: int) -> Cohort:
    """The cohort without subject i, rebuilt from its columns."""
    keep = np.arange(cohort.n) != i
    counts = np.diff(cohort.ptr)
    events = np.repeat(keep, counts)
    return Cohort.from_columns(cohort.ids[keep], cohort.w[keep], cohort.x[keep],
                               cohort.delta[keep], np.concatenate([[0], np.cumsum(counts[keep])]),
                               cohort.time[events], cohort.mark[events])


# fixed before the test first ran, and not to be moved for a new path: at
# n=400 sigma_hat agreed with the jackknife to 1.6% on one cohort (the
# jackknife table of docs/gaps.md), and a wrong psi term of a few percent
# shows beyond it
JACKKNIFE_TOLERANCE = 0.03


def test_sigma_is_the_jackknife_standard_error():
    # the leave-one-subject-out sd of mu_hat estimates sigma_hat / sqrt(n)
    # without psi: over five study cohorts, their mean ratio is 1 at each u
    grid = np.array([0.5, 1.0])
    ratios = []
    for seed in range(5):
        cohort = study_case(seed)[0]
        n = cohort.n
        loo = np.array([backward_curve(without_subject(cohort, i), WINDOW, grid).mu
                        for i in range(n)])
        jackknife_sd = np.sqrt((n - 1) / n * np.sum((loo - loo.mean(axis=0)) ** 2, axis=0))
        ratios.append(jackknife_sd / (backward_curve(cohort, WINDOW, grid).sigma / np.sqrt(n)))
    mean = np.mean(ratios, axis=0)
    print(f"JACKKNIFE mean sd / (sigma_hat/sqrt(n)) at u = 0.5 and 1.0: {mean.round(4)}")
    assert np.all(np.abs(mean - 1) <= JACKKNIFE_TOLERANCE), ratios


# three subjects failing at 1.5: mu sums them in input order, and
# rounds to another value when they are reversed
TIED_FAILURES = (
    validate_cohort([
        SubjectRecord(id="s0", w=0.0, x=1.5, delta=1, events=(ProcessEvent(1.5, 1.0),)),
        SubjectRecord(id="s1", w=1.5, x=1.5, delta=1,
                      events=(ProcessEvent(1.5, 0.1), ProcessEvent(1.5, 0.1))),
        SubjectRecord(id="s2", w=1.0, x=1.5, delta=1, events=(ProcessEvent(1.25, 0.1),)),
    ]),
    EstimandWindow(t1=1.0, t2=8.0, tau0=1.0),
    np.array([0.25]),
)


@settings(max_examples=30, deadline=None)
@given(case=edge_cases())
@example(case=TIED_FAILURES)
@pytest.mark.filterwarnings("ignore:band critical value")
def test_relations_on_edge_cohorts(case):
    cohort, window, grid = case
    base = fit(cohort, window, grid)
    for relation in RELATIONS.values():
        relation(cohort, window, grid, base)
    rate_relations(cohort, window, grid)
    curve_relations(cohort, window, grid)
