"""Metamorphic relations: how the estimates must move when the data move in
a way that the estimand sees through. Unlike the direct definitions of
``tests/reference.py``, these share no formula with the library, so a term
that both would leave out still shows here.

Scaling by a power of two is exact in floating point, so the relations
built on it hold bit for bit: marks x 2 doubles mu, sigma, the percentiles
and the rate, and leaves b_star as it is; w, x, event times, window and grid
x 2 leave mu, b_star and the percentiles as they are, and with the bandwidth
x 2 halve the rate. Reversing the order of the subjects leaves mu as it is
and sigma within rounding; every subject twice, under new ids, leaves mu and
sigma within rounding and the percentiles as they are.
"""

import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import given, settings

from backproc import (
    Cohort,
    EstimandWindow,
    KernelSpec,
    SimConfig,
    backward_curve,
    backward_rate,
    band_critical_values,
    default_grid,
    generate_cohort,
    percentile_curve,
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
    identical(got.mu, base.mu)
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


@settings(max_examples=30, deadline=None)
@given(case=edge_cases())
@pytest.mark.filterwarnings("ignore:band critical value")
def test_relations_on_edge_cohorts(case):
    cohort, window, grid = case
    base = fit(cohort, window, grid)
    for relation in RELATIONS.values():
        relation(cohort, window, grid, base)
    rate_relations(cohort, window, grid)
