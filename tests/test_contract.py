"""The input contract of the public scalar arguments: a NaN backward time
u, failure time t, threshold m or horizon tau0 raises ValueError, and so
does a value outside the range where the argument has one (u in [0, tau0],
the joint CDF's t in [t1, t2), the forward mean's t >= 0, the shift's tau0
finite and positive). A grid of u with more than one axis raises
ValueError, and so do a count that is not an integer and a negative seed."""

import math

import numpy as np
import pytest

from backproc import (
    KernelSpec,
    SimConfig,
    apply_prevalent_shift,
    backward_curve,
    backward_mean,
    backward_rate,
    band_critical_values,
    covariance,
    estimating_fn,
    forward_mean,
    generate_cohort,
    joint_cdf,
    joint_cdf_slice,
    naive_estimators,
    pearson_correlation,
    percentile,
    percentile_curve,
    product_limit,
    survival_at,
    true_mean_oracle,
    weighted_sample,
)
from backproc.survival import risk_at

NAN = math.nan
WINDOW = SimConfig().window()  # [t1, t2) = [1, 20), tau0 = 1
U_BAD = [NAN, -1.0, 5.0]
T_BAD = [NAN, 0.5, 20.0]
SPEC = KernelSpec(kernel="epanechnikov", bandwidth=0.2)

CALLS = {
    "backward_mean.u": (lambda c, x: backward_mean(c, WINDOW, x), U_BAD),
    "covariance.u": (lambda c, x: covariance(c, WINDOW, x, 0.5), U_BAD),
    "covariance.v": (lambda c, x: covariance(c, WINDOW, 0.5, x), U_BAD),
    "weighted_sample.u": (lambda c, x: weighted_sample(c, WINDOW, x), U_BAD),
    "naive_estimators.u": (lambda c, x: naive_estimators(c, WINDOW, x), U_BAD),
    "percentile.u": (lambda c, x: percentile(c, WINDOW, 0.5, x), U_BAD),
    "pearson_correlation.u": (lambda c, x: pearson_correlation(c, WINDOW, x), U_BAD),
    "backward_rate.u": (lambda c, x: backward_rate(c, WINDOW, x, SPEC), U_BAD),
    "joint_cdf_slice.t": (lambda c, x: joint_cdf_slice(c, WINDOW, x, 0.5), T_BAD),
    "joint_cdf_slice.u": (lambda c, x: joint_cdf_slice(c, WINDOW, 5.0, x), U_BAD),
    "joint_cdf.m": (lambda c, x: joint_cdf(c, WINDOW, x, 5.0, 0.5), [NAN]),
    "joint_cdf.t": (lambda c, x: joint_cdf(c, WINDOW, 10.0, x, 0.5), T_BAD),
    "joint_cdf.u": (lambda c, x: joint_cdf(c, WINDOW, 10.0, 5.0, x), U_BAD),
    "estimating_fn.m": (lambda c, x: estimating_fn(c, WINDOW, 0.5, x, 0.5), [NAN]),
    "estimating_fn.u": (lambda c, x: estimating_fn(c, WINDOW, 0.5, 10.0, x), U_BAD),
    "forward_mean.t": (lambda c, x: forward_mean(c, x), [NAN, -1.0]),
    "survival_at.t": (lambda c, x: survival_at(product_limit(c), x), [NAN]),
    "risk_at.t": (lambda c, x: risk_at(c, x), [NAN]),
    "apply_prevalent_shift.tau0": (lambda c, x: apply_prevalent_shift(c, x),
                                   [NAN, math.inf, 0.0, -1.0]),
}


@pytest.fixture(scope="module")
def cohort():
    return generate_cohort(SimConfig(n=400), 12345)


@pytest.mark.parametrize("name, value", [
    pytest.param(name, value, id=f"{name}={value}")
    for name, (_, values) in CALLS.items() for value in values
])
def test_bad_scalar_raises(cohort, name, value):
    call, _ = CALLS[name]
    with pytest.raises(ValueError):
        call(cohort, value)


# a grid is one axis of u; a 2-D one is rejected before numpy broadcasts it
GRID_CALLS = {
    "backward_curve": lambda c, g: backward_curve(c, WINDOW, g),
    "band_critical_values": lambda c, g: band_critical_values(c, WINDOW, g, m=10, seed=0),
    "percentile_curve": lambda c, g: percentile_curve(c, WINDOW, [0.5], g),
    "backward_rate": lambda c, g: backward_rate(c, WINDOW, g, SPEC),
}


@pytest.mark.parametrize("name", GRID_CALLS)
def test_two_dimensional_grid_raises(cohort, name):
    with pytest.raises(ValueError, match=r"1-D grid, got shape \(1, 2\)"):
        GRID_CALLS[name](cohort, [[0.1, 0.2]])


# a count that is not an integer (a bool included) raises ValueError naming
# it, before numpy sees it
COUNTS = {
    "n": (lambda c, x: SimConfig(n=x), [400.5, True]),
    "reps": (lambda c, x: SimConfig(reps=x), [2.5]),
    "band_reps": (lambda c, x: SimConfig(band_reps=x), [10.5]),
    "oracle_n": (lambda c, x: SimConfig(oracle_n=x), [1000.5]),
    "seed": (lambda c, x: SimConfig(seed=x), [1.5, True]),
    "m": (lambda c, x: band_critical_values(c, WINDOW, [0.5], m=x, seed=0), [10.5]),
}


@pytest.mark.parametrize("name, value", [
    pytest.param(name, value, id=f"{name}={value!r}")
    for name, (_, values) in COUNTS.items() for value in values
])
def test_non_integer_count_raises(cohort, name, value):
    call, _ = COUNTS[name]
    with pytest.raises(ValueError, match=f"^{name} must be an integer"):
        call(cohort, value)


@pytest.mark.parametrize("seed", [-1, np.int64(-5)])
def test_negative_seed_raises(seed):
    with pytest.raises(ValueError, match="^seed must be nonnegative"):
        SimConfig(seed=seed)


def test_numpy_integer_counts_are_accepted(cohort):
    config = SimConfig(n=np.int64(400), reps=np.int64(2), band_reps=np.int64(10),
                       oracle_n=np.int64(1000))
    assert config.oracle_n == 1000
    assert true_mean_oracle(config)[0].shape == (len(config.u_grid),)
    fit = band_critical_values(cohort, WINDOW, [0.5], m=np.int64(10), seed=0)
    assert math.isfinite(fit.b_star)
