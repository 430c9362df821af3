"""Forward mean function of the cumulative process, for contrast with the
backward curves. Each observed increment (s, q) contributes S_hat(s) q / R(s);
increments are only recorded while a subject is under observation, which the
data model already enforces."""

from __future__ import annotations

import numpy as np

from .model import Cohort, check_number
from .survival import EmptyRiskSetError, product_limit, risk_at, survival_at

__all__ = ["forward_mean", "forward_mean_curve"]


def _running_mean(cohort: Cohort, t_max: float):
    """All observed events sorted by time, and the running forward mean:
    entry k is n^{-1} sum over the first k events of S_hat(s) q / R(s).

    Raises :class:`EmptyRiskSetError` if R(s) = 0 at an event time s <= t_max;
    entries past such a time are not finite.
    """
    curve = product_limit(cohort)
    order = np.argsort(cohort.time, kind="stable")
    times, marks = cohort.time[order], cohort.mark[order]
    r = risk_at(cohort, times)
    empty = (r <= 0) & (times <= t_max)
    if np.any(empty):
        raise EmptyRiskSetError(f"empty risk set at event time {times[np.argmax(empty)]}")
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = survival_at(curve, times) * marks / r
    return times, np.concatenate([[0.0], np.cumsum(terms) / cohort.n])


def forward_mean(cohort: Cohort, t: float) -> float:
    """Estimated mean of the forward process at time t:
    n^{-1} sum over all observed events (s, q) with s <= t of S_hat(s) q / R(s)."""
    t = check_number("t", t, "[0, inf]")
    times, running = _running_mean(cohort, t)
    return float(running[np.searchsorted(times, t, side="right")])


def forward_mean_curve(cohort: Cohort):
    """Evaluate the forward mean at 0 and at every distinct observed event time.

    Returns (times, values); the estimate is a step function jumping at
    event times, so this grid is lossless.
    """
    times, running = _running_mean(cohort, np.inf)
    grid = np.unique(np.concatenate([[0.0], times]))
    return grid, running[np.searchsorted(times, grid, side="right")]
