"""Product-limit survival estimation under left truncation and right censoring.

Convention used throughout the package: the survival estimate is
left-continuous, S_hat(t) = P_hat(T >= t). This is forced by the
complete-data reduction of the backward mean (the weight S_hat(x_i)/R(x_i)
must equal 1 when there is no truncation or censoring).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import Cohort, CohortValidationError, check_numbers

__all__ = [
    "SurvivalCurve",
    "EmptyRiskSetError",
    "product_limit",
    "survival_at",
    "risk_at",
]


class EmptyRiskSetError(RuntimeError):
    """Risk set is empty at the time of a process event, which the forward
    mean weights by 1/R: the estimand is not identified there. Only a cohort
    re-truncated by ``apply_prevalent_shift`` can have one."""


@dataclass(frozen=True)
class SurvivalCurve:
    """Product-limit estimate on the grid of distinct uncensored times.

    s_left[k] is S_hat evaluated *at* event_times[k], i.e. the value just
    before the failure there; jump[k] = dN/R is the discrete hazard.
    """

    event_times: np.ndarray
    risk_fraction: np.ndarray
    jump: np.ndarray
    s_left: np.ndarray
    cum_hazard: np.ndarray
    # survival values after 0, 1, 2, ... jumps; used for step lookup
    _s_steps: np.ndarray = field(repr=False)


def _risk(w: np.ndarray, x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """At-risk fraction #(w_i <= t <= x_i)/n from sorted counts.

    Every w_i <= x_i, so w_i > t already implies x_i >= t and the count is
    #(x >= t) - #(w > t). The counts are exact integers, so each fraction is
    rounded once, by the division by n.
    """
    at_risk = np.searchsorted(np.sort(w), t, side="right") - np.searchsorted(
        np.sort(x), t, side="left"
    )
    return at_risk / x.size


def product_limit(cohort: Cohort) -> SurvivalCurve:
    """Product-limit estimator for left-truncated right-censored data.

    S_hat(t) = prod over uncensored times s < t of (1 - dN(s)/R(s)), with
    dN(s) the fraction of subjects failing at s and R(s) the at-risk
    fraction. Tied failures at the same time are grouped into one factor.

    Every subject failing at s has w <= s = x, so R(s) >= 1/n. Raises
    :class:`CohortValidationError` if there is no uncensored time at all.
    """
    times = cohort.event_times
    if times.size == 0:
        raise CohortValidationError("cohort has no uncensored events")
    n = cohort.n
    risk = _risk(cohort.w, cohort.x, times)
    failed = np.sort(cohort.x[cohort.delta == 1])
    dn = (np.searchsorted(failed, times, side="right")
          - np.searchsorted(failed, times, side="left")) / n
    jump = dn / risk
    s_steps = np.concatenate([[1.0], np.cumprod(1.0 - jump)])
    cum_hazard = np.cumsum(jump)
    return SurvivalCurve(
        event_times=times,
        risk_fraction=risk,
        jump=jump,
        s_left=s_steps[:-1],
        cum_hazard=cum_hazard,
        _s_steps=s_steps,
    )


def survival_at(curve: SurvivalCurve, t) -> np.ndarray | float:
    """Step-function lookup of S_hat(t) = P_hat(T >= t), a float at a number or a
    0-d t; vectorized in t, read by :func:`~backproc.model.check_numbers` (NaN raises)."""
    idx = np.searchsorted(curve.event_times, check_numbers("t", t, "[-inf, inf]"), side="left")
    out = curve._s_steps[idx]
    return float(out) if np.ndim(t) == 0 else out


def risk_at(cohort: Cohort, t) -> np.ndarray | float:
    """Vectorized at-risk fraction R(t), a float at a number or a 0-d t; inclusive at
    both ends. t is read by :func:`~backproc.model.check_numbers` (a NaN t raises)."""
    out = _risk(cohort.w, cohort.x, check_numbers("t", t, "[-inf, inf]"))
    return float(out) if np.ndim(t) == 0 else out
