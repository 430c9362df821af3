"""Distributional summaries of the backward process: joint CDF with the
failure time, weighted empirical percentiles, and weighted Pearson
correlation between V(u) and T."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .backward import WindowEngine
from .model import Cohort, EstimandWindow

__all__ = [
    "WeightedSample",
    "weighted_sample",
    "joint_cdf",
    "joint_cdf_slice",
    "estimating_fn",
    "percentile",
    "percentile_curve",
    "pearson_correlation",
]


@dataclass(frozen=True)
class WeightedSample:
    """Backward values and failure times of in-window uncensored subjects with
    their estimation weights S_hat(x_i)/(n R(x_i)). The weights sum to the
    normalizer S_hat(t1) - S_hat(t2) exactly."""

    values: np.ndarray
    times: np.ndarray
    weights: np.ndarray
    normalizer: float


def weighted_sample(cohort: Cohort, window: EstimandWindow, u: float) -> WeightedSample:
    eng = WindowEngine(cohort, window)
    values = eng.v_matrix(np.array([float(u)]))[:, 0]
    return WeightedSample(
        values=values,
        times=eng.x_in.copy(),
        weights=eng.w_in,
        normalizer=eng.d,
    )


def joint_cdf_slice(
    cohort: Cohort, window: EstimandWindow, t: float, u: float
) -> tuple[np.ndarray, np.ndarray]:
    """P_hat(V(u) <= m, T <= t | t1 <= T < t2) at every distinct observed
    backward value m, from one fit: returns (m, p_hat), m increasing.

    Weighted fraction with the closed right endpoint I(x_i <= t), as in the
    defining display (unlike the mean's open-right window). The estimate is a
    right-continuous step function of m jumping only at these values.
    """
    if not (window.t1 <= t < window.t2):
        raise ValueError(f"t={t} outside [t1={window.t1}, t2={window.t2})")
    ws = weighted_sample(cohort, window, u)
    order = np.argsort(ws.values, kind="stable")
    values = ws.values[order]
    cum = np.cumsum(np.where(ws.times <= t, ws.weights, 0.0)[order])
    m = np.unique(values)
    return m, cum[np.searchsorted(values, m, side="right") - 1] / ws.normalizer


def joint_cdf(cohort: Cohort, window: EstimandWindow, m: float, t: float, u: float) -> float:
    """Joint distribution estimate P_hat(V(u) <= m, T <= t | t1 <= T < t2);
    see :func:`joint_cdf_slice`. A NaN m raises ValueError."""
    if np.isnan(m):
        raise ValueError("m must not be NaN")
    values, p = joint_cdf_slice(cohort, window, t, u)
    k = int(np.count_nonzero(values <= m))
    return float(p[k - 1]) if k > 0 else 0.0


def estimating_fn(cohort: Cohort, window: EstimandWindow, q: float, m: float, u: float) -> float:
    """Percentile estimating function phi_q(m, u): the weighted fraction of
    backward values <= m minus q. Nondecreasing right-continuous step
    function of m; its zero crossing is the q-th percentile. A NaN m
    raises ValueError."""
    if not (0 < q < 1):
        raise ValueError(f"q must be in (0, 1), got {q}")
    if np.isnan(m):
        raise ValueError("m must not be NaN")
    ws = weighted_sample(cohort, window, u)
    return float(np.sum(ws.weights * ((ws.values <= m) - q)) / ws.normalizer)


def percentile_curve(cohort: Cohort, window: EstimandWindow, qs, grid) -> np.ndarray:
    """Weighted empirical percentiles of V(u) for every q in ``qs`` and u in
    ``grid``, from one fit: shape (len(qs), len(grid)). Each is the smallest
    observed value whose cumulative weight reaches q (inf convention at
    ties). The grid is swept in column blocks, so the sort arrays never span
    the whole grid."""
    qs = np.atleast_1d(np.asarray(qs, dtype=float))
    if np.any(~((qs > 0) & (qs < 1))):
        raise ValueError(f"q must be in (0, 1), got {qs.tolist()}")
    eng = WindowEngine(cohort, window)
    grid = np.atleast_1d(np.asarray(grid, dtype=float))
    # tiny relative slack so exact rational targets (e.g. q = k/n) are hit
    targets = qs * (1 - 1e-12)
    out = np.empty((qs.size, grid.size))
    for cols, values in eng.v_blocks(grid):
        order = np.argsort(values, axis=0, kind="stable")
        values = np.take_along_axis(values, order, axis=0)
        cum = np.cumsum(eng.w_in[order], axis=0) / eng.d
        at = np.arange(cols.size)
        for i, q in enumerate(targets):
            out[i, cols] = values[np.argmax(cum >= q, axis=0), at]
    return out


def percentile(cohort: Cohort, window: EstimandWindow, q: float, u: float) -> float:
    """Weighted empirical q-th percentile of V(u); see :func:`percentile_curve`."""
    return float(percentile_curve(cohort, window, [q], [u])[0, 0])


def pearson_correlation(cohort: Cohort, window: EstimandWindow, u: float) -> float:
    """Weighted Pearson correlation between V(u) and the failure time, with
    weights normalized to sum 1. No small-sample bias correction."""
    ws = weighted_sample(cohort, window, u)
    if ws.values.size < 2:
        raise ValueError("need at least two in-window uncensored subjects")
    p = ws.weights / np.sum(ws.weights)
    mv = float(p @ ws.values)
    mt = float(p @ ws.times)
    var_v = float(p @ (ws.values - mv) ** 2)
    var_t = float(p @ (ws.times - mt) ** 2)
    if var_v <= 1e-24 * max(mv * mv, 1.0) or var_t <= 1e-24 * max(mt * mt, 1.0):
        raise ValueError("degenerate correlation: zero variance in V(u) or T")
    cov = float(p @ ((ws.values - mv) * (ws.times - mt)))
    return cov / np.sqrt(var_v * var_t)
