"""Distributional summaries of the backward process: joint CDF with the
failure time, weighted empirical percentiles, and weighted Pearson
correlation between V(u) and T."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .backward import WindowEngine
from .model import Cohort, EstimandWindow, InputContractError, check_number, check_numbers

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
    """The in-window uncensored subjects' backward values V_i(u), failure
    times x_i and weights S_hat(x_i) / (n R(x_i)), with their sum
    S_hat(t1) - S_hat(t2) as the normalizer."""
    eng = WindowEngine(cohort, window)
    return WeightedSample(values=cohort.backward_matrix(window, window.point(u))[:, 0],
                          times=eng.x_in.copy(), weights=eng.w_in, normalizer=eng.d)


def joint_cdf_slice(
    cohort: Cohort, window: EstimandWindow, t: float, u: float
) -> tuple[np.ndarray, np.ndarray]:
    """P_hat(V(u) <= m, T <= t | t1 <= T < t2) at every distinct observed
    backward value m, from one fit: returns (m, p_hat), m increasing.

    Weighted fraction with the closed right endpoint I(x_i <= t), as in the
    defining display (unlike the mean's open-right window). The estimate is a
    right-continuous step function of m jumping only at these values.
    """
    t = check_number("t", t, "[-inf, inf]")
    if not (window.t1 <= t < window.t2):
        raise InputContractError(f"t={t} outside [t1={window.t1}, t2={window.t2})")
    ws = weighted_sample(cohort, window, u)
    order = np.argsort(ws.values, kind="stable")
    values = ws.values[order]
    cum = np.cumsum(np.where(ws.times <= t, ws.weights, 0.0)[order])
    m = np.unique(values)
    return m, cum[np.searchsorted(values, m, side="right") - 1] / ws.normalizer


def joint_cdf(cohort: Cohort, window: EstimandWindow, m: float, t: float, u: float) -> float:
    """Joint distribution estimate P_hat(V(u) <= m, T <= t | t1 <= T < t2);
    see :func:`joint_cdf_slice`."""
    m = check_number("m", m, "[-inf, inf]")
    values, p = joint_cdf_slice(cohort, window, t, u)
    k = int(np.count_nonzero(values <= m))
    return float(p[k - 1]) if k > 0 else 0.0


def estimating_fn(cohort: Cohort, window: EstimandWindow, q: float, m: float, u: float) -> float:
    """Percentile estimating function phi_q(m, u): the weighted fraction of
    backward values <= m minus q. Nondecreasing right-continuous step
    function of m; its zero crossing is the q-th percentile."""
    q, m = check_number("q", q, "(0, 1)"), check_number("m", m, "[-inf, inf]")
    ws = weighted_sample(cohort, window, u)
    return float(np.sum(ws.weights * ((ws.values <= m) - q)) / ws.normalizer)


def percentile_curve(cohort: Cohort, window: EstimandWindow, qs, grid) -> np.ndarray:
    """Weighted empirical percentiles of V(u) for every q in ``qs`` and u in
    ``grid``, from one fit: shape (len(qs), len(grid)). Each is the smallest
    observed value whose cumulative weight reaches q (inf convention at
    ties).

    Marks are nonnegative, so each V_i(u) is a nondecreasing step function:
    subject i's states are 0 and then its running sums over its cells of
    :meth:`Cohort.backward_cells` in grid order, which are V bit for bit.
    All states are ranked once by value, ties in state order, so that a
    subject's next state always ranks above its current one, zero marks
    included. Then each percentile only rises with u, and one sweep of the
    grid in increasing u per q finds it with a pointer over the ranks that
    moves forward only (see :func:`_pointer_sweep`). That costs
    O((K + C) log(K + C) + |q| (K + C + G)) for K subjects and C cells, and
    no K x G array.
    """
    qs = np.atleast_1d(check_numbers("qs", qs, "(0, 1)"))
    if qs.size == 0:
        raise InputContractError("qs must hold at least one q")
    eng = WindowEngine(cohort, window)
    order, b, k, marks = cohort.backward_cells(window, grid)  # reads the grid: order.size points
    subjects = eng.in_window.size
    # state i is subject i at 0 and state subjects + j is subject k[j]
    # after cell j, its V summed cell by cell as Cohort.backward_blocks sums it
    cell_subject = k.tolist()
    after, running = marks.tolist(), [0.0] * subjects
    for j, i in enumerate(cell_subject):
        running[i] = after[j] = running[i] + after[j]
    value = np.concatenate([np.zeros(subjects), after])
    owner = np.concatenate([np.arange(subjects), k])
    by_rank = np.argsort(value, kind="stable")  # a subject's states in cell order
    rank = np.empty_like(by_rank)
    rank[by_rank] = np.arange(by_rank.size)
    # the weights c/n as integers on one scale, so that the sweep sums them
    # exactly, and per q the least total that reaches q D, with a tiny
    # relative slack so that exact rational targets (e.g. q = k/n) are hit
    ratios = [w.as_integer_ratio() for w in eng.w_in.tolist()]
    scale = max(den for _, den in ratios)
    weight = [num * (scale // den) for num, den in ratios]
    d_num, d_den = eng.d.as_integer_ratio()
    needs = [-(-q_num * d_num * scale // (q_den * d_den))
             for q_num, q_den in map(float.as_integer_ratio, (qs * (1 - 1e-12)).tolist())]
    # the last cell of each sorted grid point that has cells
    last = np.flatnonzero(np.diff(b, append=order.size))
    sweep = (weight, rank[:subjects].tolist(), owner[by_rank].tolist(), cell_subject,
             rank[subjects:].tolist(), (last + 1).tolist())
    at = [_pointer_sweep(need, *sweep) for need in needs]
    # sorted grid point j takes the state after the cells of every point up to j
    out = np.empty((qs.size, order.size))
    out[:, order] = value[by_rank][at][:, np.searchsorted(b[last], np.arange(order.size), "right")]
    return out


def _pointer_sweep(need: int, weight: list, start: list, owner: list, cell_subject: list,
                   cell_rank: list, ends: list) -> list:
    """The rank of the percentile state before any cell and after each
    group of cells ``[ends[g - 1], ends[g])``.

    ``start`` holds each subject's first rank and ``owner`` the subject of
    each rank; cell j moves subject ``cell_subject[j]`` up to rank
    ``cell_rank[j]``. ``total`` is the weight of the subjects whose state
    ranks at or below the pointer p: a cell that moves its subject from at
    or below p to above it takes that subject's weight out, and p then
    moves forward until the total reaches ``need``, but never past the last
    rank.
    """
    top = len(owner) - 1
    state = start.copy()
    p, total, at, j = -1, 0, [], 0
    for end in [0, *ends]:
        for j in range(j, end):
            i, to = cell_subject[j], cell_rank[j]
            if state[i] <= p < to:
                total -= weight[i]
            state[i] = to
        j = end
        while total < need and p < top:
            p += 1
            i = owner[p]
            if state[i] == p:
                total += weight[i]
        at.append(p)
    return at


def percentile(cohort: Cohort, window: EstimandWindow, q: float, u: float) -> float:
    """Weighted empirical q-th percentile of V(u); see :func:`percentile_curve`."""
    q = check_number("q", q, "(0, 1)")
    return float(percentile_curve(cohort, window, [q], window.point(u))[0, 0])


def pearson_correlation(cohort: Cohort, window: EstimandWindow, u: float) -> float:
    """Weighted Pearson correlation between V(u) and the failure time, with
    weights normalized to sum 1. No small-sample bias correction."""
    ws = weighted_sample(cohort, window, u)
    if ws.values.size < 2:
        raise InputContractError("need at least two in-window uncensored subjects")
    p = ws.weights / np.sum(ws.weights)
    mv = float(p @ ws.values)
    mt = float(p @ ws.times)
    var_v = float(p @ (ws.values - mv) ** 2)
    var_t = float(p @ (ws.times - mt) ** 2)
    if var_v <= 1e-24 * max(mv * mv, 1.0) or var_t <= 1e-24 * max(mt * mt, 1.0):
        raise InputContractError("degenerate correlation: zero variance in V(u) or T")
    cov = float(p @ ((ws.values - mv) * (ws.times - mt)))
    return cov / np.sqrt(var_v * var_t)
