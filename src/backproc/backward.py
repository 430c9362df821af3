"""Core estimators for the mean of processes aligned backward from failure.

Everything here is a weighted sum over uncensored in-window subjects with
weights S_hat(x_i) / R(x_i): the backward mean mu_hat_{t1,t2}(u) and the
influence terms psi_i(u), both read off one prefix sum of the weighted
backward values over the subjects in order of x, and the covariance
estimator in Gram form, so it is exactly positive semidefinite on any grid.
:meth:`WindowEngine.bootstrap` is the one fit: a sweep of the grid in column
blocks, so that no array spans the whole grid, yields mu_hat, sigma_hat and
the multiplier bootstrap's sup statistics. :func:`backward_curve` is that
sweep with no replicates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import Cohort, EstimandWindow
from .survival import product_limit, survival_at

__all__ = [
    "BackwardCurve",
    "DegenerateWindowError",
    "WindowEngine",
    "default_grid",
    "backward_mean",
    "covariance",
    "backward_curve",
]


class DegenerateWindowError(RuntimeError):
    """No identifiable failure mass in the window, S_hat(t1) = S_hat(t2), or
    too many such cohorts among a study's replicates."""


# bound on the cells of one block of the grid sweep, max(K, m) x columns
_SWEEP_CELLS = 1 << 16


def _block_width(rows: int, cells: int) -> int:
    """Grid columns per block of the sweep: rows x columns within the cell
    budget, or within ``cells`` where that is larger, and at least one."""
    return max(1, max(_SWEEP_CELLS, cells) // max(rows, 1))


@dataclass(frozen=True)
class BackwardCurve:
    """Backward mean estimate on a grid with pointwise standard deviations.

    sigma holds Sigma_hat(u, u)^{1/2}; the standard error of mu_hat(u) is
    sigma / sqrt(n).
    """

    window: EstimandWindow
    grid: np.ndarray
    mu: np.ndarray
    sigma: np.ndarray
    n: int


class WindowEngine:
    """The fit of one (cohort, window): its weights and two primitives.

    For the in-window uncensored subjects this caches x_i (and their order),
    S_hat(x_i) and R(x_i). :meth:`psi_matrix` turns backward values V_i(u)
    on a grid (:meth:`Cohort.backward_matrix`) into mu_hat and the influence
    terms psi, and :meth:`bootstrap` sweeps the grid in column blocks for
    mu_hat, sigma_hat and the multiplier bootstrap's sup statistics.
    """

    def __init__(self, cohort: Cohort, window: EstimandWindow):
        self.cohort = cohort
        self.window = window
        surv = product_limit(cohort)
        self.n = cohort.n
        self.s_t1 = survival_at(surv, window.t1)
        self.s_t2 = survival_at(surv, window.t2)
        self.d = self.s_t1 - self.s_t2
        if self.d <= 0:
            raise DegenerateWindowError(
                f"no identifiable failure mass in window [{window.t1}, {window.t2})"
            )
        self.in_window = cohort.in_window(window)
        self.x_in = cohort.x[self.in_window]
        self.s_in = survival_at(surv, self.x_in)
        # each in-window x_i is an uncensored event time, so R > 0 there
        idx = np.searchsorted(surv.event_times, self.x_in)
        self.r_in = surv.risk_fraction[idx]
        # weight S_hat(x_i)/R(x_i); sums to n * (S_hat(t1) - S_hat(t2)) exactly
        self.c_in = self.s_in / self.r_in
        self.w_in = self.c_in / self.n  # the weights c/n, which sum to D
        # the subjects in order of x, for psi: their weights c/n, and for
        # each subject the number with x_j < x_i
        self.x_order = np.argsort(self.x_in, kind="stable")
        self.w_sorted = self.w_in[self.x_order]
        self.x_rank = np.searchsorted(self.x_in[self.x_order], self.x_in, "left")
        # the subjects of positive weight (c_i = 0 once S_hat has reached 0)
        self.weighted = (self.c_in > 0)[:, None]
        self.v_rounding = np.finfo(float).eps * np.diff(cohort.ptr)[self.in_window].max(initial=0)

    def psi_matrix(self, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """mu_hat and the per-subject influence terms psi_i(u) from the
        backward values V_i(u) on a grid: shapes (len(grid),) and
        (n_in_window, len(grid)).

        psi_i(u) = [S_hat(x_i) V_i(u) - H_hat(x_i, u)/D] / (R(x_i) D) with
        D = S_hat(t1) - S_hat(t2) and H_hat(s, u) = S_hat(t1) T(u) - D P(s, u),
        where P(s, u) = n^{-1} sum_{x_j < s} c_j V_j(u) and T = P(inf) =
        D mu_hat. So psi_i = [S_hat(x_i) V_i + P(x_i) - S_hat(t1) mu_hat] /
        (R(x_i) D), and both come from one prefix sum over the subjects in
        order of x. Then Sigma_hat = psi' psi / n and the multiplier-bootstrap
        process is W(u) = n^{-1/2} G' psi. Where V(u) is the same for every
        subject of positive weight, up to rounding, psi(u) is exactly zero.

        Against a long-double evaluation of the definition on the lossless
        grid of the study cohort (seed 12345, window [1, 20)), sigma_hat's
        largest error relative to max sigma_hat is 6.0e-16 at n=2000 and
        1.0e-15 at n=10,000, against 2.8e-16 and 4.8e-16 with H read off
        separate prefix and suffix sums. On the narrow windows [1, 1.45) and
        [1, 1.035) at n=10,000 (D = 0.097 and 0.0061) the two forms agree:
        2.1e-16 and 3.1e-16, against 2.5e-16 and 3.3e-16.
        """
        # one row per grid point; np.take keeps the subject axis contiguous
        wv = np.take(v.T, self.x_order, axis=1)
        wv *= self.w_sorted
        p = np.zeros((wv.shape[0], wv.shape[1] + 1))
        np.cumsum(wv, axis=1, out=p[:, 1:])  # column k: the first k subjects
        del wv  # at most three block arrays live at once
        mu = p[:, -1] / self.d
        # P(x_i) is column x_rank[i]; then in place, in the layout of v, the
        # operations of (P - S(t1) mu + S V) / (R D) without their temporaries
        psi = np.take(p, self.x_rank, axis=1).T
        psi -= self.s_t1 * mu
        psi += self.s_in[:, None] * v
        psi /= self.r_in[:, None] * self.d
        # psi is zero in exact arithmetic where V is the same for every subject
        # of positive weight, as S_hat(x_i) + n^{-1} sum_{x_j < x_i} c_j = S_hat(t1);
        # V sums at most N marks >= 0 (N the most events of a subject), so in any order
        # such V differ by less than N eps V = v_rounding V: there psi is set to 0
        hi = np.max(v, axis=0, initial=0.0, where=self.weighted)
        lo = np.min(v, axis=0, initial=np.inf, where=self.weighted)
        psi[:, hi - lo <= self.v_rounding * hi] = 0.0
        return mu, psi

    def bootstrap(self, grid: np.ndarray, g: np.ndarray
                  ) -> tuple[BackwardCurve, np.ndarray, np.ndarray]:
        """mu_hat and sigma_hat on a grid and, in the same sweep, the sup
        statistics of the multiplier processes W_k = n^{-1/2} g_k' psi.

        g holds the (m, n_in_window) multipliers. Returns (curve, sup_w,
        sup_t): per replicate, the max over the grid of |W_k(u)| and of
        |W_k(u)| / sigma_hat(u) over the points with sigma_hat > 0 (0 if
        there are none). No (m, G) array is formed.
        """
        return self._sweep(self.window.check_u(grid), g)

    def _sweep(self, grid: np.ndarray, g: np.ndarray, v: np.ndarray | None = None
               ) -> tuple[BackwardCurve, np.ndarray, np.ndarray]:
        """:meth:`bootstrap` on a checked grid, reading its blocks off ``v``, V on
        that grid, when given: the blocks it would build, so the same figures."""
        m, k = g.shape
        # as the bootstrap holds the (m, K) draw already, a block's K x
        # columns of V and psi may take up to an eighth of it, and its
        # columns x m of W up to all of it, so that each product is wide
        # enough to run at BLAS speed; with no replicates, K x columns
        width = min(_block_width(k, g.size // 8), _block_width(m, g.size))
        root_n = math.sqrt(self.n)
        mu = np.empty(grid.size)
        sigma = np.empty(grid.size)
        sup_w = np.zeros(m)
        sup_t = np.zeros(m)
        if v is None:
            blocks = self.cohort.backward_blocks(self.window, grid, width)
        else:
            split = np.split(np.argsort(grid, kind="stable"), range(width, grid.size, width))
            blocks = ((cols, v[:, cols]) for cols in split)
        for cols, block in blocks:
            mu[cols], psi = self.psi_matrix(block)
            sig = np.sqrt(np.sum(psi * psi, axis=0) / self.n)
            sigma[cols] = sig
            # W' is psi' g' up to 1/sqrt(n), one row per grid column, so both
            # sups are maxima down its columns; |W|/sigma is a row of |W'|
            # times 1/(sqrt(n) sigma), or times 0 where sigma = 0; the max
            # commutes with the division of |W| by sqrt(n), which sup_w
            # takes once after the sweep
            scale = np.divide(1.0, root_n * sig, out=np.zeros(sig.size), where=sig > 0)
            # numpy sends a one-row product to gemv, whose sums run in another
            # order than gemm's; taken twice, a lone column runs through gemm
            # like the other blocks, so that W does not depend on the width
            # (unless BLAS takes another kernel for a small product)
            wt = (psi.T @ g.T if sig.size > 1 else np.repeat(psi.T, 2, axis=0) @ g.T)[:sig.size]
            np.abs(wt, out=wt)
            np.maximum(sup_w, np.max(wt, axis=0), out=sup_w)
            wt *= scale[:, None]
            np.maximum(sup_t, np.max(wt, axis=0), out=sup_t)
            del psi, wt  # no block outlives its iteration
        sup_w /= root_n
        curve = BackwardCurve(window=self.window, grid=grid, mu=mu, sigma=sigma, n=self.n)
        return curve, sup_w, sup_t


def default_grid(cohort: Cohort, window: EstimandWindow) -> np.ndarray:
    """Lossless evaluation grid: 0, tau0 and every distinct backward event
    offset of the in-window uncensored subjects. mu_hat is a step function
    constant between these points."""
    _, offsets, _ = cohort.window_events(window)
    return np.unique(np.concatenate([[0.0, window.tau0], offsets]))


def backward_mean(cohort: Cohort, window: EstimandWindow, u: float) -> float:
    """Backward mean estimate mu_hat_{t1,t2}(u).

    Weighted mean of V_i(u) over uncensored subjects failing in [t1, t2)
    (closed left, open right), weights S_hat(x_i)/R(x_i), normalized by
    n (S_hat(t1) - S_hat(t2)).
    """
    return float(backward_curve(cohort, window, window.point(u)).mu[0])


def covariance(cohort: Cohort, window: EstimandWindow, u: float, v: float) -> float:
    """Asymptotic covariance estimate Sigma_hat(u, v) of sqrt(n) mu_hat.

    Gram form: n^{-1} sum_i psi_i(u) psi_i(v), which is symmetric PSD by
    construction. The variance of mu_hat(u) itself is Sigma_hat(u, u)/n.
    """
    eng = WindowEngine(cohort, window)
    _, psi = eng.psi_matrix(cohort.backward_matrix(window, [window.point(u), window.point(v)]))
    return float((psi.T @ psi / eng.n)[0, 1])


def backward_curve(cohort: Cohort, window: EstimandWindow, grid: np.ndarray) -> BackwardCurve:
    """Evaluate mu_hat and its pointwise sigma on a grid (see
    :func:`default_grid` for the lossless one): the sweep of
    :meth:`WindowEngine.bootstrap` with no replicates. sigma_hat(u)^2 =
    n^{-1} sum_i psi_i(u)^2 is read off the column sums of psi^2 block by
    block, so that neither the K x G psi nor a G x G matrix is formed."""
    eng = WindowEngine(cohort, window)
    return eng.bootstrap(grid, np.empty((0, eng.in_window.size)))[0]

