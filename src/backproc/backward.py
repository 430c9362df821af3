"""Core estimators for the mean of processes aligned backward from failure.

Everything here is a weighted sum over uncensored in-window subjects with
weights S_hat(x_i) / R(x_i): the backward mean mu_hat_{t1,t2}(u), the H
function entering the asymptotic covariance, and the covariance estimator
itself (in Gram form, so it is exactly positive semidefinite on any grid).
:meth:`WindowEngine.bootstrap` is the one fit: a sweep of the grid in column
blocks, so that no array spans the whole grid, yields mu_hat, sigma_hat and
the multiplier bootstrap's sup statistics. :meth:`WindowEngine.curve` is
that sweep with no replicates.
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
    """No identifiable failure mass in the window: S_hat(t1) = S_hat(t2)."""


# bound on the cells of one block of the grid sweep, max(K, m) x columns
_SWEEP_CELLS = 1 << 16


def _block_width(rows: int, cells: int = 0) -> int:
    """Grid columns per block of the sweep: rows x columns within the cell
    budget, or within ``cells`` where that is larger. A width of 8 or more
    is rounded down to a multiple of 8, so that BLAS's matrix-vector kernel
    takes the columns in the same groups as on the whole grid and mu_hat
    matches that product bit for bit."""
    width = max(_SWEEP_CELLS, cells) // max(rows, 1)
    return width - width % 8 if width >= 8 else max(1, width)


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
    """Precomputed per-(cohort, window) arrays shared by the estimators.

    For the in-window uncensored subjects this caches x_i (and their order),
    S_hat(x_i) and R(x_i). The matrix of backward values V_i(u) on a grid,
    from which the mean, the covariance and the bootstrap influence terms
    follow as array operations, is built whole by :meth:`v_matrix` or a
    block of grid columns at a time by the sweeps of :meth:`curve`,
    :meth:`bootstrap` and :func:`backproc.dist.percentile_curve`.
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
        self.x_in = cohort.x_array()[self.in_window]
        self.s_in = survival_at(surv, self.x_in)
        # each in-window x_i is an uncensored event time, so R > 0 there
        idx = np.searchsorted(surv.event_times, self.x_in)
        self.r_in = surv.risk_fraction[idx]
        # weight S_hat(x_i)/R(x_i); sums to n * (S_hat(t1) - S_hat(t2)) exactly
        self.c_in = self.s_in / self.r_in
        self.w_in = self.c_in / self.n  # the weights c/n, which sum to D
        # the subjects in order of x, for H: their x, their weights c/n, and
        # for each subject the number with x_j < x_i
        self.x_order = np.argsort(self.x_in, kind="stable")
        self.x_sorted = self.x_in[self.x_order]
        self.c_sorted = self.w_in[self.x_order]
        self.x_rank = np.searchsorted(self.x_sorted, self.x_in, "left")

    def v_matrix(self, grid: np.ndarray) -> np.ndarray:
        """Backward values V_i(u), shape (n_in_window, len(grid)); see
        :meth:`EstimandWindow.check_u` for the u contract."""
        grid = np.asarray(grid, dtype=float)
        self.window.check_u(grid)
        return self.cohort.backward_matrix(self.in_window, grid)

    def h_matrix(self, s: np.ndarray, v: np.ndarray) -> np.ndarray:
        """H_hat(s_k, u) for s_k in [t1, t2] from the backward values V_i(u)
        on a grid, shape (len(s), len(grid)).

        H_hat(s, u) = n^{-1} sum_j c_j V_j(u) [S(t1) I(x_j >= s) + S(t2)
        I(x_j < s)], read off the prefix and suffix sums of c_j V_j(u) over
        the subjects in order of x. Each is its own cumsum, so neither is a
        difference that could cancel.
        """
        s = np.asarray(s, dtype=float)
        # subjects with x_j < s; psi_matrix's s, the subjects' own x, are ranked once
        k = self.x_rank if s is self.x_in else np.searchsorted(self.x_sorted, s, "left")
        # one row per grid point; np.take keeps the subject axis contiguous
        cv = np.take(v.T, self.x_order, axis=1)
        cv *= self.c_sorted
        h = np.zeros((cv.shape[0], cv.shape[1] + 1))
        np.cumsum(cv, axis=1, out=h[:, 1:])  # column k: sum over x_j < s
        h *= self.s_t2
        from_here = cv[:, ::-1]
        np.cumsum(from_here, axis=1, out=from_here)  # column k: sum over x_j >= s
        cv *= self.s_t1
        h[:, :-1] += cv
        return np.take(h, k, axis=1).T

    def psi_matrix(self, v: np.ndarray) -> np.ndarray:
        """Per-subject influence terms psi_i(u) from the backward values
        V_i(u) on a grid, shape (n_in_window, len(grid)).

        psi_i(u) = [S_hat(x_i) V_i(u) - H_hat(x_i, u)/D] / (R(x_i) D) with
        D = S_hat(t1) - S_hat(t2). Then Sigma_hat = psi' psi / n and the
        multiplier-bootstrap process is W(u) = n^{-1/2} G' psi.
        """
        h = self.h_matrix(self.x_in, v)
        h /= self.d
        # in place, in the layout of v: the operations of
        # (S V - H/D) / (R D), without its temporaries
        a = self.s_in[:, None] * v
        a -= h
        a /= self.r_in[:, None] * self.d
        return a

    def sigma_matrix(self, grid: np.ndarray) -> np.ndarray:
        psi = self.psi_matrix(self.v_matrix(grid))
        return psi.T @ psi / self.n

    def v_blocks(self, grid: np.ndarray, width: int | None = None):
        """V_i(u) over the grid in increasing u, ``width`` columns at a time;
        see :meth:`Cohort.backward_blocks`. By default a block has as many
        columns as keep n_in_window x columns within the sweep's cell budget.
        """
        grid = np.asarray(grid, dtype=float)
        self.window.check_u(grid)
        if width is None:
            width = _block_width(self.in_window.size)
        return self.cohort.backward_blocks(self.in_window, grid, width)

    def curve(self, grid: np.ndarray) -> BackwardCurve:
        """mu_hat and sigma_hat on a grid: the sweep of :meth:`bootstrap`
        with no replicates.

        sigma_hat(u)^2 = n^{-1} sum_i psi_i(u)^2 is the diagonal of
        :meth:`sigma_matrix`, read off the column sums of psi^2 block by
        block, so that neither the K x G psi nor a G x G matrix is formed.
        """
        return self.bootstrap(grid, np.empty((0, self.in_window.size)))[0]

    def bootstrap(self, grid: np.ndarray, g: np.ndarray
                  ) -> tuple[BackwardCurve, np.ndarray, np.ndarray]:
        """The curve of :meth:`curve` and, in the same sweep, the sup
        statistics of the multiplier processes W_k = n^{-1/2} g_k' psi.

        g holds the (m, n_in_window) multipliers. Returns (curve, sup_w,
        sup_t): per replicate, the max over the grid of |W_k(u)| and of
        |W_k(u)| / sigma_hat(u) over the points with sigma_hat > 0 (0 if
        there are none). No (m, G) array is formed.
        """
        grid = np.asarray(grid, dtype=float)
        g = np.asarray(g, dtype=float)
        # blocks of max(m, K) x columns; as the bootstrap holds the (m, K)
        # draw already, a block may take up to an eighth of it, so that
        # each g @ psi is wide enough to run at BLAS speed
        width = _block_width(max(g.shape), g.size // 8)
        mu = np.empty(grid.size)
        sigma = np.empty(grid.size)
        sup_w = np.zeros(g.shape[0])
        sup_t = np.zeros(g.shape[0])
        for cols, v in self.v_blocks(grid, width):
            mu[cols] = (self.c_in @ v) / (self.n * self.d)
            psi = self.psi_matrix(v)
            sig = np.sqrt(np.sum(psi * psi, axis=0) / self.n)
            sigma[cols] = sig
            # |W| is built in place, and then |W|/sigma over it: the
            # elementwise operations of the direct formula
            w = g @ psi
            w /= math.sqrt(self.n)
            np.abs(w, out=w)
            np.maximum(sup_w, np.max(w, axis=1), out=sup_w)
            pos = sig > 0
            np.divide(w, sig, out=w, where=pos)
            # zeroing the sigma = 0 columns leaves each row's max over
            # the others, which are all >= 0, unchanged
            w[:, ~pos] = 0.0
            np.maximum(sup_t, np.max(w, axis=1), out=sup_t)
            del psi, w  # no block outlives its iteration
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
    return float(backward_curve(cohort, window, np.array([u])).mu[0])


def covariance(cohort: Cohort, window: EstimandWindow, u: float, v: float) -> float:
    """Asymptotic covariance estimate Sigma_hat(u, v) of sqrt(n) mu_hat.

    Gram form: n^{-1} sum_i psi_i(u) psi_i(v), which is symmetric PSD by
    construction. The variance of mu_hat(u) itself is Sigma_hat(u, u)/n.
    """
    eng = WindowEngine(cohort, window)
    sig = eng.sigma_matrix(np.array([u, v]))
    return float(sig[0, 1])


def backward_curve(cohort: Cohort, window: EstimandWindow, grid: np.ndarray) -> BackwardCurve:
    """Evaluate mu_hat and its pointwise sigma on a grid (see
    :func:`default_grid` for the lossless one)."""
    return WindowEngine(cohort, window).curve(grid)

