"""Core estimators for the mean of processes aligned backward from failure.

Everything here is a weighted sum over uncensored in-window subjects with
weights S_hat(x_i) / R(x_i): the backward mean mu_hat_{t1,t2}(u), the H
function entering the asymptotic covariance, and the covariance estimator
itself (in Gram form, so it is exactly positive semidefinite on any grid).
:meth:`WindowEngine.curve` is the one fit that yields mu_hat, sigma_hat and
the influence terms psi together.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from statistics import NormalDist

import numpy as np

from .model import Cohort, EstimandWindow
from .survival import SurvivalCurve, product_limit, survival_at

__all__ = [
    "BackwardCurve",
    "DegenerateWindowError",
    "WindowEngine",
    "default_grid",
    "backward_mean",
    "covariance",
    "backward_curve",
    "pointwise_ci",
]


class DegenerateWindowError(RuntimeError):
    """No identifiable failure mass in the window: S_hat(t1) = S_hat(t2)."""


@dataclass(frozen=True)
class BackwardCurve:
    """Backward mean estimate on a grid with pointwise standard deviations.

    sigma holds Sigma_hat(u, u)^{1/2}; the standard error of mu_hat(u) is
    sigma / sqrt(n). psi holds the per-subject influence terms the estimate
    was built from, shape (n_in_window, len(grid)); the multiplier bootstrap
    of :func:`backproc.bands.band_critical_values` reuses them.
    """

    window: EstimandWindow
    grid: np.ndarray
    mu: np.ndarray
    sigma: np.ndarray
    n: int
    psi: np.ndarray = field(repr=False)


class WindowEngine:
    """Precomputed per-(cohort, window) arrays shared by the estimators.

    For the in-window uncensored subjects this caches x_i, S_hat(x_i),
    R(x_i) and lazily builds the matrix of backward values V_i(u) on a grid,
    from which the mean, the covariance and the bootstrap influence terms
    all follow as dense array operations.
    """

    def __init__(self, cohort: Cohort, window: EstimandWindow, curve: SurvivalCurve | None = None):
        self.cohort = cohort
        self.window = window
        surv = curve if curve is not None else product_limit(cohort)
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

    def v_matrix(self, grid: np.ndarray) -> np.ndarray:
        """Backward values V_i(u), shape (n_in_window, len(grid)).

        Raises ValueError for any u outside [0, tau0]: the estimand is
        defined only there."""
        grid = np.asarray(grid, dtype=float)
        bad = ~((grid >= 0) & (grid <= self.window.tau0))
        if np.any(bad):
            raise ValueError(f"u={grid[bad].flat[0]} outside [0, tau0={self.window.tau0}]")
        return self.cohort.backward_matrix(self.in_window, grid)

    def mu(self, grid: np.ndarray, v: np.ndarray | None = None) -> np.ndarray:
        if v is None:
            v = self.v_matrix(grid)
        return (self.c_in @ v) / (self.n * self.d)

    def h_matrix(self, s: np.ndarray, grid: np.ndarray, v: np.ndarray | None = None) -> np.ndarray:
        """H_hat(s_k, u) for s_k in [t1, t2], shape (len(s), len(grid))."""
        if v is None:
            v = self.v_matrix(grid)
        s = np.asarray(s, dtype=float)
        # I(t1 <= s <= x_j < t2) S(t1) + I(t1 <= x_j < s <= t2) S(t2)
        coef = np.where(self.x_in[None, :] >= s[:, None], self.s_t1, self.s_t2)
        return (coef * self.c_in[None, :]) @ v / self.n

    def psi_matrix(self, grid: np.ndarray, v: np.ndarray | None = None) -> np.ndarray:
        """Per-subject influence terms psi_i(u), shape (n_in_window, len(grid)).

        psi_i(u) = [S_hat(x_i) V_i(u) - H_hat(x_i, u)/D] / (R(x_i) D) with
        D = S_hat(t1) - S_hat(t2). Then Sigma_hat = psi' psi / n and the
        multiplier-bootstrap process is W(u) = n^{-1/2} G' psi.
        """
        if v is None:
            v = self.v_matrix(grid)
        h = self.h_matrix(self.x_in, grid, v)
        a = self.s_in[:, None] * v - h / self.d
        return a / (self.r_in[:, None] * self.d)

    def sigma_matrix(self, grid: np.ndarray, v: np.ndarray | None = None) -> np.ndarray:
        psi = self.psi_matrix(grid, v)
        return psi.T @ psi / self.n

    def curve(self, grid: np.ndarray) -> BackwardCurve:
        """mu_hat, sigma_hat and psi on a grid, from one V matrix.

        sigma_hat(u)^2 = n^{-1} sum_i psi_i(u)^2 is the diagonal of
        :meth:`sigma_matrix`, read off the column sums of psi^2 so that no
        G x G matrix is formed.
        """
        grid = np.asarray(grid, dtype=float)
        v = self.v_matrix(grid)
        psi = self.psi_matrix(grid, v)
        sigma = np.sqrt(np.sum(psi * psi, axis=0) / self.n)
        return BackwardCurve(window=self.window, grid=grid, mu=self.mu(grid, v),
                             sigma=sigma, n=self.n, psi=psi)


def default_grid(cohort: Cohort, window: EstimandWindow) -> np.ndarray:
    """Lossless evaluation grid: 0, tau0 and every distinct backward event
    offset of the in-window uncensored subjects. mu_hat is a step function
    constant between these points."""
    _, offsets, _ = cohort.backward_events(cohort.in_window(window))
    offsets = offsets[offsets <= window.tau0]  # validation keeps offsets >= 0
    return np.unique(np.concatenate([[0.0, window.tau0], offsets]))


def backward_mean(
    cohort: Cohort,
    window: EstimandWindow,
    u: float,
    curve: SurvivalCurve | None = None,
) -> float:
    """Backward mean estimate mu_hat_{t1,t2}(u).

    Weighted mean of V_i(u) over uncensored subjects failing in [t1, t2)
    (closed left, open right), weights S_hat(x_i)/R(x_i), normalized by
    n (S_hat(t1) - S_hat(t2)).
    """
    eng = WindowEngine(cohort, window, curve)
    return float(eng.mu(np.array([u]))[0])


def covariance(
    cohort: Cohort,
    window: EstimandWindow,
    u: float,
    v: float,
    curve: SurvivalCurve | None = None,
) -> float:
    """Asymptotic covariance estimate Sigma_hat(u, v) of sqrt(n) mu_hat.

    Gram form: n^{-1} sum_i psi_i(u) psi_i(v), which is symmetric PSD by
    construction. The variance of mu_hat(u) itself is Sigma_hat(u, u)/n.
    """
    eng = WindowEngine(cohort, window, curve)
    sig = eng.sigma_matrix(np.array([u, v]))
    return float(sig[0, 1])


def backward_curve(
    cohort: Cohort,
    window: EstimandWindow,
    grid: np.ndarray | None = None,
    curve: SurvivalCurve | None = None,
) -> BackwardCurve:
    """Evaluate mu_hat and its pointwise sigma on a grid (default: lossless grid)."""
    eng = WindowEngine(cohort, window, curve)
    return eng.curve(default_grid(cohort, window) if grid is None else grid)


def pointwise_ci(
    curve: BackwardCurve, level: float = 0.95, kind: str = "plain"
) -> tuple[np.ndarray, np.ndarray]:
    """Pointwise confidence intervals mu_hat +- n^{-1/2} z sigma_hat.

    kind="log" gives mu * exp(+- n^{-1/2} z sigma/mu), valid only where
    mu_hat > 0 (raises otherwise); useful when the process is nonnegative.
    """
    if not (0 < level < 1):
        raise ValueError(f"level must be in (0, 1), got {level}")
    z = NormalDist().inv_cdf(0.5 + level / 2)
    half = z * curve.sigma / np.sqrt(curve.n)
    if kind == "plain":
        return curve.mu - half, curve.mu + half
    if kind == "log":
        if np.any(curve.mu == 0):
            raise ValueError("log-transformed interval undefined where mu_hat = 0")
        return curve.mu * np.exp(-half / curve.mu), curve.mu * np.exp(half / curve.mu)
    raise ValueError(f"unknown interval kind {kind!r}")
