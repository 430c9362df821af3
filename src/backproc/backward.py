"""Core estimators for the mean of processes aligned backward from failure.

Everything here is a weighted sum over uncensored in-window subjects with
weights S_hat(x_i) / R(x_i): the marked cumulative hazard, the backward mean
mu_hat_{t1,t2}(u), the H function entering the asymptotic covariance, and the
covariance estimator itself (in Gram form, so it is exactly positive
semidefinite on any grid).
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .model import Cohort, EstimandWindow, backward_values
from .survival import SurvivalCurve, product_limit, survival_at

__all__ = [
    "BackwardCurve",
    "DegenerateWindowError",
    "WindowEngine",
    "default_grid",
    "marked_cum_hazard",
    "backward_mean",
    "h_hat",
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
    sigma / sqrt(n).
    """

    window: EstimandWindow
    grid: np.ndarray
    mu: np.ndarray
    sigma: np.ndarray
    n: int


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
        self.curve = curve if curve is not None else product_limit(cohort)
        self.n = cohort.n
        self.s_t1 = survival_at(self.curve, window.t1)
        self.s_t2 = survival_at(self.curve, window.t2)
        self.d = self.s_t1 - self.s_t2
        if self.d <= 0:
            raise DegenerateWindowError(
                f"no identifiable failure mass in window [{window.t1}, {window.t2})"
            )
        x = cohort.x_array()
        delta = cohort.delta_array()
        mask = (delta == 1) & (x >= window.t1) & (x < window.t2)
        self.in_window = np.flatnonzero(mask)
        self.x_in = x[self.in_window]
        self.s_in = survival_at(self.curve, self.x_in)
        # each in-window x_i is an uncensored event time, so R > 0 there
        idx = np.searchsorted(self.curve.event_times, self.x_in)
        self.r_in = self.curve.risk_fraction[idx]
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
        if self.in_window.size == 0:
            return np.zeros((0, grid.size))
        return np.vstack(
            [backward_values(self.cohort.subjects[i], grid) for i in self.in_window]
        )

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


def default_grid(cohort: Cohort, window: EstimandWindow) -> np.ndarray:
    """Lossless evaluation grid: 0, tau0 and every distinct backward event
    offset of the in-window uncensored subjects. mu_hat is a step function
    constant between these points."""
    offsets: set[float] = {0.0, window.tau0}
    for s in cohort.subjects:
        if s.delta == 1 and window.t1 <= s.x < window.t2:
            for ev in s.events:
                off = s.x - ev.time
                if 0 <= off <= window.tau0:
                    offsets.add(float(off))
    return np.array(sorted(offsets))


def marked_cum_hazard(
    cohort: Cohort, curve: SurvivalCurve, tau0: float, t: float, u: float
) -> float:
    """Mark-weighted cumulative hazard Lambda_hat^V(t, u) over [tau0, t].

    Equals n^{-1} sum_i Delta_i I(tau0 <= x_i <= t) V_i(u) / R(x_i); a
    hazard-weighted cumulative mean of the backward process.
    """
    if t < tau0:
        raise ValueError(f"t={t} must be >= tau0={tau0}")
    if not (0 <= u <= tau0):
        raise ValueError(f"u={u} outside [0, tau0={tau0}]")
    x = cohort.x_array()
    delta = cohort.delta_array()
    total = 0.0
    for i in np.flatnonzero((delta == 1) & (x >= tau0) & (x <= t)):
        subj = cohort.subjects[i]
        idx = np.searchsorted(curve.event_times, subj.x)
        r = curve.risk_fraction[idx]
        total += float(backward_values(subj, np.array([u]))[0]) / r
    return total / cohort.n


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


def h_hat(
    cohort: Cohort,
    window: EstimandWindow,
    s: float,
    u: float,
    curve: SurvivalCurve | None = None,
) -> float:
    """The H function of the covariance estimator, evaluated at (s, u)."""
    if not (window.t1 <= s <= window.t2):
        raise ValueError(f"s={s} outside [t1={window.t1}, t2={window.t2}]")
    eng = WindowEngine(cohort, window, curve)
    return float(eng.h_matrix(np.array([s]), np.array([u]))[0, 0])


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
    if grid is None:
        grid = default_grid(cohort, window)
    grid = np.asarray(grid, dtype=float)
    v = eng.v_matrix(grid)
    mu = eng.mu(grid, v)
    sigma = np.sqrt(np.maximum(np.diag(eng.sigma_matrix(grid, v)), 0.0))
    return BackwardCurve(window=window, grid=grid, mu=mu, sigma=sigma, n=cohort.n)


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
