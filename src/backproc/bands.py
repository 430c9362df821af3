"""Multiplier-bootstrap simultaneous confidence bands for the backward mean.

The limiting Gaussian process of sqrt(n)(mu_hat - mu) does not have
independent increments, so its sup distribution is simulated: i.i.d.
standard normal multipliers G_i are attached to the per-subject influence
terms, W(u) = n^{-1/2} sum_i G_i psi_i(u), and the band critical value is an
empirical quantile of max_u |W(u)| over the evaluation grid.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .backward import BackwardCurve, backward_curve
from .model import Cohort, EstimandWindow

__all__ = ["BandResult", "band_critical_values", "bands"]


@dataclass(frozen=True)
class BandResult:
    """Simultaneous band: grid, kind, critical value and lo/hi per point.

    Grid points excluded from a log band (mu_hat = 0 there) are reported in
    ``excluded`` and carry NaN bounds.
    """

    grid: np.ndarray
    kind: str
    critical_value: float
    band_lo: np.ndarray
    band_hi: np.ndarray
    excluded: np.ndarray


def _quantile_ceil(sorted_vals: np.ndarray, alpha: float) -> float:
    # order statistic at index ceil((1-alpha) m), 1-based; fixed for reproducibility
    m = sorted_vals.size
    k = max(1, math.ceil((1 - alpha) * m))
    return float(sorted_vals[k - 1])


def band_critical_values(
    cohort: Cohort,
    window: EstimandWindow,
    grid: np.ndarray,
    m: int = 1000,
    alpha: float = 0.05,
    seed: int | None = None,
    fit: BackwardCurve | None = None,
    rng: np.random.Generator | None = None,
) -> tuple[float, float]:
    """Critical values (b, b_star) from m multiplier-bootstrap replicates.

    b is the empirical (1-alpha)-quantile of max over the grid of |W_k(u)|;
    b_star the same for |W_k(u)|/sigma_hat(u), with sigma_hat = 0 grid points
    excluded from the maximization (the mean is identically zero there).

    b matches the constant-width band mu_hat +- n^{-1/2} b; b_star matches
    the sigma-scaled band built by :func:`bands`. Mixing b with the
    sigma-scaled shape is dimensionally inconsistent and grossly overcovers.

    fit is the curve of this cohort on this window and grid (from
    :func:`backproc.backward.backward_curve`); its psi and sigma are reused,
    and without it the curve is fitted here. The (m, K) multipliers are
    drawn from rng, or from a generator seeded with seed when rng is None.
    """
    if m < 1:
        raise ValueError("need at least one replicate")
    if not (0 < alpha < 1):
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    if fit is None:
        fit = backward_curve(cohort, window, grid)
    elif fit.window != window or fit.n != cohort.n or not np.array_equal(fit.grid, grid):
        raise ValueError("fit was made for another cohort, window or grid")
    if rng is None:
        rng = np.random.default_rng(seed)
    g = rng.standard_normal((m, fit.psi.shape[0]))
    w = g @ fit.psi / math.sqrt(fit.n)

    b = _quantile_ceil(np.sort(np.max(np.abs(w), axis=1)), alpha)
    pos = fit.sigma > 0
    if not np.any(pos):
        raise ValueError("sigma_hat is zero at every grid point; b_star undefined")
    b_star = _quantile_ceil(np.sort(np.max(np.abs(w[:, pos]) / fit.sigma[pos], axis=1)), alpha)

    z = NormalDist().inv_cdf(1 - alpha / 2)
    if m >= 200 and b_star < z:
        # the studentized simultaneous quantile should dominate the pointwise
        # one; b is on the scale of the marks and cannot be compared with z
        warnings.warn(
            f"band critical value b_star={b_star:.4f} below pointwise z={z:.4f}; "
            "bootstrap sample may be too small or the grid degenerate",
            stacklevel=2,
        )
    return b, b_star


def bands(curve: BackwardCurve, critical_value: float, kind: str = "plain") -> BandResult:
    """Simultaneous band around mu_hat.

    plain: mu +- n^{-1/2} b* sigma (use b_star from band_critical_values).
    log:   mu exp(+- n^{-1/2} b* sigma / mu), always nonnegative; grid points
           with mu_hat = 0 are excluded and reported.
    """
    half = critical_value * curve.sigma / np.sqrt(curve.n)
    if kind == "plain":
        lo, hi = curve.mu - half, curve.mu + half
        excluded = np.array([], dtype=int)
    elif kind == "log":
        excluded = np.flatnonzero(curve.mu == 0)
        with np.errstate(divide="ignore", invalid="ignore"):
            lo = curve.mu * np.exp(-half / curve.mu)
            hi = curve.mu * np.exp(half / curve.mu)
        lo[excluded] = np.nan
        hi[excluded] = np.nan
    else:
        raise ValueError(f"unknown band kind {kind!r}")
    return BandResult(
        grid=curve.grid,
        kind=kind,
        critical_value=critical_value,
        band_lo=lo,
        band_hi=hi,
        excluded=excluded,
    )
