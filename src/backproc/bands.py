"""Multiplier-bootstrap simultaneous confidence bands for the backward mean.

The limiting Gaussian process of sqrt(n)(mu_hat - mu) does not have
independent increments, so its sup distribution is simulated: i.i.d.
standard normal multipliers G_i are attached to the per-subject influence
terms, W(u) = n^{-1/2} sum_i G_i psi_i(u), and the band critical value is an
empirical quantile of max_u |W(u)| over the evaluation grid. The sup is
kept per replicate while the grid is swept in column blocks, so neither psi
nor W is held over the whole grid.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .backward import BackwardCurve, WindowEngine
from .model import (Cohort, EstimandWindow, InputContractError, check_count, check_number,
                    seeded_rng)

__all__ = ["BandFit", "BandResult", "band_critical_values", "bands", "pointwise_ci"]


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


@dataclass(frozen=True)
class BandFit:
    """The curve and its band critical values, from one sweep of psi."""

    curve: BackwardCurve
    b: float
    b_star: float


def band_critical_values(
    cohort: Cohort,
    window: EstimandWindow,
    grid: np.ndarray,
    m: int = 1000,
    alpha: float = 0.05,
    seed: int | np.random.Generator | None = None,
) -> BandFit:
    """The curve on the grid and the critical values (b, b_star) of m
    multiplier-bootstrap replicates, fitted and bootstrapped in one sweep.

    b is the empirical (1-alpha)-quantile of max over the grid of |W_k(u)|;
    b_star the same for |W_k(u)|/sigma_hat(u), with sigma_hat = 0 grid points
    excluded from the maximization (the mean is identically zero there).
    b_star is NaN when sigma_hat is zero at every grid point.

    b matches the constant-width band mu_hat +- n^{-1/2} b; b_star matches
    the sigma-scaled band built by :func:`bands`. Mixing b with the
    sigma-scaled shape is dimensionally inconsistent and grossly overcovers.

    The (m, K) multipliers come from ``np.random.default_rng(seed)``: a
    Generator given as seed is drawn from directly and advances. An empty
    grid, which has no sup, raises InputContractError before the draw.
    """
    m = check_count("m", m, 1)
    alpha = check_number("alpha", alpha, allow_nan=True)
    if not (0 < alpha < 1):
        raise InputContractError(f"alpha must be in (0, 1), got {alpha}")
    eng = WindowEngine(cohort, window)
    grid = window.check_u(grid)  # before the draw
    if grid.size == 0:
        raise InputContractError("grid must hold at least one backward time")
    g = seeded_rng(seed).standard_normal((m, eng.in_window.size))
    curve, sup_w, sup_t = eng.bootstrap(grid, g)
    b = _quantile_ceil(np.sort(sup_w), alpha)
    if np.any(curve.sigma > 0):
        b_star = _quantile_ceil(np.sort(sup_t), alpha)
    else:
        b_star = math.nan

    z = NormalDist().inv_cdf(1 - alpha / 2)
    if m >= 200 and b_star < z:
        # the studentized simultaneous quantile should dominate the pointwise
        # one; b is on the scale of the marks and cannot be compared with z
        warnings.warn(
            f"band critical value b_star={b_star:.4f} below pointwise z={z:.4f}; "
            "bootstrap sample may be too small or the grid degenerate",
            stacklevel=2,
        )
    return BandFit(curve=curve, b=b, b_star=b_star)


def bands(curve: BackwardCurve, critical_value: float, kind: str = "plain") -> BandResult:
    """Simultaneous band around mu_hat.

    plain: mu +- n^{-1/2} b* sigma (use b_star from band_critical_values).
    log:   mu exp(+- n^{-1/2} b* sigma / mu), always nonnegative; grid points
           with mu_hat = 0 are excluded and reported.

    Raises InputContractError unless 0 <= critical_value < inf (a NaN is not).
    """
    critical_value = check_number("critical_value", critical_value, allow_nan=True)
    if not (0 <= critical_value < math.inf):
        raise InputContractError(
            f"critical value must be nonnegative and finite, got {critical_value}")
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
        raise InputContractError(f"unknown band kind {kind!r}")
    return BandResult(
        grid=curve.grid,
        kind=kind,
        critical_value=critical_value,
        band_lo=lo,
        band_hi=hi,
        excluded=excluded,
    )


def pointwise_ci(
    curve: BackwardCurve, level: float = 0.95, kind: str = "plain"
) -> tuple[np.ndarray, np.ndarray]:
    """Pointwise confidence intervals mu_hat +- n^{-1/2} z sigma_hat: the
    band of :func:`bands` with the normal quantile z as critical value.

    kind="log" gives mu * exp(+- n^{-1/2} z sigma/mu), valid only where
    mu_hat > 0 (raises otherwise); useful when the process is nonnegative.
    """
    level = check_number("level", level, allow_nan=True)
    if not (0 < level < 1):
        raise InputContractError(f"level must be in (0, 1), got {level}")
    if kind == "log" and np.any(curve.mu == 0):
        raise InputContractError("log-transformed interval undefined where mu_hat = 0")
    band = bands(curve, NormalDist().inv_cdf(0.5 + level / 2), kind)
    return band.band_lo, band.band_hi
