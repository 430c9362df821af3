"""Monte Carlo study harness: generative model with informative failure
times, naive complete-case comparators, an independent truth oracle, and the
replication loop producing per-u summary statistics and band coverage.

Generative design (defaults): failure time T ~ Gamma(shape 3, rate 1); each
untruncated draw is incident (W = 0) or prevalent (W ~ Uniform(0, 20)) with
equal probability, and the whole draw is rejected and redrawn until T >= W,
so the retained cohort is the observable population (about 13% prevalent).
Censoring C = W + C', C' ~ Uniform(0, 8). Given T, latent Z1, Z2 ~
Gamma(shape 3, rate T) drive a recurrent event process with rate 4 Z1
(simulated backward from T, which is equivalent in law) and event marks
Gamma(shape Z2 * (3 + 3 I(u < 1/3)), rate 1) at backward offset u. The
process of interest is the cumulative mark sum over the last u time units of
life; events outside the observation interval [w, x] are never recorded, so
a prevalent subject failing within tau0 of recruitment has part of its
backward window unobserved, which is the small downward bias the replication
study exhibits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .backward import DegenerateWindowError, WindowEngine
from .model import Cohort, CohortValidationError, EstimandWindow, apply_prevalent_shift
from .bands import band_critical_values
from .survival import EmptyRiskSetError

__all__ = [
    "SimConfig",
    "StudyReport",
    "generate_cohort",
    "naive_estimators",
    "true_mean_oracle",
    "run_study",
]


@dataclass(frozen=True)
class SimConfig:
    """Knobs of the generative model and the replication study.

    prevalent_fraction is the pre-truncation probability that a drawn
    subject belongs to the prevalent arm; rejection of draws with T < W
    makes the retained prevalent share smaller (about 13% at the default).

    shift_prevalent controls whether estimation runs on an artificially
    re-truncated cohort (every prevalent recruitment time advanced by tau0,
    subjects leaving observation before the new entry dropped). With the
    shift the backward window of every retained uncensored subject is fully
    observed and the estimator is exactly consistent; without it the study
    retains the small downward bias that unobservable pre-recruitment
    events induce. Default False.
    """

    n: int = 400
    reps: int = 2000
    band_reps: int = 1000
    seed: int = 0
    alpha: float = 0.05
    survival_shape: float = 3.0
    survival_rate: float = 1.0
    prevalent_fraction: float = 0.5
    shift_prevalent: bool = False
    truncation_upper: float = 20.0
    censoring_upper: float = 8.0
    latent_shape: float = 3.0
    recurrence_rate: float = 4.0
    mark_shape_base: float = 3.0
    mark_shape_jump: float = 3.0
    mark_jump_cutoff: float = 1.0 / 3.0
    tau0: float = 1.0
    tau1: float = 20.0
    u_grid: tuple[float, ...] = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)
    oracle_n: int = 1_000_000

    def __post_init__(self):
        for name in (
            "survival_shape",
            "survival_rate",
            "latent_shape",
            "recurrence_rate",
            "mark_shape_base",
        ):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if not (0 <= self.prevalent_fraction <= 1):
            raise ValueError("prevalent_fraction must be in [0, 1]")
        EstimandWindow(t1=self.tau0, t2=self.tau1, tau0=self.tau0)
        for u in self.u_grid:
            if not (0 <= u <= self.tau0):
                raise ValueError(f"u_grid value {u} outside [0, tau0={self.tau0}]")

    def window(self) -> EstimandWindow:
        return EstimandWindow(t1=self.tau0, t2=self.tau1, tau0=self.tau0)


@dataclass(frozen=True)
class StudyReport:
    """Per-u Monte Carlo summary plus overall simultaneous band coverage.

    sse is the sampling standard deviation of the estimates across
    replicates; see is the average of the estimated standard errors.
    """

    config: SimConfig
    grid: np.ndarray
    truth: np.ndarray
    truth_se: np.ndarray
    estimate_mean: np.ndarray
    sse: np.ndarray
    see: np.ndarray
    coverage: np.ndarray
    naive_incident: np.ndarray
    naive_prevalent: np.ndarray
    band_coverage: float
    replicates_used: int
    replicates_failed: int

    def rows(self) -> list[dict]:
        out = []
        for k, u in enumerate(self.grid):
            out.append(
                {
                    "u": float(u),
                    "truth": float(self.truth[k]),
                    "truth_mc_se": float(self.truth_se[k]),
                    "naive_incident": float(self.naive_incident[k]),
                    "naive_prevalent": float(self.naive_prevalent[k]),
                    "estimate": float(self.estimate_mean[k]),
                    "sse": float(self.sse[k]),
                    "see": float(self.see[k]),
                    "coverage": float(self.coverage[k]),
                }
            )
        return out


def _as_rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def generate_cohort(config: SimConfig, seed) -> Cohort:
    """Draw one left-truncated right-censored cohort of n retained subjects.

    Each draw picks an arm (incident W = 0 with probability
    1 - prevalent_fraction, prevalent W ~ Uniform(0, truncation_upper)
    otherwise) and a failure time T; the whole draw, arm included, is
    rejected and redrawn whenever T < W. Incident draws are always retained,
    so the retained prevalent share is below prevalent_fraction.
    """
    rng = _as_rng(seed)
    n = config.n
    shape = config.survival_shape
    scale = 1.0 / config.survival_rate

    t_fail = np.empty(n)
    w = np.empty(n)
    # rejection-sample (arm, T, W) jointly until n observable subjects remain
    pending = np.arange(n)
    while pending.size:
        k = pending.size
        arm_prev = rng.random(k) < config.prevalent_fraction
        t_new = rng.gamma(shape, scale, k)
        w_new = np.where(arm_prev, rng.uniform(0.0, config.truncation_upper, k), 0.0)
        ok = t_new >= w_new
        kept = pending[ok]
        t_fail[kept] = t_new[ok]
        w[kept] = w_new[ok]
        pending = pending[~ok]

    c_resid = rng.uniform(0.0, config.censoring_upper, n)
    cens = w + c_resid
    x = np.minimum(t_fail, cens)
    delta = (t_fail <= cens).astype(int)

    z1 = rng.gamma(config.latent_shape, 1.0 / t_fail)
    z2 = rng.gamma(config.latent_shape, 1.0 / t_fail)

    counts = rng.poisson(config.recurrence_rate * z1 * t_fail)
    subj = np.repeat(np.arange(n), counts)
    offsets = rng.uniform(0.0, t_fail[subj])
    mark_shape = z2[subj] * (
        config.mark_shape_base
        + config.mark_shape_jump * (offsets < config.mark_jump_cutoff)
    )
    marks = rng.gamma(mark_shape, 1.0)
    ev_time = t_fail[subj] - offsets
    keep = (ev_time >= w[subj]) & (ev_time <= x[subj])
    subj, ev_time, marks = subj[keep], ev_time[keep], marks[keep]

    # events by subject, then time, ties in draw order: complex numbers sort
    # by real part, then imaginary part (np.lexsort((ev_time, subj)), faster)
    order = np.argsort(subj + 1j * ev_time, kind="stable")
    width = len(str(n - 1))
    return Cohort.from_columns(
        [f"s{i:0{width}d}" for i in range(n)], w, x, delta,
        np.searchsorted(subj[order], np.arange(n + 1)), ev_time[order], marks[order],
    )


def _naive_grid(
    cohort: Cohort, window: EstimandWindow, grid: np.ndarray
) -> tuple[np.ndarray | None, np.ndarray | None]:
    """Unweighted complete-case means of V_i(u) on a grid, split by arm;
    None for an arm without a qualifying subject."""
    rows = cohort.in_window(window)
    v = cohort.backward_matrix(rows, grid)
    incident = cohort.w_array()[rows] == 0
    inc, prev = v[incident], v[~incident]
    return (
        inc.mean(axis=0) if len(inc) else None,
        prev.mean(axis=0) if len(prev) else None,
    )


def naive_estimators(cohort: Cohort, window: EstimandWindow, u: float) -> tuple[float, float]:
    """Unweighted complete-case means of V_i(u) over uncensored in-window
    subjects, split into the incident (w = 0) and prevalent (w > 0) arms."""
    inc, prev = _naive_grid(cohort, window, np.array([float(u)]))
    if inc is None:
        raise ValueError("no qualifying subjects in the incident arm")
    if prev is None:
        raise ValueError("no qualifying subjects in the prevalent arm")
    return float(inc[0]), float(prev[0])


def true_mean_oracle(
    config: SimConfig,
    u_grid=None,
    big_n: int | None = None,
    seed=0,
) -> tuple[np.ndarray, np.ndarray]:
    """Monte Carlo truth: simulate complete (untruncated, uncensored)
    subjects, condition on tau0 <= T < tau1, and average V(u) on the grid.

    Returns (truth, mc_standard_error) per grid point. Independent of the
    estimation code path: works directly from the generative law.
    """
    rng = _as_rng(seed)
    grid = np.asarray(config.u_grid if u_grid is None else u_grid, dtype=float)
    total = config.oracle_n if big_n is None else big_n
    sums = np.zeros(grid.size)
    sumsq = np.zeros(grid.size)
    kept = 0
    batch = 200_000
    remaining = total
    while remaining > 0:
        nb = min(batch, remaining)
        remaining -= nb
        t_fail = rng.gamma(config.survival_shape, 1.0 / config.survival_rate, nb)
        sel = (t_fail >= config.tau0) & (t_fail < config.tau1)
        t_fail = t_fail[sel]
        m = t_fail.size
        if m == 0:
            continue
        z1 = rng.gamma(config.latent_shape, 1.0 / t_fail)
        z2 = rng.gamma(config.latent_shape, 1.0 / t_fail)
        # only events within tau0 of failure can enter V(u), u <= tau0
        counts = rng.poisson(config.recurrence_rate * z1 * config.tau0)
        subj = np.repeat(np.arange(m), counts)
        offs = rng.uniform(0.0, config.tau0, subj.size)
        shape = z2[subj] * (
            config.mark_shape_base
            + config.mark_shape_jump * (offs < config.mark_jump_cutoff)
        )
        marks = rng.gamma(shape, 1.0)
        for k, u in enumerate(grid):
            v = np.bincount(subj, weights=marks * (offs <= u), minlength=m)
            sums[k] += v.sum()
            sumsq[k] += (v * v).sum()
        kept += m
    truth = sums / kept
    var = sumsq / kept - truth * truth
    return truth, np.sqrt(np.maximum(var, 0.0) / kept)


def _replicate(config: SimConfig, window: EstimandWindow, grid: np.ndarray, rep_seed):
    """One study replicate: generate, estimate, bootstrap the band.

    Estimation runs on the cohort as observed (or on the artificially
    re-truncated cohort when config.shift_prevalent is set). The naive
    complete-case comparators are always computed on the re-truncated
    cohort, whose prevalent arm has fully observed backward windows.
    """
    rng = np.random.default_rng(rep_seed)
    cohort = generate_cohort(config, rng)
    shifted = apply_prevalent_shift(cohort, config.tau0)
    fit_cohort = shifted if config.shift_prevalent else cohort
    eng = WindowEngine(fit_cohort, window)
    curve = eng.curve(grid)
    se = curve.sigma / math.sqrt(eng.n)

    # studentized sup-statistic quantile; the band is mu +- b_star * se
    if np.any(curve.sigma > 0):
        _, b_star = band_critical_values(
            fit_cohort, window, grid, config.band_reps, config.alpha, rng=rng, fit=curve
        )
    else:
        b_star = math.nan

    # smallest backward offset carrying a positive mark
    _, offsets, marks = fit_cohort.backward_events(eng.in_window)
    positive = offsets[marks > 0]
    t_star = float(positive.min()) if positive.size else math.inf

    naive_inc, naive_prev = _naive_grid(shifted, window, grid)
    if naive_inc is None or naive_prev is None:
        naive_inc = np.full(grid.size, np.nan)
        naive_prev = np.full(grid.size, np.nan)
    return curve.mu, se, b_star, curve.sigma, t_star, naive_inc, naive_prev


def run_study(config: SimConfig) -> StudyReport:
    """Run the full replication study.

    Replicates use deterministic per-replicate substreams spawned from the
    master seed, so the report is reproducible regardless of evaluation
    order. Replicates whose estimation degenerates are counted; the study
    fails if more than 1% do.
    """
    grid = np.asarray(config.u_grid, dtype=float)
    window = config.window()
    master = np.random.SeedSequence(config.seed)
    oracle_seed, *rep_seeds = master.spawn(config.reps + 1)
    truth, truth_se = true_mean_oracle(config, grid, config.oracle_n, oracle_seed)

    z = NormalDist().inv_cdf(1 - config.alpha / 2)
    estimates, ses = [], []
    covered = []
    band_hits: list[bool] = []
    naive_inc_all, naive_prev_all = [], []
    failed = 0
    for rep_seed in rep_seeds:
        try:
            mu, se, b, sigma, t_star, n_inc, n_prev = _replicate(
                config, window, grid, rep_seed
            )
        except (DegenerateWindowError, EmptyRiskSetError, CohortValidationError):
            failed += 1
            continue
        estimates.append(mu)
        ses.append(se)
        covered.append(np.abs(mu - truth) <= z * se)
        in_band = (grid >= t_star) & (sigma > 0)
        if np.any(in_band) and not math.isnan(b):
            band_hits.append(
                bool(np.all(np.abs(mu[in_band] - truth[in_band]) <= b * se[in_band]))
            )
        naive_inc_all.append(n_inc)
        naive_prev_all.append(n_prev)

    if failed > 0.01 * config.reps:
        raise RuntimeError(
            f"study failed: {failed} of {config.reps} replicates errored (> 1%)"
        )
    est = np.vstack(estimates)
    se_arr = np.vstack(ses)
    return StudyReport(
        config=config,
        grid=grid,
        truth=truth,
        truth_se=truth_se,
        estimate_mean=est.mean(axis=0),
        sse=est.std(axis=0, ddof=1),
        see=se_arr.mean(axis=0),
        coverage=np.vstack(covered).mean(axis=0),
        naive_incident=np.nanmean(np.vstack(naive_inc_all), axis=0),
        naive_prevalent=np.nanmean(np.vstack(naive_prev_all), axis=0),
        band_coverage=float(np.mean(band_hits)) if band_hits else math.nan,
        replicates_used=len(estimates),
        replicates_failed=failed,
    )
