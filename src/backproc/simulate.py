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

import functools
import logging
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields
from itertools import repeat
from statistics import NormalDist

import numpy as np

from .backward import DegenerateWindowError, WindowEngine
from .model import (Cohort, CohortValidationError, EstimandWindow, InputContractError,
                    apply_prevalent_shift, check_count, check_number, seeded_rng)
from .bands import _band_fit

logger = logging.getLogger(__name__)

__all__ = [
    "SimConfig",
    "StudyReport",
    "generate_cohort",
    "naive_estimators",
    "true_mean_oracle",
    "run_study",
]


# the interval of each float field of SimConfig but tau0 and tau1, which the window reads
_FLOAT_INTERVALS = {
    **dict.fromkeys(("survival_shape", "survival_rate", "truncation_upper", "censoring_upper",
                     "latent_shape", "recurrence_rate", "mark_shape_base"), "(0, inf)"),
    "alpha": "(0, 1)",
    "prevalent_fraction": "[0, 1]",
    "mark_shape_jump": "[0, inf)",
    "mark_jump_cutoff": "[0, inf)",
}


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
        # each float field as a float in its interval (tau0 and tau1 are read by the
        # window below), each count as an int (reps has its own floor below, with the
        # reason), the flag as a bool
        for field in fields(self):
            value = getattr(self, field.name)
            if field.type == "float":
                value = check_number(field.name, value, _FLOAT_INTERVALS.get(field.name))
            elif field.type == "int":
                value = check_count(field.name, value, 0 if field.name in ("reps", "seed") else 1)
            elif field.type == "bool":
                if not isinstance(value, (bool, np.bool_)):
                    raise InputContractError(f"{field.name} must be True or False, got {value!r}")
                value = bool(value)
            object.__setattr__(self, field.name, value)
        if self.reps < 2:
            raise InputContractError(
                f"reps must be at least 2, got {self.reps}: sse is the standard "
                "deviation of the estimates across replicates, which needs two"
            )
        window = self.window()  # raises unless 0 < tau0 < tau1
        try:
            grid = window.check_u(self.u_grid)
        except InputContractError as exc:
            raise InputContractError(f"u_grid: {exc}") from None
        if grid.size == 0:
            raise InputContractError("u_grid must hold at least one backward time")
        object.__setattr__(self, "u_grid", tuple(grid.tolist()))

    def window(self) -> EstimandWindow:
        """The estimand window of the study: failure in [tau0, tau1), backward
        horizon tau0."""
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

    def columns(self) -> dict[str, np.ndarray]:
        """The per-u table, in the column order of the table1 CSV."""
        return {
            "u": self.grid,
            "truth": self.truth,
            "truth_mc_se": self.truth_se,
            "naive_incident": self.naive_incident,
            "naive_prevalent": self.naive_prevalent,
            "estimate": self.estimate_mean,
            "sse": self.sse,
            "see": self.see,
            "coverage": self.coverage,
        }


@functools.lru_cache(maxsize=4)
def _ids(n: int) -> tuple[str, ...]:
    """The ids s0 to s{n-1}, zero-padded to one width, built once per n."""
    width = len(str(n - 1))
    return tuple(f"s{i:0{width}d}" for i in range(n))


def generate_cohort(config: SimConfig, seed) -> Cohort:
    """Draw one left-truncated right-censored cohort of n retained subjects.

    Each draw picks an arm (incident W = 0 with probability
    1 - prevalent_fraction, prevalent W ~ Uniform(0, truncation_upper)
    otherwise) and a failure time T; the whole draw, arm included, is
    rejected and redrawn whenever T < W. Incident draws are always retained,
    so the retained prevalent share is below prevalent_fraction.
    """
    rng = seeded_rng(seed)
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
    return Cohort.from_columns(
        _ids(n), w, x, delta,
        np.searchsorted(subj[order], np.arange(n + 1)), ev_time[order], marks[order],
    )


def naive_estimators(cohort: Cohort, window: EstimandWindow, u: float) -> tuple[float, float]:
    """Unweighted complete-case means of V_i(u) over uncensored in-window
    subjects, split into the incident (w = 0) and prevalent (w > 0) arms."""
    v = cohort.backward_matrix(window, window.point(u))[:, 0]
    incident = cohort.w[cohort.in_window(window)] == 0
    if not incident.any():
        raise InputContractError("no qualifying subjects in the incident arm")
    if incident.all():
        raise InputContractError("no qualifying subjects in the prevalent arm")
    return float(v[incident].mean()), float(v[~incident].mean())


def _mean_of_numbers(a: np.ndarray) -> np.ndarray:
    """Column means of the non-NaN entries, as np.nanmean gives them, and
    NaN without a warning for a column that has none."""
    number = ~np.isnan(a)
    count = number.sum(axis=0)
    total = np.where(number, a, 0.0).sum(axis=0)
    return np.divide(total, count, out=np.full(total.shape, np.nan), where=count > 0)


# subjects per oracle batch: the batch size fixes the order of the draws
_ORACLE_BATCH = 200_000
# events per offset draw and per mark draw in the oracle
_ORACLE_CHUNK = 1 << 16
# bound on the cells of one chunk's (grid bin, subject) matrix
_ORACLE_CELLS = 1 << 18


def _grid_bins(grid: np.ndarray, offs: np.ndarray, dtype) -> np.ndarray:
    """The number of grid points below each offset, np.searchsorted(np.sort(grid),
    offs, side="left") ties included, counted one grid point at a time."""
    bins = np.zeros(offs.size, dtype)
    for point in grid:
        bins += offs > point
    return bins


def true_mean_oracle(config: SimConfig, seed=0) -> tuple[np.ndarray, np.ndarray]:
    """Monte Carlo truth: simulate config.oracle_n complete (untruncated,
    uncensored) subjects, condition on tau0 <= T < tau1, and average V(u) at
    each u of config.u_grid.

    Returns (truth, mc_standard_error) per grid point. Independent of the
    estimation code path: works directly from the generative law. Raises
    InputContractError when no draw fails in [tau0, tau1).

    Subjects are drawn in batches of 200,000. A batch draws T, then Z1, Z2
    and the event counts of its retained subjects, then the backward offsets
    of all its events, and only then any mark: that order fixes the values
    for a given seed and oracle_n, and must be kept. Offsets and marks are drawn
    in consecutive chunks of about 65,536 events, which give the same values
    as one call. An offset is kept only as its grid bin (the number of grid
    points below it, counted by :func:`_grid_bins` one grid point at a time)
    and its mark-jump flag; the marks of a run of whole
    subjects are scattered into a (grid bin, subject) matrix whose cumsum
    along the bins is V. Memory is O(batch subjects + chunk) whatever
    oracle_n: about 14 MiB of arrays at oracle_n = 10^6 on the default grid.
    """
    grid = config.window().check_u(config.u_grid)
    remaining = config.oracle_n
    rng = seeded_rng(seed)
    # V at the k-th smallest grid point is row k of a cumsum over grid bins
    order = np.argsort(grid, kind="stable")
    rows = grid.size + 1  # bin grid.size: past every grid point
    bin_dtype = np.min_scalar_type(grid.size)
    max_subjects = max(1, _ORACLE_CELLS // rows)
    sums = np.zeros(grid.size)
    sumsq = np.zeros(grid.size)
    kept = 0
    while remaining > 0:
        nb = min(_ORACLE_BATCH, remaining)
        remaining -= nb
        t_fail = rng.gamma(config.survival_shape, 1.0 / config.survival_rate, nb)
        t_fail = t_fail[(t_fail >= config.tau0) & (t_fail < config.tau1)]
        m = t_fail.size
        if m == 0:
            continue
        z1 = rng.gamma(config.latent_shape, 1.0 / t_fail)
        z2 = rng.gamma(config.latent_shape, 1.0 / t_fail)
        # only events within tau0 of failure can enter V(u), u <= tau0
        counts = rng.poisson(config.recurrence_rate * z1 * config.tau0)
        ends = np.cumsum(counts)
        events = int(ends[-1])
        bins = np.empty(events, dtype=bin_dtype)
        jump = np.empty(events, dtype=bool)
        for e0 in range(0, events, _ORACLE_CHUNK):
            e1 = min(e0 + _ORACLE_CHUNK, events)
            offs = rng.uniform(0.0, config.tau0, e1 - e0)
            bins[e0:e1] = _grid_bins(grid, offs, bin_dtype)
            jump[e0:e1] = offs < config.mark_jump_cutoff
        # runs of whole subjects, about one chunk of events each
        s0 = 0
        while s0 < m:
            e0 = int(ends[s0 - 1]) if s0 else 0
            within = int(np.searchsorted(ends, e0 + _ORACLE_CHUNK, side="right"))
            s1 = max(s0 + 1, min(within, s0 + max_subjects))
            e1 = int(ends[s1 - 1])
            local = np.repeat(np.arange(s1 - s0), counts[s0:s1])
            shape = z2[s0:s1][local] * (
                config.mark_shape_base + config.mark_shape_jump * jump[e0:e1]
            )
            marks = rng.gamma(shape, 1.0)
            v = np.bincount(
                local + (s1 - s0) * bins[e0:e1].astype(np.intp),
                weights=marks,
                minlength=rows * (s1 - s0),
            ).reshape(rows, s1 - s0)
            # row by row: cumsum along axis 0 is several times slower
            for k in range(1, grid.size):
                v[k] += v[k - 1]
            v = v[:-1]
            sums[order] += v.sum(axis=1)
            sumsq[order] += np.einsum("ij,ij->i", v, v)
            s0 = s1
        kept += m
    if kept == 0:
        raise InputContractError(
            f"no oracle draw has a failure time in [tau0={config.tau0}, tau1={config.tau1})"
        )
    truth = sums / kept
    var = sumsq / kept - truth * truth
    return truth, np.sqrt(np.maximum(var, 0.0) / kept)


def _replicate(config: SimConfig, window: EstimandWindow, grid: np.ndarray, rep_seed):
    """One study replicate on the study's window and checked grid: generate,
    estimate, bootstrap the band.

    Estimation runs on the cohort as observed (or on the artificially
    re-truncated cohort when config.shift_prevalent is set). The naive
    complete-case comparators are always those of the re-truncated cohort,
    whose prevalent arm has fully observed backward windows. The shift keeps
    every event and x, so they are row means of the fit's V: of the incident
    rows, and of the prevalent rows with x >= w + tau0 (all, if shifted).
    """
    rng = np.random.default_rng(rep_seed)
    cohort = generate_cohort(config, rng)
    if config.shift_prevalent:
        cohort = apply_prevalent_shift(cohort, config.tau0)
    v = cohort.backward_matrix(window, grid)
    # one sweep fits the curve and bootstraps the studentized sup-statistic
    # quantile; the band is mu +- b_star * se (b_star is NaN when sigma is
    # zero at every grid point)
    fit = _band_fit(WindowEngine(cohort, window), grid, config.band_reps, config.alpha, rng, v)
    curve = fit.curve
    se = curve.sigma / math.sqrt(curve.n)

    rows = cohort.in_window(window)
    w, x = cohort.w[rows], cohort.x[rows]
    arms = (w == 0, (w != 0) & (config.shift_prevalent | (x >= w + config.tau0)))
    naive = (v[arm].mean(axis=0) if arm.any() else np.full(grid.size, np.nan) for arm in arms)
    return (curve.mu, se, fit.b_star, curve.sigma, *naive)


def _workers(reps: int) -> int:
    """Size of run_study's thread pool: the CPUs this process may use that
    BLAS leaves free, at least one and at most one per task (the replicates
    and the oracle).

    BLAS takes OPENBLAS_NUM_THREADS, else OMP_NUM_THREADS (the first that is
    a positive integer, as OpenBLAS reads them), else one thread per CPU. An
    OpenBLAS left to that default spins its helper threads on the
    replicates' small products, so a second study thread would only compete
    with them; with OPENBLAS_NUM_THREADS=1 each CPU runs a replicate.
    """
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    values = (os.environ.get(var, "").strip()
              for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"))
    blas_threads = next((int(v) for v in values if v.isdigit() and int(v) > 0), cpus)
    return max(1, min(cpus // blas_threads, reps + 1))


def _attempt(config: SimConfig, window: EstimandWindow, grid: np.ndarray, rep_seed):
    """One replicate, or None when its cohort is degenerate for the
    estimator (a counted failure). Any other error propagates."""
    try:
        return _replicate(config, window, grid, rep_seed)
    except (DegenerateWindowError, CohortValidationError):
        return None


def run_study(config: SimConfig) -> StudyReport:
    """Run the full replication study.

    Replicates use deterministic per-replicate substreams spawned from the
    master seed, so the report is reproducible regardless of evaluation
    order. The window and the grid are read once, here, and handed to every
    replicate. The oracle and the replicates run on a pool of ``_workers(reps)``
    threads (numpy's random fills and most array work release the GIL), and
    their results are taken in seed order, so the report is bit-identical for
    any pool size. Replicates whose estimation degenerates are counted; the
    study raises :class:`DegenerateWindowError` if more than 1% do. Any
    other error in a replicate is raised here, and the replicates not yet
    started are cancelled.

    Progress goes to the ``backproc.simulate`` logger at INFO: the pool size
    once, then replicates done and failed at each tenth of the study.
    """
    window = config.window()
    grid = window.check_u(config.u_grid)
    master = np.random.SeedSequence(config.seed)
    oracle_seed, *rep_seeds = master.spawn(config.reps + 1)

    z = NormalDist().inv_cdf(1 - config.alpha / 2)
    results = []
    workers = _workers(config.reps)
    logger.info("study: %d replicates on a pool of %d threads", config.reps, workers)
    pool = ThreadPoolExecutor(max_workers=workers, thread_name_prefix="backproc-study")
    try:
        oracle = pool.submit(true_mean_oracle, config, oracle_seed)
        attempts = pool.map(_attempt, repeat(config), repeat(window), repeat(grid), rep_seeds)
        truth, truth_se = oracle.result()
        for done, result in enumerate(attempts, 1):
            if result is not None:
                results.append(result)
            if done * 10 // config.reps > (done - 1) * 10 // config.reps:
                logger.info("study: %d/%d replicates done, %d failed",
                            done, config.reps, done - len(results))
    finally:
        pool.shutdown(cancel_futures=True)

    failed = config.reps - len(results)
    if failed > 0.01 * config.reps:
        raise DegenerateWindowError(
            f"study failed: {failed} of {config.reps} replicates errored (> 1%)"
        )
    mu, se, b_star, sigma, naive_inc, naive_prev = map(np.array, zip(*results))
    miss = np.abs(mu - truth)
    # the band is scored where sigma > 0; b_star is NaN on the rows where
    # that is nowhere, which the band coverage leaves out
    in_band = sigma > 0
    band_hits = np.all((miss <= b_star[:, None] * se) | ~in_band, axis=1)[in_band.any(axis=1)]
    return StudyReport(
        config=config,
        grid=grid,
        truth=truth,
        truth_se=truth_se,
        estimate_mean=mu.mean(axis=0),
        sse=mu.std(axis=0, ddof=1),
        see=se.mean(axis=0),
        coverage=(miss <= z * se).mean(axis=0),
        naive_incident=_mean_of_numbers(naive_inc),
        naive_prevalent=_mean_of_numbers(naive_prev),
        band_coverage=float(np.mean(band_hits)) if band_hits.size else math.nan,
        replicates_used=len(results),
        replicates_failed=failed,
    )
