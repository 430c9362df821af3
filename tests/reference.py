"""Direct definitions of the package's estimates, for differential tests.

Each function here evaluates a definition of the paper one subject, one
event or one grid point at a time, mostly from the per-record view
``Cohort.subjects``, with no prefix sums, cells, sweeps or blocks: slow, and
plain enough to check by eye. ``test_differential.py`` checks every public
estimator against its definition here, under the tolerance that
:data:`TOLERANCES` gives it, on the cohorts of :func:`edge_cases`; the tests
of each module use the same definitions on their own cohorts.

Where an estimate is one of the observed backward values (a percentile, a
point of the joint CDF), its definition here reads the values off the
library's V, so that the two agree exactly at ties; V itself is checked
against the per-record sums of :func:`backward_value`.
"""

import functools
import math
import operator
from dataclasses import dataclass
from itertools import accumulate

import numpy as np
from hypothesis import strategies as st

from backproc import (
    CohortValidationError,
    EstimandWindow,
    KernelSpec,
    ProcessEvent,
    SubjectRecord,
    validate_cohort,
)
from backproc.rate import KERNELS

EPS = np.finfo(float).eps


# ------------------------------------------------------------- tolerances


@dataclass(frozen=True)
class Tol:
    """Entry by entry, |got - expected| <= rel |expected| + abs + of_max
    max |expected|; all zero means equal, with NaN where NaN."""

    rel: float = 0.0
    abs: float = 0.0
    of_max: float = 0.0


EXACT = Tol()

# the tolerance of each row of the differential test: the one that the
# module tests use for the same comparison
TOLERANCES = {
    # a subject's marks are summed in another order than the direct sum
    "Cohort.backward_matrix": Tol(rel=64 * EPS),
    "weighted_sample": Tol(rel=64 * EPS),
    "product_limit": EXACT,
    "survival_at": EXACT,
    "default_grid": EXACT,
    "apply_prevalent_shift": EXACT,
    "percentile_curve": EXACT,
    "percentile": EXACT,
    # mu and sigma relative to their largest value on the grid
    "backward_curve": Tol(of_max=1e-12),
    "backward_mean": Tol(of_max=1e-12),
    "covariance": Tol(of_max=1e-12),
    # b and b_star; the fit's curve is held to the backward_curve row
    "band_critical_values": Tol(rel=1e-12),
    "bands": Tol(rel=1e-12),
    "pointwise_ci": Tol(rel=1e-12),
    "joint_cdf_slice": Tol(rel=1e-12, abs=1e-15),
    "joint_cdf": Tol(rel=1e-12, abs=1e-15),
    "estimating_fn": Tol(rel=1e-12, abs=1e-15),
    "pearson_correlation": Tol(rel=1e-10, abs=1e-15),
    "backward_rate": Tol(rel=1e-10, abs=1e-12),
    # the CV criterion relative to its largest value over the candidates
    "select_bandwidth": Tol(of_max=1e-12),
    "forward_mean": Tol(rel=1e-12, abs=1e-15),
    "forward_mean_curve": Tol(rel=1e-12, abs=1e-15),
    "naive_estimators": Tol(rel=1e-12),
}


def assert_close(got, expected, tol: Tol) -> None:
    got = np.asarray(got, dtype=float)
    expected = np.asarray(expected, dtype=float)
    assert got.shape == expected.shape, (got.shape, expected.shape)
    nan = np.isnan(expected)
    assert np.array_equal(np.isnan(got), nan), (got, expected)
    got, expected = got[~nan], expected[~nan]
    if expected.size == 0:
        return
    err = np.abs(got - expected)
    bound = tol.rel * np.abs(expected) + tol.abs + tol.of_max * np.max(np.abs(expected))
    assert np.all(err <= bound), f"error {np.max(err - bound):.3g} beyond {tol}: {got} {expected}"


# --------------------------------------------------- per-record definitions


def backward_value(subject: SubjectRecord, u: float) -> float:
    """Total process increment over the last ``u`` time units before failure.

    Only defined for uncensored subjects. The backward window is closed: an
    event exactly ``u`` before failure is included, and a mark at the failure
    instant itself belongs to V(u) for every u >= 0.
    """
    if subject.delta != 1:
        raise ValueError(
            f"subject {subject.id!r}: backward value undefined for censored subjects"
        )
    if not (0 <= u <= subject.x):
        raise ValueError(f"backward time u={u} outside [0, x={subject.x}]")
    return float(sum(ev.mark for ev in subject.events if subject.x - ev.time <= u))


def subject_rate(subject: SubjectRecord, u, spec: KernelSpec, tau0: float) -> np.ndarray | float:
    """Kernel estimate of the subject's accrual rate at backward time u:
    h^{-1} sum over events (offset v <= tau0) of k((u - v)/h) * mark."""
    if subject.delta != 1:
        raise ValueError(f"subject {subject.id!r}: rate undefined for censored subjects")
    u_arr = np.atleast_1d(np.asarray(u, dtype=float))
    if np.any(~((u_arr >= 0) & (u_arr <= tau0))):  # NaN fails too
        raise ValueError(f"u outside [0, tau0={tau0}]")
    offs = subject.x - np.array([ev.time for ev in subject.events], dtype=float)
    marks = np.array([ev.mark for ev in subject.events], dtype=float)
    keep = (offs >= 0) & (offs <= tau0)
    offs, marks = offs[keep], marks[keep]
    h = spec.bandwidth
    out = spec((u_arr[:, None] - offs[None, :]) / h) @ marks / h
    return float(out[0]) if np.isscalar(u) else out


def reference_in_window(cohort, window) -> list[int]:
    """Indices of the uncensored subjects failing in [t1, t2)."""
    return [i for i, s in enumerate(cohort.subjects)
            if s.delta == 1 and window.t1 <= s.x < window.t2]


def reference_v(cohort, rows, grid) -> np.ndarray:
    """V_i(u) of the subjects ``rows`` at each u of the grid, one
    :func:`backward_value` each."""
    subjects = cohort.subjects
    out = [[backward_value(subjects[i], float(u)) for u in grid] for i in rows]
    return np.array(out, dtype=float).reshape(len(rows), len(grid))


def reference_default_grid(cohort, window) -> list[float]:
    """0, tau0 and every backward offset within [0, tau0] of an in-window
    subject's event, sorted."""
    offsets = {0.0, window.tau0}
    for i in reference_in_window(cohort, window):
        s = cohort.subjects[i]
        offsets |= {s.x - ev.time for ev in s.events if 0 <= s.x - ev.time <= window.tau0}
    return sorted(offsets)


def dense_risk(cohort, t) -> np.ndarray:
    """R(t) = n^{-1} #(w_i <= t <= x_i) at each t, from the indicator matrix."""
    t = np.asarray(t, dtype=float)
    w, x = cohort.w, cohort.x
    return ((x[None, :] >= t[:, None]) & (w[None, :] <= t[:, None])).mean(axis=1)


def product_limit_terms(cohort):
    """The distinct uncensored times s, R(s), the jump dN(s)/R(s), and the
    survival after 0, 1, 2, ... of them: S_hat just before the k-th time is
    the product over the earlier times of (1 - jump), taken in time order."""
    x, delta = cohort.x, cohort.delta
    times = np.array(sorted({float(xi) for xi, d in zip(x, delta) if d == 1}))
    risk = dense_risk(cohort, times)
    dn = ((x[None, :] == times[:, None]) & (delta[None, :] == 1)).mean(axis=1)
    jump = dn / risk
    steps = np.array(list(accumulate(1.0 - jump, operator.mul, initial=1.0)))
    return times, risk, jump, steps


def survival_by_definition(cohort, t) -> np.ndarray:
    """S_hat(t) = prod over the uncensored times s < t of (1 - dN(s)/R(s)),
    at each t."""
    times, _, _, steps = product_limit_terms(cohort)
    return np.array([steps[np.count_nonzero(times < u)] for u in np.atleast_1d(t)])


@dataclass(frozen=True)
class ReferenceFit:
    """The in-window subjects of a window and their weights by definition,
    under the names that ``WindowEngine`` gives them: x_i, S_hat(x_i),
    R(x_i), c_i = S_hat(x_i) / R(x_i), S_hat(t1), S_hat(t2) and D."""

    n: int
    in_window: np.ndarray
    x_in: np.ndarray
    s_in: np.ndarray
    r_in: np.ndarray
    c_in: np.ndarray
    s_t1: float
    s_t2: float
    d: float


def reference_fit(cohort, window) -> ReferenceFit:
    rows = np.array(reference_in_window(cohort, window), dtype=np.intp)
    x_in = np.array([cohort.subjects[i].x for i in rows], dtype=float)
    s_t1, s_t2, *s_in = survival_by_definition(cohort, [window.t1, window.t2, *x_in])
    s_in = np.array(s_in, dtype=float)
    r_in = dense_risk(cohort, x_in)
    return ReferenceFit(n=cohort.n, in_window=rows, x_in=x_in, s_in=s_in, r_in=r_in,
                        c_in=s_in / r_in, s_t1=float(s_t1), s_t2=float(s_t2),
                        d=float(s_t1 - s_t2))


# ------------------------------------------------------- the backward mean


def dense_psi(fit, v):
    """psi_i(u) = [S_hat(x_i) V_i(u) - H_hat(x_i, u)/D] / (R(x_i) D) from the
    definition of H_hat(s, u) = n^{-1} sum_j c_j V_j(u) [S_hat(t1) I(x_j >= s)
    + S_hat(t2) I(x_j < s)], with its two sums over x_j < s and x_j >= s read
    off a prefix and a suffix cumsum over the subjects in order of x. Takes
    a fit (:func:`reference_fit`, or the engine of the library's) and the
    whole K x G matrix of V."""
    order = np.argsort(fit.x_in, kind="stable")
    below = np.searchsorted(fit.x_in[order], fit.x_in, "left")  # x_j < x_i
    cv = (fit.c_in[:, None] * v / fit.n)[order]
    zero = np.zeros((1, v.shape[1]))
    prefix = np.vstack([zero, np.cumsum(cv, axis=0)])  # row k: sum over the first k
    suffix = np.vstack([np.cumsum(cv[::-1], axis=0)[::-1], zero])  # row k: from k on
    h = (fit.s_t2 * prefix + fit.s_t1 * suffix)[below]
    return (fit.s_in[:, None] * v - h / fit.d) / (fit.r_in[:, None] * fit.d)


def flat_columns(cohort, fit, v) -> np.ndarray:
    """The grid points where V(u) is the same for every in-window subject of
    positive weight c_i, to within the rounding of its sums: V_i(u) sums at
    most N marks >= 0, N the most events of an in-window subject, so in any
    order it is within (N - 1) eps/2 of its exact value, and two equal V
    differ by less than N eps times the larger."""
    n_events = max((len(cohort.subjects[i].events) for i in fit.in_window), default=0)
    return np.array([np.max(col) - np.min(col) <= n_events * EPS * np.max(col)
                     for col in v[fit.c_in > 0].T], dtype=bool)


def dense_curve(cohort, window, grid):
    """(fit, v, mu, sigma, psi) on the grid, with V from the per-record sums:
    mu_hat(u) = sum_i c_i V_i(u) / (n D) and sigma_hat(u)^2 = n^{-1} sum_i
    psi_i(u)^2. At the :func:`flat_columns`, psi(u) is zero in exact
    arithmetic, as S_hat(x_i) + n^{-1} sum_{x_j < x_i} c_j = S_hat(t1): the
    psi of the definition is checked to be rounding noise there, and set
    to 0."""
    fit = reference_fit(cohort, window)
    v = reference_v(cohort, fit.in_window, np.asarray(grid, dtype=float))
    psi = dense_psi(fit, v)
    flat = flat_columns(cohort, fit, v)
    assert np.all(np.abs(psi[:, flat]) <= psi_noise(fit, v)), "psi is not noise where V is flat"
    psi[:, flat] = 0.0
    mu = fit.c_in @ v / (fit.n * fit.d)
    sigma = np.sqrt(np.sum(psi * psi, axis=0) / fit.n)
    return fit, v, mu, sigma, psi


def psi_noise(fit, v) -> float:
    """A generous bound on the rounding error of psi: 1024 eps times max V,
    which bounds each term of its numerator, over the smallest R(x_i) D."""
    if v.size == 0:
        return 0.0
    return 1024 * EPS * float(np.max(np.abs(v))) / (float(np.min(fit.r_in)) * fit.d)


def _order_statistic(values, alpha: float) -> float:
    """The ceil((1 - alpha) m)-th smallest of m values (1-based)."""
    return float(np.sort(values)[max(1, math.ceil((1 - alpha) * len(values))) - 1])


def dense_critical_values(fit, psi, sigma, m, seed, alpha=0.05):
    """b and b_star from the whole (m, G) multiplier processes
    W_k = n^{-1/2} g_k' psi, with the draw of ``np.random.default_rng(seed)``;
    b_star is NaN where no sigma is positive."""
    g = np.random.default_rng(seed).standard_normal((m, fit.in_window.size))
    w = np.abs(g @ psi) / math.sqrt(fit.n)
    pos = sigma > 0
    b = _order_statistic(np.max(w, axis=1), alpha)
    b_star = _order_statistic(np.max(w[:, pos] / sigma[pos], axis=1), alpha) \
        if pos.any() else math.nan
    return b, b_star


def dense_reference(cohort, window, grid, m, seed, alpha=0.05):
    """mu, sigma, b and b_star from the full K x G psi and the (m, G) W."""
    fit, _, mu, sigma, psi = dense_curve(cohort, window, grid)
    return (mu, sigma, *dense_critical_values(fit, psi, sigma, m, seed, alpha))


def reference_band(mu, sigma, n, critical_value, kind):
    """mu +- n^{-1/2} c sigma (plain), or mu exp(+- n^{-1/2} c sigma / mu)
    (log, NaN where mu = 0)."""
    half = critical_value * sigma / math.sqrt(n)
    if kind == "plain":
        return mu - half, mu + half
    lo = np.full(mu.shape, np.nan)
    hi = np.full(mu.shape, np.nan)
    for j in np.flatnonzero(mu != 0):
        lo[j] = mu[j] * math.exp(-half[j] / mu[j])
        hi[j] = mu[j] * math.exp(half[j] / mu[j])
    return lo, hi


# ---------------------------------------------------- distributional summaries


def dense_percentiles(cohort, window, qs, grid):
    """Weighted percentiles of the library's V: at each u, the smallest
    value whose cumulative weight c/n, taken in increasing order of value,
    reaches q D (with q D relaxed by 1e-12 relative), from the whole K x G
    sort."""
    fit = reference_fit(cohort, window)
    values = cohort.backward_matrix(window, np.asarray(grid, dtype=float))
    order = np.argsort(values, axis=0, kind="stable")
    values = np.take_along_axis(values, order, axis=0)
    cum = np.cumsum((fit.c_in / fit.n)[order], axis=0) / fit.d
    cols = np.arange(values.shape[1])
    return np.array([values[np.argmax(cum >= q * (1 - 1e-12), axis=0), cols] for q in qs])


def reference_joint_cdf(fit, values, m, t) -> float:
    """P_hat(V(u) <= m, T <= t) = sum_i (c_i / n) I(V_i(u) <= m) I(x_i <= t) / D,
    given the V_i(u) of the in-window subjects."""
    total = sum(c / fit.n for c, v, x in zip(fit.c_in, values, fit.x_in) if v <= m and x <= t)
    return total / fit.d


def reference_estimating_fn(fit, values, q, m) -> float:
    """phi_q(m, u) = sum_i (c_i / n) (I(V_i(u) <= m) - q) / D."""
    return sum(c / fit.n * ((v <= m) - q) for c, v in zip(fit.c_in, values)) / fit.d


def reference_pearson(fit, values) -> float | None:
    """Pearson correlation of V(u) and T under the weights c_i normalized to
    sum 1; None where it is degenerate: fewer than two subjects, or a
    variance within 1e-24 of the squared mean (or of 1)."""
    if len(values) < 2:
        return None
    p = fit.c_in / sum(fit.c_in)
    mv = sum(p * values)
    mt = sum(p * fit.x_in)
    var_v = sum(p * (values - mv) ** 2)
    var_t = sum(p * (fit.x_in - mt) ** 2)
    if var_v <= 1e-24 * max(mv * mv, 1.0) or var_t <= 1e-24 * max(mt * mt, 1.0):
        return None
    return sum(p * (values - mv) * (fit.x_in - mt)) / math.sqrt(var_v * var_t)


# ---------------------------------------------------------------- the rate


def reference_rate(cohort, window, u, spec) -> np.ndarray:
    """r_hat(u) = sum_i omega_i r_i(u), omega_i = c_i / (n D), over the
    in-window subjects' kernel rates."""
    fit = reference_fit(cohort, window)
    u = np.atleast_1d(np.asarray(u, dtype=float))
    out = np.zeros(u.size)
    for i, c in zip(fit.in_window, fit.c_in):
        out += c / (fit.n * fit.d) * subject_rate(cohort.subjects[i], u, spec, window.tau0)
    return out


def cv_by_double_loop(cohort, window, kernel, candidates, n_quad=512):
    """The leave-one-subject-out criterion evaluated literally: the
    leave-one-out rate is re-summed over the other subjects' kernel rates."""
    fit = reference_fit(cohort, window)
    omega = fit.c_in / (fit.n * fit.d)
    subjects = [cohort.subjects[i] for i in fit.in_window]
    quad_u = np.linspace(0.0, window.tau0, n_quad)
    scores = []
    for h in candidates:
        spec = KernelSpec(kernel=kernel, bandwidth=h)
        rates = np.vstack([subject_rate(s, quad_u, spec, window.tau0) for s in subjects])
        r_hat = omega @ rates
        sq_term = float(np.trapezoid(r_hat * r_hat, quad_u))
        cross = 0.0
        for k, s in enumerate(subjects):
            offs = np.array([s.x - ev.time for ev in s.events])
            marks = np.array([ev.mark for ev in s.events])
            keep = (offs >= 0) & (offs <= window.tau0)
            offs, marks = offs[keep], marks[keep]
            if offs.size == 0 or omega[k] >= 1.0:
                continue
            loo_omega = omega / (1.0 - omega[k])
            loo_omega[k] = 0.0
            r_loo = np.zeros_like(offs)
            for j, other in enumerate(subjects):
                if j != k and loo_omega[j] != 0.0:
                    r_loo += loo_omega[j] * subject_rate(other, offs, spec, window.tau0)
            cross += omega[k] * float(marks @ r_loo)
        scores.append(sq_term - 2.0 * cross)
    return scores


def pick_smallest_best(candidates, scores):
    """The first candidate whose score no later one beats by more than
    1e-15 relative."""
    best = 0
    for i, cv in enumerate(scores):
        if cv < scores[best] - 1e-15 * max(1.0, abs(scores[best])):
            best = i
    return candidates[best]


def dense_cv_criterion(cohort, window, kernel, candidates, fit):
    """The closed-form criterion computed from row blocks of the E x E
    kernel matrix between the pooled in-horizon offsets of the in-window
    subjects, with a same-owner mask; ``fit`` gives the weights."""
    omega = fit.c_in / (fit.n * fit.d)
    pooled = [(k, cohort.subjects[i].x - ev.time, ev.mark)
              for k, i in enumerate(fit.in_window) for ev in cohort.subjects[i].events
              if 0 <= cohort.subjects[i].x - ev.time <= window.tau0]
    owner = np.array([k for k, _, _ in pooled], dtype=np.intp)
    offs = np.array([o for _, o, _ in pooled], dtype=float)
    marks = np.array([q for _, _, q in pooled], dtype=float)
    weighted = omega[owner] * marks
    with np.errstate(divide="ignore"):
        loo_scale = np.where(omega < 1.0, omega / (1.0 - omega), 0.0)
    event_scale = loo_scale[owner] * marks
    quad_u = np.linspace(0.0, window.tau0, 512)
    step = max(1, (1 << 17) // max(offs.size, 1))

    def blocks(u, h):
        for lo in range(0, u.size, step):
            rows = slice(lo, lo + step)
            yield rows, KERNELS[kernel]((u[rows, None] - offs[None, :]) / h) / h

    scores = []
    for h in candidates:
        r_hat = np.zeros(quad_u.size)
        for rows, kern in blocks(quad_u, h):
            r_hat[rows] = kern @ weighted
        sq_term = float(np.trapezoid(r_hat * r_hat, quad_u))
        cross = 0.0
        for rows, kern in blocks(offs, h):
            own = np.where(owner[rows, None] == owner[None, :], kern, 0.0) @ marks
            cross += float(event_scale[rows] @ (kern @ weighted - omega[owner[rows]] * own))
        scores.append(sq_term - 2.0 * cross)
    return scores


# ------------------------------------------------------ forward and naive


def forward_by_definition(cohort, t) -> float:
    """n^{-1} sum over the observed events (s, q) with s <= t of
    S_hat(s) q / R(s)."""
    events = [ev for s in cohort.subjects for ev in s.events if ev.time <= t]
    times = [ev.time for ev in events]
    total = 0.0
    for ev, s, r in zip(events, survival_by_definition(cohort, times), dense_risk(cohort, times)):
        total += s * ev.mark / r
    return total / cohort.n


def reference_naive(cohort, window, u) -> tuple[float, float]:
    """Unweighted means of V_i(u) over the in-window subjects with w = 0 and
    with w > 0; NaN for an arm without a subject."""
    arms = ([], [])
    for i in reference_in_window(cohort, window):
        s = cohort.subjects[i]
        arms[s.w != 0].append(backward_value(s, u))
    return tuple(sum(arm) / len(arm) if arm else math.nan for arm in arms)


# ------------------------------------------------- per-object builders


def old_generate(config, seed):
    """The per-object generate_cohort this package used to have."""
    rng = np.random.default_rng(seed)
    n = config.n
    t_fail = np.empty(n)
    w = np.empty(n)
    pending = np.arange(n)
    while pending.size:
        k = pending.size
        arm_prev = rng.random(k) < config.prevalent_fraction
        t_new = rng.gamma(config.survival_shape, 1.0 / config.survival_rate, k)
        w_new = np.where(arm_prev, rng.uniform(0.0, config.truncation_upper, k), 0.0)
        ok = t_new >= w_new
        kept = pending[ok]
        t_fail[kept] = t_new[ok]
        w[kept] = w_new[ok]
        pending = pending[~ok]
    cens = w + rng.uniform(0.0, config.censoring_upper, n)
    x = np.minimum(t_fail, cens)
    delta = (t_fail <= cens).astype(int)
    z1 = rng.gamma(config.latent_shape, 1.0 / t_fail)
    z2 = rng.gamma(config.latent_shape, 1.0 / t_fail)
    counts = rng.poisson(config.recurrence_rate * z1 * t_fail)
    subj = np.repeat(np.arange(n), counts)
    offsets = rng.uniform(0.0, t_fail[subj])
    mark_shape = z2[subj] * (
        config.mark_shape_base + config.mark_shape_jump * (offsets < config.mark_jump_cutoff)
    )
    marks = rng.gamma(mark_shape, 1.0)
    ev_time = t_fail[subj] - offsets
    keep = (ev_time >= w[subj]) & (ev_time <= x[subj])
    subj, ev_time, marks = subj[keep], ev_time[keep], marks[keep]
    order = np.lexsort((ev_time, subj))
    subj, ev_time, marks = subj[order], ev_time[order], marks[order]
    bounds = np.searchsorted(subj, np.arange(n + 1))
    width = len(str(n - 1))
    return tuple(
        SubjectRecord(
            id=f"s{i:0{width}d}", w=float(w[i]), x=float(x[i]), delta=int(delta[i]),
            events=tuple(ProcessEvent(float(ev_time[j]), float(marks[j]))
                         for j in range(bounds[i], bounds[i + 1])),
        )
        for i in range(n)
    )


def old_shift(cohort, tau0):
    """The per-subject apply_prevalent_shift this package used to have."""
    retained = []
    for s in cohort.subjects:
        if s.w == 0:
            retained.append(s)
            continue
        w_new = s.w + tau0
        if s.x < w_new:
            continue
        retained.append(SubjectRecord(id=s.id, w=w_new, x=s.x, delta=s.delta, events=s.events))
    if not retained:
        raise CohortValidationError("no subjects remain after prevalent shift")
    return tuple(retained)


def reference_oracle(config, u_grid, big_n, seed):
    """The oracle with full-size per-event arrays in each batch and one pass
    per grid point; also returns the subjects each batch kept."""
    rng = np.random.default_rng(seed)
    grid = np.asarray(u_grid, dtype=float)
    sums = np.zeros(grid.size)
    sumsq = np.zeros(grid.size)
    kept = []
    remaining = big_n
    while remaining > 0:
        nb = min(200_000, remaining)
        remaining -= nb
        t_fail = rng.gamma(config.survival_shape, 1.0 / config.survival_rate, nb)
        t_fail = t_fail[(t_fail >= config.tau0) & (t_fail < config.tau1)]
        m = t_fail.size
        kept.append(m)
        if m == 0:
            continue
        z1 = rng.gamma(config.latent_shape, 1.0 / t_fail)
        z2 = rng.gamma(config.latent_shape, 1.0 / t_fail)
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
    n = sum(kept)
    truth = sums / n
    var = sumsq / n - truth * truth
    return truth, np.sqrt(np.maximum(var, 0.0) / n), kept


# ------------------------------------------------------------ edge cohorts

# backward offsets of the events, which are also the grid points
_OFFSETS = (0.0, 0.25, 0.5, 0.75, 1.0, 1.5)
EDGE_WINDOWS = (
    EstimandWindow(t1=1.0, t2=8.0, tau0=1.0),
    EstimandWindow(t1=1.0, t2=1.5, tau0=1.0),
    EstimandWindow(t1=1.0, t2=8.0, tau0=0.5),
)
EDGE_MARKS = (0.0, 0.0, 0.1, 0.5, 1.0, 2.3)  # zero marks, and sums that round
DYADIC_MARKS = (0.0, 0.5, 1.0, 2.0)  # every sum exact
# (x, w, delta) of a subject: x at 0, before t1, at t1, at the narrow
# window's t2, inside, at t2 and beyond it; w tied with other subjects' and
# with x, late entries up to w = 8
_X = (0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 8.0, 9.0)
_SUBJECT = st.sampled_from([(x, min(w, x), delta) for x in _X
                            for w in (0.0, 0.0, 0.25, 0.5, 1.0, 2.0, 8.0) for delta in (1, 1, 0)])
# subject 0 fails in the window with w <= 0.5
_FIRST = {window: st.sampled_from([(x, w, 1) for x in _X if window.t1 <= x < window.t2
                                   for w in (0.0, 0.0, 0.25, 0.5)])
          for window in EDGE_WINDOWS}
_GRIDS = {window: st.lists(st.sampled_from([o for o in _OFFSETS if o <= window.tau0]),
                           min_size=1, max_size=8)
          for window in EDGE_WINDOWS}


@functools.cache
def _events(marks):
    """(offset, mark) lists, and the mark of an event at entry (or midway)
    or None."""
    return (st.lists(st.sampled_from([(o, q) for o in _OFFSETS for q in marks]), max_size=6),
            st.sampled_from((None, *marks)))


@st.composite
def edge_cases(draw, marks=EDGE_MARKS):
    """(cohort, window, grid) with the edges that fast paths have tripped
    on: tied x and w, w = x, x = 0, late entries, zero marks, events exactly
    at w, at x and midway between them, in no stored order, offsets on grid
    points, a tied and unsorted grid, one subject in the window, and a tiny
    D.

    Subject 0 fails in the window with w <= 0.5, and no subject fails
    before subject 0 enters (one that would is censored instead), so
    subject 0 is at risk at every earlier failure and the window is never
    degenerate. Up to 30 late entrants, at risk from w = 0.9 and censored
    beyond every window, make the risk set at t1 large after small ones
    before it, so that D can be tiny.
    """
    window = draw(st.sampled_from(EDGE_WINDOWS))
    offsets_and_marks, inner_mark = _events(marks)
    records = []
    for i in range(draw(st.integers(1, 8))):
        x, w, delta = draw(_FIRST[window] if i == 0 else _SUBJECT)
        if i and x < records[0].w:
            delta = 0
        events = [ProcessEvent(x - o, q) for o, q in draw(offsets_and_marks) if x - o >= w]
        for at in (w, (w + x) / 2):  # an event at entry, and one midway
            q = draw(inner_mark)
            if q is not None:
                events.insert(draw(st.integers(0, len(events))), ProcessEvent(at, q))
        records.append(SubjectRecord(id=f"s{i}", w=w, x=x, delta=delta, events=tuple(events)))
    records += [SubjectRecord(id=f"late{j}", w=0.9, x=9.0, delta=0)
                for j in range(draw(st.integers(0, 30)))]
    return validate_cohort(records), window, np.array(draw(_GRIDS[window]))
