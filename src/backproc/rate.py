"""Kernel-smoothed backward rate function: mean accrual rate of the process
per unit time, u time units before failure.

The per-subject rate smooths that subject's event marks with a kernel in
backward time; the population estimate reuses the backward-mean weights and
is algebraically identical to convolving the kernel with the jumps of the
backward mean curve. No boundary correction is applied: estimates within one
bandwidth of u = 0 or u = tau0 are biased downward.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .backward import WindowEngine
from .model import Cohort, EstimandWindow, InputContractError

__all__ = ["KernelSpec", "KERNELS", "backward_rate", "select_bandwidth"]


# Each kernel is a table of polynomial pieces in z: (lo, hi, lo_closed,
# hi_closed, coefficients of z^0, z^1, ...). The pointwise kernel and the
# prefix-moment sums of the bandwidth criterion both read these tables, so
# they agree on every support boundary.
_PIECES = {
    "epanechnikov": ((-1.0, 1.0, True, True, (0.75, 0.0, -0.75)),),
    "box": ((-0.5, 0.5, True, True, (1.0,)),),
    # half-open at 0 so that z = 0 is counted once
    "triangle": ((-1.0, 0.0, True, False, (1.0, 1.0)), (0.0, 1.0, True, True, (1.0, -1.0))),
}


def _above(z, bound: float, closed: bool):
    return z >= bound if closed else z > bound


def _piecewise(pieces):
    def kernel(z: np.ndarray) -> np.ndarray:
        out = np.zeros(np.shape(z))
        for lo, hi, lo_closed, hi_closed, coefs in pieces:
            value = coefs[-1]
            for a in reversed(coefs[:-1]):
                value = value * z + a
            inside = _above(z, lo, lo_closed) & ~_above(z, hi, not hi_closed)
            out = np.where(inside, value, out)
        return out

    return kernel


KERNELS = {name: _piecewise(pieces) for name, pieces in _PIECES.items()}


@dataclass(frozen=True)
class KernelSpec:
    """Kernel family (symmetric, nonnegative, integrates to 1) and bandwidth."""

    kernel: str = "epanechnikov"
    bandwidth: float = 0.1

    def __post_init__(self):
        if not isinstance(self.kernel, str) or self.kernel not in KERNELS:
            raise InputContractError(
                f"unknown kernel {self.kernel!r}; choose from {sorted(KERNELS)}")
        if not (0 < self.bandwidth < np.inf):
            raise InputContractError(f"bandwidth must be finite and positive, got {self.bandwidth}")

    def __call__(self, z: np.ndarray) -> np.ndarray:
        return KERNELS[self.kernel](np.asarray(z, dtype=float))


# kernel entries evaluated at once (1 MB of float64), so the pooled-offset
# kernel matrix of a reported curve never has to be held whole
_BLOCK_ENTRIES = 1 << 17
# trapezoid points for the integral of r_hat^2 over [0, tau0] in the CV criterion
_N_QUAD = 512


def _smooth(u: np.ndarray, offs: np.ndarray, weights: np.ndarray, spec: KernelSpec) -> np.ndarray:
    """h^{-1} sum_e k((u - offs_e)/h) weights_e at every u, from the kernel
    rows themselves, in row blocks of u. Reported curves take this direct
    form: it is linear in E per u and stays within rounding of the
    definition, where prefix moments lose digits at small h."""
    h = spec.bandwidth
    out = np.zeros(u.size)
    step = max(1, _BLOCK_ENTRIES // max(offs.size, 1))
    for lo in range(0, u.size, step):
        rows = slice(lo, lo + step)
        out[rows] = spec((u[rows, None] - offs[None, :]) / h) @ weights / h
    return out


def backward_rate(
    cohort: Cohort, window: EstimandWindow, u, spec: KernelSpec
) -> np.ndarray | float:
    """Population backward rate: the backward-mean-weighted average of the
    per-subject kernel rates. Equals the kernel smoothing of the backward
    mean curve's jumps."""
    u_arr = np.atleast_1d(np.asarray(u, dtype=float))
    window.check_u(u_arr)
    eng = WindowEngine(cohort, window)
    owner, offs, marks = cohort.window_events(window)
    omega = eng.c_in / (eng.n * eng.d)
    out = _smooth(u_arr, offs, omega[owner] * marks, spec)
    return float(out[0]) if np.isscalar(u) else out


def _leading(offs: np.ndarray, u: np.ndarray, h: float, bound: float, closed: bool) -> np.ndarray:
    """For each u, how many of the sorted offsets o have z = (u - o)/h above
    bound (``>=`` if closed, else ``>``).

    z falls as o rises, also in floating point, so those offsets lead. The
    searchsorted guess is corrected against the predicate itself, a whole tie
    group at a time, so the count agrees with the pointwise kernel exactly.
    """
    idx = np.searchsorted(offs, u - bound * h, "right")
    if offs.size == 0:
        return idx
    last = offs.size - 1
    while True:
        prev = offs[np.maximum(idx - 1, 0)]
        back = (idx > 0) & ~_above((u - prev) / h, bound, closed)
        nxt = offs[np.minimum(idx, last)]
        ahead = (idx < offs.size) & _above((u - nxt) / h, bound, closed)
        if not (back.any() or ahead.any()):
            return idx
        idx = np.where(back, np.searchsorted(offs, prev, "left"), idx)
        idx = np.where(ahead, np.searchsorted(offs, nxt, "right"), idx)


class _PrefixSmoother:
    """h^{-1} sum_e k((u - o_e)/h) w_e for one kernel, any u and any h, in
    O(log E) per u.

    On a polynomial piece of the kernel the sum is a binomial combination of
    the window moments sum w (o - c)^i, i <= degree, read off prefix sums over
    the sorted offsets. Centering at c = tau0/2 keeps the powers small.
    """

    def __init__(self, offs: np.ndarray, weights: np.ndarray, center: float, kernel: str):
        order = np.argsort(offs, kind="stable")
        self.offs = offs[order]
        self.center = center
        self.pieces = _PIECES[kernel]
        y = self.offs - center
        w = weights[order]
        degree = max(len(piece[4]) for piece in self.pieces) - 1
        self.prefix = [np.concatenate([[0.0], np.cumsum(w * y**i)]) for i in range(degree + 1)]

    def __call__(self, u: np.ndarray, h: float) -> np.ndarray:
        v = u - self.center
        out = np.zeros(u.size)
        for lo, hi, lo_closed, hi_closed, coefs in self.pieces:
            end = _leading(self.offs, u, h, lo, lo_closed)
            start = _leading(self.offs, u, h, hi, not hi_closed)
            moment = [p[end] - p[start] for p in self.prefix]
            # sum_e w_e ((v - y_e)/h)^j = h^{-j} sum_i C(j,i) v^{j-i} (-1)^i M_i
            for j, a in enumerate(coefs):
                if a:
                    power = sum(comb(j, i) * (-1) ** i * v ** (j - i) * moment[i]
                                for i in range(j + 1))
                    out += a * power / h**j
        return out / h


def _same_owner_pairs(owner: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every ordered pair (e, f) of events with the same owner, e = f
    included. ``owner`` must be nondecreasing."""
    start = np.searchsorted(owner, owner, "left")
    size = np.searchsorted(owner, owner, "right") - start
    left = np.repeat(np.arange(owner.size), size)
    block = np.repeat(np.cumsum(size) - size, size)
    right = np.repeat(start, size) + np.arange(left.size) - block
    return left, right


def _cv_criterion(eng: WindowEngine, kernel: str, candidates) -> list[float]:
    """CV(h) of :func:`select_bandwidth` for each candidate, in order.

    With omega_k the weight of subject k, the leave-one-out rate is exactly
    r_loo_k = (r_hat - omega_k r_k) / (1 - omega_k). r_hat at the quadrature
    points and at every event offset comes from prefix moments of the sorted
    offsets, and r_k at subject k's own offsets from its own event pairs, so a
    candidate costs O(E log E + sum_k n_k^2) with E pooled events and n_k of
    them subject k's.
    """
    omega = eng.c_in / (eng.n * eng.d)
    owner, offs, marks = eng.cohort.window_events(eng.window)
    weighted = omega[owner] * marks
    # held-out subjects with omega_k >= 1 have no leave-one-out estimate
    with np.errstate(divide="ignore"):
        loo_scale = np.where(omega < 1.0, omega / (1.0 - omega), 0.0)
    event_scale = loo_scale[owner] * marks
    quad_u = np.linspace(0.0, eng.window.tau0, _N_QUAD)
    smoother = _PrefixSmoother(offs, weighted, eng.window.tau0 / 2, kernel)
    queries = np.concatenate([quad_u, offs])
    left, right = _same_owner_pairs(owner)
    pair_lag = offs[left] - offs[right]
    pair_weight = event_scale[left] * omega[owner[left]] * marks[right]

    scores = []
    for h in candidates:
        r_hat = smoother(queries, h)
        sq_term = float(np.trapezoid(r_hat[:_N_QUAD] ** 2, quad_u))
        own = pair_weight @ KERNELS[kernel](pair_lag / h) / h
        cross = float(event_scale @ r_hat[_N_QUAD:]) - own
        scores.append(sq_term - 2.0 * cross)
    return scores


def select_bandwidth(cohort: Cohort, window: EstimandWindow, kernel: str, candidates) -> float:
    """Least-squares leave-one-subject-out cross-validation over a bandwidth grid.

    CV(h) = integral of r_hat^2 over [0, tau0] minus twice the weighted sum of
    the leave-one-out rate evaluated at each held-out subject's own event
    offsets (weighted by the event marks). Ties break to the smallest h.
    """
    candidates = sorted(float(h) for h in candidates)
    if not candidates:
        raise InputContractError("empty bandwidth candidate grid")
    for h in candidates:
        KernelSpec(kernel=kernel, bandwidth=h)  # raises on a bad kernel or bandwidth
    eng = WindowEngine(cohort, window)
    if eng.in_window.size < 2:
        raise InputContractError("need at least two in-window uncensored subjects")
    scores = _cv_criterion(eng, kernel, candidates)
    best = 0
    for i, cv in enumerate(scores):
        if cv < scores[best] - 1e-15 * max(1.0, abs(scores[best])):
            best = i
    return candidates[best]
