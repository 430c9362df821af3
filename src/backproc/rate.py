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

import numpy as np

from .backward import WindowEngine
from .model import Cohort, EstimandWindow, SubjectRecord
from .survival import SurvivalCurve

__all__ = ["KernelSpec", "KERNELS", "subject_rate", "backward_rate", "select_bandwidth"]


def _epanechnikov(z: np.ndarray) -> np.ndarray:
    return np.where(np.abs(z) <= 1, 0.75 * (1 - z * z), 0.0)


def _box(z: np.ndarray) -> np.ndarray:
    return np.where(np.abs(z) <= 0.5, 1.0, 0.0)


def _triangle(z: np.ndarray) -> np.ndarray:
    return np.maximum(1 - np.abs(z), 0.0)


KERNELS = {
    "epanechnikov": _epanechnikov,
    "box": _box,
    "triangle": _triangle,
}


@dataclass(frozen=True)
class KernelSpec:
    """Kernel family (symmetric, nonnegative, integrates to 1) and bandwidth."""

    kernel: str = "epanechnikov"
    bandwidth: float = 0.1

    def __post_init__(self):
        if self.kernel not in KERNELS:
            raise ValueError(f"unknown kernel {self.kernel!r}; choose from {sorted(KERNELS)}")
        if self.bandwidth <= 0:
            raise ValueError(f"bandwidth must be positive, got {self.bandwidth}")

    def __call__(self, z: np.ndarray) -> np.ndarray:
        return KERNELS[self.kernel](np.asarray(z, dtype=float))


def subject_rate(subject: SubjectRecord, u, spec: KernelSpec, tau0: float) -> np.ndarray | float:
    """Kernel estimate of the subject's accrual rate at backward time u:
    h^{-1} sum over events (offset v <= tau0) of k((u - v)/h) * mark."""
    if subject.delta != 1:
        raise ValueError(f"subject {subject.id!r}: rate undefined for censored subjects")
    u_arr = np.atleast_1d(np.asarray(u, dtype=float))
    if np.any((u_arr < 0) | (u_arr > tau0)):
        raise ValueError(f"u outside [0, tau0={tau0}]")
    offs = subject.x - np.array([ev.time for ev in subject.events], dtype=float)
    marks = np.array([ev.mark for ev in subject.events], dtype=float)
    keep = (offs >= 0) & (offs <= tau0)
    offs, marks = offs[keep], marks[keep]
    h = spec.bandwidth
    out = spec((u_arr[:, None] - offs[None, :]) / h) @ marks / h
    return float(out[0]) if np.isscalar(u) else out


# kernel entries evaluated at once (1 MB of float64), so the pooled-offset
# kernel matrix never has to be held whole
_BLOCK_ENTRIES = 1 << 17


def _pooled_offsets(cohort: Cohort, eng: WindowEngine, tau0: float):
    """Backward offsets (within [0, tau0]) and marks of every in-window
    subject's events, pooled, with each event's in-window subject index."""
    owner, offs, marks = cohort.backward_events(eng.in_window)
    keep = offs <= tau0  # validation keeps offsets >= 0
    return offs[keep], marks[keep], owner[keep]


def _kernel_blocks(u: np.ndarray, offs: np.ndarray, spec: KernelSpec):
    """Yield (rows, h^{-1} k((u[rows] - offs)/h)) over row blocks of u."""
    h = spec.bandwidth
    step = max(1, _BLOCK_ENTRIES // max(offs.size, 1))
    for lo in range(0, u.size, step):
        rows = slice(lo, lo + step)
        yield rows, spec((u[rows, None] - offs[None, :]) / h) / h


def _smooth(u: np.ndarray, offs: np.ndarray, weights: np.ndarray, spec: KernelSpec) -> np.ndarray:
    """h^{-1} sum_e k((u - offs_e)/h) weights_e at every u."""
    out = np.zeros(u.size)
    for rows, kern in _kernel_blocks(u, offs, spec):
        out[rows] = kern @ weights
    return out


def backward_rate(
    cohort: Cohort,
    window: EstimandWindow,
    u,
    spec: KernelSpec,
    curve: SurvivalCurve | None = None,
    engine: WindowEngine | None = None,
) -> np.ndarray | float:
    """Population backward rate: the backward-mean-weighted average of the
    per-subject kernel rates. Equals the kernel smoothing of the backward
    mean curve's jumps."""
    u_arr = np.atleast_1d(np.asarray(u, dtype=float))
    if not np.all((u_arr >= 0) & (u_arr <= window.tau0)):
        raise ValueError(f"u outside [0, tau0={window.tau0}]")
    eng = engine if engine is not None else WindowEngine(cohort, window, curve)
    offs, marks, owner = _pooled_offsets(cohort, eng, window.tau0)
    omega = eng.c_in / (eng.n * eng.d)
    out = _smooth(u_arr, offs, omega[owner] * marks, spec)
    return float(out[0]) if np.isscalar(u) else out


def _cv_criterion(cohort, window, kernel, candidates, n_quad, eng) -> list[float]:
    """CV(h) of :func:`select_bandwidth` for each candidate, in order.

    With omega_k the weight of subject k, the leave-one-out rate is exactly
    r_loo_k = (r_hat - omega_k r_k) / (1 - omega_k), so each candidate needs
    only the kernel between the pooled event offsets and one pass over it.
    """
    omega = eng.c_in / (eng.n * eng.d)
    offs, marks, owner = _pooled_offsets(cohort, eng, window.tau0)
    weighted = omega[owner] * marks
    # held-out subjects with omega_k >= 1 have no leave-one-out estimate
    with np.errstate(divide="ignore"):
        loo_scale = np.where(omega < 1.0, omega / (1.0 - omega), 0.0)
    event_scale = loo_scale[owner] * marks
    quad_u = np.linspace(0.0, window.tau0, n_quad)

    scores = []
    for h in candidates:
        spec = KernelSpec(kernel=kernel, bandwidth=h)
        r_hat = _smooth(quad_u, offs, weighted, spec)
        sq_term = float(np.trapezoid(r_hat * r_hat, quad_u))
        cross = 0.0
        for rows, kern in _kernel_blocks(offs, offs, spec):
            own = np.where(owner[rows, None] == owner[None, :], kern, 0.0) @ marks
            cross += float(event_scale[rows] @ (kern @ weighted - omega[owner[rows]] * own))
        scores.append(sq_term - 2.0 * cross)
    return scores


def select_bandwidth(
    cohort: Cohort,
    window: EstimandWindow,
    kernel: str,
    candidates,
    n_quad: int = 512,
    curve: SurvivalCurve | None = None,
    engine: WindowEngine | None = None,
) -> float:
    """Least-squares leave-one-subject-out cross-validation over a bandwidth grid.

    CV(h) = integral of r_hat^2 over [0, tau0] minus twice the weighted sum of
    the leave-one-out rate evaluated at each held-out subject's own event
    offsets (weighted by the event marks). Ties break to the smallest h.
    """
    candidates = sorted(float(h) for h in candidates)
    if not candidates:
        raise ValueError("empty bandwidth candidate grid")
    eng = engine if engine is not None else WindowEngine(cohort, window, curve)
    if eng.in_window.size < 2:
        raise ValueError("need at least two in-window uncensored subjects")
    scores = _cv_criterion(cohort, window, kernel, candidates, n_quad, eng)
    best = 0
    for i, cv in enumerate(scores):
        if cv < scores[best] - 1e-15 * max(1.0, abs(scores[best])):
            best = i
    return candidates[best]
