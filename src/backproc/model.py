"""Data model for failure-anchored process data.

A subject carries left-truncated, right-censored survival data (w, x, delta)
together with the observed increments of a cumulative process, recorded in
forward time since the initial event. Backward quantities (the process over
the last ``u`` time units before failure) are derived, never stored.

A :class:`Cohort` holds its subjects as columns: ``w``, ``x`` and ``delta``
per subject, and the events of all subjects in compressed-row form, the
events of subject i being ``time[ptr[i]:ptr[i + 1]]`` with marks
``mark[ptr[i]:ptr[i + 1]]``. :class:`SubjectRecord` and :class:`ProcessEvent`
are the per-object form used to build a cohort by hand and to export one.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ProcessEvent",
    "SubjectRecord",
    "Cohort",
    "EstimandWindow",
    "CohortValidationError",
    "InputContractError",
    "validate_cohort",
    "apply_prevalent_shift",
]


class InputContractError(ValueError):
    """An argument or input datum outside the estimand's contract, such as
    a backward time outside [0, tau0], a window without 0 < tau0 <= t1 < t2,
    or a count that is not an integer. The message names the argument."""


class CohortValidationError(ValueError):
    """Raised when subject data violate the observational-model invariants.

    ``subject`` is the index of the offending subject in input order and
    ``event`` that of its offending event in the event columns, each None
    where the error names none.
    """

    def __init__(self, message: str, *, subject: int | None = None,
                 event: int | None = None):
        super().__init__(message)
        self.subject = subject
        self.event = event


@dataclass(frozen=True)
class ProcessEvent:
    """One atom of the cumulative process: an increment ``mark`` at forward ``time``."""

    time: float
    mark: float


@dataclass(frozen=True)
class SubjectRecord:
    """One subject's follow-up record.

    w      time from initial event to recruitment (0 for incident subjects)
    x      observation time, min(failure, censoring)
    delta  1 if the failure was observed, 0 if censored
    events process increments observed during follow-up, forward time
    """

    id: str
    w: float
    x: float
    delta: int
    events: tuple[ProcessEvent, ...] = ()


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class Cohort:
    """Validated cohort held as columns, with a derived uncensored-time index.

    ids, w, x, delta  one entry per subject, in input order
    ptr               n + 1 offsets into the event columns
    time, mark        events of every subject, subject by subject
    event_times       distinct uncensored observation times, increasing

    Immutable after construction (the arrays are read-only); all estimators
    treat it as read-only. Construct via :func:`validate_cohort` or
    :meth:`from_columns`, not directly.
    """

    ids: np.ndarray
    w: np.ndarray
    x: np.ndarray
    delta: np.ndarray
    ptr: np.ndarray
    time: np.ndarray
    mark: np.ndarray
    event_times: np.ndarray

    @classmethod
    def from_columns(cls, ids, w, x, delta, ptr, time, mark) -> Cohort:
        """Validate columns and build the cohort; see :func:`validate_cohort`
        for the checks. The offsets ``ptr`` must be an integer column."""
        ids = np.asarray(ids, dtype=object)
        w = np.asarray(w, dtype=float)
        x = np.asarray(x, dtype=float)
        delta = np.asarray(delta)
        ptr = np.asarray(ptr)
        time = np.asarray(time, dtype=float)
        mark = np.asarray(mark, dtype=float)
        _validate(ids, w, x, delta, ptr, time, mark)
        return cls._own(ids.copy(), w.copy(), x.copy(), delta.astype(np.int64),
                        ptr.astype(np.intp), time.copy(), mark.copy())

    @classmethod
    def _own(cls, ids, w, x, delta, ptr, time, mark) -> Cohort:
        """The cohort of columns that nothing else holds, already in their
        dtypes: frozen in place, with the uncensored-time index derived."""
        return cls(*map(_frozen, (ids, w, x, delta, ptr, time, mark)),
                   event_times=_frozen(np.unique(x[delta == 1])))

    @property
    def n(self) -> int:
        return self.w.size

    def x_array(self) -> np.ndarray:
        """The observation times x, one per subject (read-only)."""
        # only the benchmark's traced band_critical_values hook calls this (bench/worker.py)
        return self.x

    def delta_array(self) -> np.ndarray:
        """The failure indicators delta as int64, one per subject (read-only)."""
        # only the benchmark's traced band_critical_values hook calls this (bench/worker.py)
        return self.delta

    def in_window(self, window: EstimandWindow) -> np.ndarray:
        """Indices of the uncensored subjects failing in [t1, t2), increasing."""
        return np.flatnonzero((self.delta == 1) & (self.x >= window.t1) & (self.x < window.t2))

    @functools.cached_property
    def owner(self) -> np.ndarray:
        """Subject index of every event."""
        return _frozen(np.repeat(np.arange(self.n), np.diff(self.ptr)))

    @functools.cached_property
    def subjects(self) -> tuple[SubjectRecord, ...]:
        """Export view: the cohort as per-object records, built once."""
        events = list(map(ProcessEvent, self.time.tolist(), self.mark.tolist()))
        ptr = self.ptr.tolist()
        own = (tuple(events[a:b]) for a, b in zip(ptr, ptr[1:]))
        return tuple(map(SubjectRecord, self.ids.tolist(), self.w.tolist(), self.x.tolist(),
                         self.delta.tolist(), own))

    def window_events(self, window: EstimandWindow) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Events of the in-window subjects within the horizon, in backward
        time: (k, offset, mark), k being the subject's position in
        :meth:`in_window` and offset = x - time <= tau0 (validation keeps
        offsets >= 0), subject by subject in the stored event order."""
        rows = self.in_window(window)
        pos = np.full(self.n, -1)
        pos[rows] = np.arange(rows.size)
        k = pos[self.owner]
        offsets = self.x[self.owner] - self.time
        keep = (k >= 0) & (offsets <= window.tau0)
        return k[keep], offsets[keep], self.mark[keep]

    def backward_cells(self, window: EstimandWindow, grid: np.ndarray
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The events of :meth:`window_events` summed into (grid point,
        subject) cells: the one place where events become V, and so where
        the grid is checked against :meth:`EstimandWindow.check_u`.

        Returns (order, b, k, mark): ``order`` sorts the grid (stably), and
        cell j adds ``mark[j]`` to subject ``k[j]`` (a position in
        :meth:`in_window`) from the ``b[j]``-th sorted grid point on. Each
        event goes to the first sorted grid point at or beyond its backward
        offset, and the events beyond the last one are dropped. The cells are
        in order of (b, k), and each sums its events in the stored event
        order. Any grid order and tied grid points are allowed. The backward
        window is closed: V_i(u) counts an event exactly u before failure, and
        a mark at the failure instant counts for every u >= 0. So V_i at the
        sorted grid point j is the sum of subject i's cells with b <= j, taken
        in order of b.
        """
        grid = np.asarray(grid, dtype=float)
        window.check_u(grid)
        order = np.argsort(grid, kind="stable")
        k, offsets, marks = self.window_events(window)
        b = np.searchsorted(grid[order], offsets, side="left")
        # a stable sort of small integers is a radix sort; the events come
        # subject by subject, so within a bin they stay in order of subject
        by_bin = np.argsort(b.astype(np.min_scalar_type(grid.size)), kind="stable")
        k, b, marks = k[by_bin], b[by_bin], marks[by_bin]
        # the events beyond the last grid point are in no V
        end = np.searchsorted(b, grid.size)
        k, b, marks = k[:end], b[:end], marks[:end]
        first = np.ones(b.size, dtype=bool)
        first[1:] = (b[1:] != b[:-1]) | (k[1:] != k[:-1])
        # bincount adds each cell's events one by one, in the stored order
        mark = np.bincount(np.cumsum(first) - 1, weights=marks)
        return order, b[first], k[first], mark.astype(float, copy=False)

    def backward_blocks(self, window: EstimandWindow, grid: np.ndarray, width: int):
        """Backward values V_i(u) of the in-window subjects over ``grid`` in
        increasing u, ``width`` columns at a time, from the cells of
        :meth:`backward_cells`.

        Yields (cols, v): the grid indices of the block and the backward
        values there, shape (K, len(cols)) for the K subjects of
        :meth:`in_window`, column-major. Each block places the cells of its
        own grid points and adds the previous block's last column before its
        cumsum along the grid. Every sum is formed in the same order whatever
        the width, so a column is the same bit for bit in any block.
        """
        grid = np.asarray(grid, dtype=float)
        order, b, k, marks = self.backward_cells(window, grid)
        subjects = self.in_window(window).size
        last = None
        for j0 in range(0, grid.size, width):
            j1 = min(j0 + width, grid.size)
            e0, e1 = np.searchsorted(b, [j0, j1], side="left")
            # (column, subject) cells, so that V comes out column-major and
            # every reduction over subjects sums in one order whatever the
            # width; a block with no cells bincounts to integers
            acc = np.bincount((b[e0:e1] - j0) * subjects + k[e0:e1], weights=marks[e0:e1],
                              minlength=(j1 - j0) * subjects)
            acc = acc.astype(float, copy=False).reshape(j1 - j0, subjects)
            if last is not None:
                acc[0] += last
            np.cumsum(acc, axis=0, out=acc)
            last = acc[-1].copy()
            yield order[j0:j1], acc.T

    def backward_matrix(self, window: EstimandWindow, grid: np.ndarray) -> np.ndarray:
        """Backward values V_i(u) of the in-window subjects on ``grid``,
        shape (K, len(grid)), column-major: :meth:`backward_blocks` as one
        block."""
        grid = np.asarray(grid, dtype=float)
        v = np.empty((self.in_window(window).size, grid.size), order="F")
        for cols, block in self.backward_blocks(window, grid, max(grid.size, 1)):
            v[:, cols] = block
        return v


@dataclass(frozen=True)
class EstimandWindow:
    """Failure-time window [t1, t2) and backward horizon tau0 of the estimand.

    The estimand is the mean of the backward process over the last ``u`` time
    units of life, u in [0, tau0], conditional on failure in [t1, t2).
    """

    t1: float
    t2: float
    tau0: float

    def __post_init__(self):
        if not (0 < self.tau0 <= self.t1 < self.t2):
            raise InputContractError(
                f"invalid estimand window: need 0 < tau0 <= t1 < t2, "
                f"got tau0={self.tau0}, t1={self.t1}, t2={self.t2}"
            )

    def check_u(self, u) -> None:
        """Raise InputContractError unless u is one backward time or a 1-D
        grid of them, each in [0, tau0] (a NaN is not): the estimand is
        defined only there."""
        u = np.asarray(u, dtype=float)
        if u.ndim > 1:
            raise InputContractError(f"u must be a number or a 1-D grid, got shape {u.shape}")
        bad = ~((u >= 0) & (u <= self.tau0))
        if np.any(bad):
            raise InputContractError(f"u={u[bad].flat[0]} outside [0, tau0={self.tau0}]")


def seeded_rng(seed) -> np.random.Generator:
    """``np.random.default_rng(seed)``; a seed that it refuses, such as NaN
    or a negative number, raises InputContractError."""
    try:
        return np.random.default_rng(seed)
    except (TypeError, ValueError):
        raise InputContractError(f"seed must be a nonnegative integer, a SeedSequence or a "
                                 f"Generator, got {seed!r}") from None


def _is_binary(d) -> bool:
    return (
        isinstance(d, (int, np.integer)) and not isinstance(d, bool) and (d == 0 or d == 1)
    )


def _delta_ok(delta: np.ndarray) -> np.ndarray:
    if delta.dtype.kind in "iu":
        return (delta == 0) | (delta == 1)
    if delta.dtype == object:
        return np.fromiter((_is_binary(d) for d in delta), dtype=bool, count=delta.size)
    # bool and float columns are not integer indicators
    return np.zeros(delta.shape, dtype=bool)


def _validate(ids, w, x, delta, ptr, time, mark) -> None:
    """Vectorized checks of every subject; the error names the first
    offending subject in input order, and carries its index and that of
    its first offending event."""
    n = ids.size
    if n == 0:
        raise CohortValidationError("cohort must contain at least one subject")
    if not (
        w.shape == x.shape == delta.shape == (n,)
        and ptr.dtype.kind in "iu"  # offsets: a float, NaN included, indexes nothing
        and ptr.shape == (n + 1,)
        and time.shape == mark.shape == (int(ptr[-1]),)
        and ptr[0] == 0
        and np.all(np.diff(ptr) >= 0)
    ):
        raise CohortValidationError("inconsistent cohort column shapes")
    bad = ~(np.isfinite(w) & np.isfinite(x)) | (w < 0) | (w > x) | ~_delta_ok(delta)
    owner = np.repeat(np.arange(n), np.diff(ptr))
    ev_bad = (~(np.isfinite(mark) & np.isfinite(time)) | (mark < 0)
              | (time < w[owner]) | (time > x[owner]))
    bad[owner[ev_bad]] = True
    dup = np.zeros(n, dtype=bool)
    if len(set(ids.tolist())) < n:
        seen: set[str] = set()
        for i, sid in enumerate(ids.tolist()):
            dup[i] = sid in seen
            seen.add(sid)
    if not (np.any(bad) or np.any(dup)):
        return
    i = int(np.argmax(bad | dup))
    sid = ids[i]
    wi, xi = float(w[i]), float(x[i])
    event = None
    if dup[i]:
        message = f"duplicate subject id {sid!r}"
    elif not (math.isfinite(wi) and math.isfinite(xi)):
        message = f"subject {sid!r}: non-finite w or x"
    elif wi < 0:
        message = f"subject {sid!r}: negative truncation time w={wi}"
    elif wi > xi:
        message = f"subject {sid!r}: truncation exceeds observation time (w={wi} > x={xi})"
    elif not _delta_ok(delta[i:i + 1])[0]:
        d = delta[i].item() if isinstance(delta[i], np.generic) else delta[i]
        message = f"subject {sid!r}: delta must be 0 or 1, got {d!r}"
    else:
        event = int(ptr[i] + np.argmax(ev_bad[ptr[i]:ptr[i + 1]]))
        t, q = float(time[event]), float(mark[event])
        if not math.isfinite(q):
            message = f"subject {sid!r}: non-finite mark at time {t}"
        elif q < 0:
            message = f"subject {sid!r}: negative mark {q} at time {t}"
        elif not math.isfinite(t):
            message = f"subject {sid!r}: non-finite event time"
        else:
            message = f"subject {sid!r}: event time {t} outside observation interval [{wi}, {xi}]"
    raise CohortValidationError(message, subject=i, event=event)


def validate_cohort(subjects: list[SubjectRecord] | tuple[SubjectRecord, ...]) -> Cohort:
    """Validate raw subject records and build the cohort.

    Rejects w > x, w < 0, non-finite w or x, a delta other than the integer
    0 or 1 (``True`` included), event times outside [w, x], non-finite or
    negative marks and duplicate ids, naming the first offending subject.
    """
    ids = np.empty(len(subjects), dtype=object)
    ids[:] = [s.id for s in subjects]
    delta = np.empty(len(subjects), dtype=object)
    delta[:] = [s.delta for s in subjects]
    counts = [len(s.events) for s in subjects]
    return Cohort.from_columns(
        ids,
        [s.w for s in subjects],
        [s.x for s in subjects],
        delta,
        np.concatenate([[0], np.cumsum(counts, dtype=np.intp)]),
        [ev.time for s in subjects for ev in s.events],
        [ev.mark for s in subjects for ev in s.events],
    )


def apply_prevalent_shift(cohort: Cohort, tau0: float) -> Cohort:
    """Replace w by w + tau0 for prevalent subjects, dropping those with x < w + tau0.

    This artificially truncates a small portion of the data so that the
    backward process over [0, tau0] is fully observed for every retained
    uncensored subject. Incident subjects (w = 0) are unchanged. Process
    events recorded between the actual and the shifted recruitment time are
    kept: only the truncation variable moves, not the observation window.

    Not idempotent: applying twice with tau0 > 0 shifts prevalent w by 2*tau0.
    """
    if not (0 < tau0 < math.inf):  # NaN fails too
        raise InputContractError(f"tau0 must be finite and positive, got {tau0}")
    prevalent = cohort.w != 0
    w = np.where(prevalent, cohort.w + tau0, cohort.w)
    keep = ~prevalent | (cohort.x >= w)
    if not np.any(keep):
        raise CohortValidationError("no subjects remain after prevalent shift")
    # a subset of a validated cohort with w raised to at most x passes every
    # check but the event lower bound, which the shift relaxes on purpose
    counts = np.diff(cohort.ptr)[keep]
    events = np.repeat(keep, np.diff(cohort.ptr))
    return Cohort._own(cohort.ids[keep], w[keep], cohort.x[keep], cohort.delta[keep],
                       np.concatenate([[0], np.cumsum(counts)]), cohort.time[events],
                       cohort.mark[events])
