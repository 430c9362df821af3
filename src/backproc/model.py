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
        for the checks, :func:`id_rows` for the ids. ``ptr`` must be integers."""
        ids, rows = id_rows(ids)
        w, x, time, mark = (check_numbers(name, column, None) for name, column
                            in (("w", w), ("x", x), ("time", time), ("mark", mark)))
        delta, ptr = map(_integer_column, (delta, ptr))
        _validate(ids, rows, w, x, delta, ptr, time, mark)
        return cls._own(np.array(ids, dtype=object), w.copy(), x.copy(), delta.astype(np.int64),
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
        the grid is read by :meth:`EstimandWindow.check_u`.

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
        grid = window.check_u(grid)
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
        order, b, k, marks = self.backward_cells(window, grid)
        subjects = self.in_window(window).size
        last = None
        for j0 in range(0, order.size, width):
            j1 = min(j0 + width, order.size)
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
        grid = window.check_u(grid)
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
        for name in ("t1", "t2", "tau0"):
            object.__setattr__(self, name, check_number(name, getattr(self, name), None))
        if not (0 < self.tau0 <= self.t1 < self.t2):  # NaN fails too
            raise InputContractError(
                f"invalid estimand window: need 0 < tau0 <= t1 < t2, "
                f"got tau0={self.tau0}, t1={self.t1}, t2={self.t2}"
            )

    def check_u(self, u) -> np.ndarray:
        """The reader of every u and grid: u as a 1-D float64 grid, a number
        being a one-point grid. InputContractError unless u is numbers on at
        most one axis, each in [0, tau0] (not NaN), where the estimand is."""
        u = check_numbers("u", u, None, noun="grid")
        grid = np.atleast_1d(u)
        bad = ~((grid >= 0) & (grid <= self.tau0))
        if np.any(bad):
            raise InputContractError(f"u={grid[bad][0]} outside [0, tau0={self.tau0}]")
        return grid

    def point(self, u) -> float:
        """One backward time u: :meth:`check_u` of exactly one value."""
        grid = self.check_u(u)
        if grid.size != 1:
            raise InputContractError(f"u must be one backward time, got {grid.size}")
        return float(grid[0])


def check_numbers(name: str, x, within: str | None, noun: str = "array") -> np.ndarray:
    """The reader of every number (u through :meth:`EstimandWindow.check_u`,
    a time t, a threshold m, a level q, the shift's tau0, a window's bounds,
    alpha, a confidence level, a critical value, a bandwidth and its
    candidates, the study's float fields, a cohort's float columns): x as a
    float64 array, 0-d for a number. InputContractError, naming the argument,
    unless x is numbers on at most one axis (a 1-D ``noun``); a bool, text or
    bytes is no number, alone or in a sequence or an array. ``within`` is the
    argument's interval as its message prints it, such as "(0, 1)", "[0, inf)"
    or "[-inf, inf]": a NaN is refused first, then each value outside it, as
    "{name} must be in {within}, got {value}". None reads the type alone, for
    a reader whose range is set by other values (a cohort's columns, a window's
    bounds, u in [0, tau0])."""
    try:
        a = np.asarray(x)
        # numpy reads True beside a float as 1.0, so a sequence or an object
        # array is read value by value; a numeric array costs no scan
        held = a.dtype == object or a.ndim and not isinstance(x, np.ndarray)
        kinds = set(map(type, np.asarray(x, dtype=object).ravel().tolist())) if held else ()
        if a.dtype.kind in "bUS" or any(issubclass(k, (bool, np.bool_, str, bytes)) for k in kinds):
            raise TypeError(x)
        a = np.asarray(x, dtype=float)
    except (TypeError, ValueError):
        raise InputContractError(f"{name} must be a number or a 1-D {noun}, got {x!r}") from None
    if a.ndim > 1:
        raise InputContractError(f"{name} must be a number or a 1-D {noun}, got shape {a.shape}")
    if within is not None:
        if np.isnan(a).any():
            raise InputContractError(f"{name} must not be NaN")
        lo, hi = map(float, within[1:-1].split(", "))
        out = (a <= lo if within[0] == "(" else a < lo) | (a >= hi if within[-1] == ")" else a > hi)
        if out.any():
            raise InputContractError(f"{name} must be in {within}, got {a[out][0]}")
    return a


def check_number(name: str, x, within: str | None) -> float:
    """One number: :func:`check_numbers` of exactly one value."""
    a = check_numbers(name, x, within)
    if a.size != 1:
        raise InputContractError(f"{name} must be one number, got {x!r}")
    return a.item()


def check_count(name: str, x, minimum: int) -> int:
    """The reader of every count and integer seed: x as an int.
    InputContractError, naming the argument, unless x is an integer of
    Python or numpy, not a bool, of at least ``minimum``."""
    if not _is_integer(x):
        raise InputContractError(f"{name} must be an integer, got {x!r}")
    if x < minimum:
        floor = "nonnegative" if minimum == 0 else f"at least {minimum}"
        raise InputContractError(f"{name} must be {floor}, got {x}")
    return int(x)


def seeded_rng(seed) -> np.random.Generator:
    """``np.random.default_rng(seed)`` of None, a SeedSequence, a
    BitGenerator, a Generator, or a :func:`check_count` seed or a 1-D
    sequence of them; any other, such as NaN, a bool or a negative number,
    raises InputContractError."""
    try:
        if np.ndim(seed) == 1:
            seed = [check_count("seed", s, 0) for s in seed]
        elif not isinstance(seed, (type(None), np.random.SeedSequence, np.random.BitGenerator,
                                   np.random.Generator)):
            seed = check_count("seed", seed, 0)
    except ValueError:  # InputContractError, or a ragged sequence
        raise InputContractError(f"seed must be a nonnegative integer or a sequence of them, a "
                                 f"SeedSequence or a Generator, got {seed!r}") from None
    return np.random.default_rng(seed)


def _is_integer(x) -> bool:
    """The one integer rule: a Python or numpy integer, not a bool."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _integer_column(column) -> np.ndarray:
    """A cohort's delta or ptr: an ndarray as given, any other sequence as numpy reads
    it if every entry is an integer, else as an object array, which _validate refuses."""
    if isinstance(column, np.ndarray):
        return column
    # _is_integer on the set of entry types, one test of the whole column
    entries = np.asarray(column, dtype=object)
    kinds = set(map(type, entries.ravel().tolist()))
    if all(issubclass(k, (int, np.integer)) and not issubclass(k, bool) for k in kinds):
        return np.asarray(column)
    return entries


def _delta_ok(delta: np.ndarray) -> np.ndarray:
    if delta.dtype.kind in "iu":
        return (delta == 0) | (delta == 1)
    if delta.dtype == object:
        return np.fromiter((_is_integer(d) and d in (0, 1) for d in delta), bool, delta.size)
    # bool and float columns are not integer indicators
    return np.zeros(delta.shape, dtype=bool)


def id_rows(ids) -> tuple[list, list[tuple[np.ndarray, str]]]:
    """The reader of a cohort's ids, those of ingest's files included, and the one place
    where they are checked: the ids as a list, one entry per subject (a tuple entry is one
    id, a str is a column of one, an ndarray is read by tolist()), and their rows of
    :func:`_validate`'s rule table: each id a non-empty str, stored as str, unique."""
    ids = ids.tolist() if isinstance(ids, np.ndarray) else ids
    ids = list(ids) if np.iterable(ids) and not isinstance(ids, (str, bytes)) else [ids]
    bad, repeated = np.zeros((2, len(ids)), dtype=bool)
    # flags only when a whole-column test fails, as a str subclass (np.str_) does
    if not (set(map(type, ids)) <= {str} and "" not in ids and len(set(ids)) == len(ids)):
        first: dict[str, int] = {}
        for i, sid in enumerate(ids):
            bad[i] = not (isinstance(sid, str) and sid)
            if not bad[i]:
                ids[i] = sid = str(sid)
                repeated[i] = first.setdefault(sid, i) != i
    return ids, [(bad, "subject {i}: id must be a non-empty string, got {id!r}"),
                 (repeated, "duplicate subject id {id!r}")]


def _validate(ids: list, rows: list, w, x, delta, ptr, time, mark) -> None:
    """Vectorized checks of every subject by one rule table: the id ``rows``,
    then a row per rule of the subject values and of the events, each (flags
    over the subjects or the events, message). The error names the first
    flagged subject, then its first flagged event, by the first row flagging it."""
    n = len(ids)
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
    owner = np.repeat(np.arange(n), np.diff(ptr))
    rows = [*rows,
            (~(np.isfinite(w) & np.isfinite(x)), "subject {id!r}: non-finite w or x"),
            (w < 0, "subject {id!r}: negative truncation time w={w}"),
            (w > x, "subject {id!r}: truncation exceeds observation time (w={w} > x={x})"),
            (~_delta_ok(delta), "subject {id!r}: delta must be 0 or 1, got {delta!r}")]
    events = [(~np.isfinite(mark), "subject {id!r}: non-finite mark at time {t}"),
              (mark < 0, "subject {id!r}: negative mark {q} at time {t}"),
              (~np.isfinite(time), "subject {id!r}: non-finite event time"),
              ((time < w[owner]) | (time > x[owner]),
               "subject {id!r}: event time {t} outside observation interval [{w}, {x}]")]
    # each row's first flag as (subject, event), a subject's own rows before its events
    firsts = [((int(np.argmax(flags)), -1), message) for flags, message in rows if flags.any()]
    firsts += [((int(owner[e]), e), message) for flags, message in events if flags.any()
               for e in [int(np.argmax(flags))]]
    if not firsts:
        return
    (i, e), message = min(firsts, key=lambda first: first[0])  # the first row of the ties
    d = delta[i].item() if isinstance(delta[i], np.generic) else delta[i]
    t, q = (float(time[e]), float(mark[e])) if e >= 0 else (None, None)
    raise CohortValidationError(
        message.format(i=i, id=ids[i], w=float(w[i]), x=float(x[i]), delta=d, t=t, q=q),
        subject=i, event=e if e >= 0 else None)


def validate_cohort(subjects: list[SubjectRecord] | tuple[SubjectRecord, ...]) -> Cohort:
    """Validate raw subject records and build the cohort.

    Rejects an id that is not a non-empty str or repeats an earlier one,
    w > x, w < 0, non-finite w or x, a delta other than the integer 0 or 1
    (``True`` included), event times outside [w, x], and non-finite or negative marks.
    """
    return Cohort.from_columns(
        *([getattr(s, name) for s in subjects] for name in ("id", "w", "x", "delta")),
        np.concatenate([[0], np.cumsum([len(s.events) for s in subjects], dtype=np.intp)]),
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
    tau0 = check_number("tau0", tau0, "(0, inf)")
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
