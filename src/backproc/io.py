"""CSV ingestion and export.

On-disk contract: subjects.csv with columns id, w, x, delta (delta in {0,1})
and events.csv with columns id, time, mark. Forward time is the on-disk
convention; backward time is always derived. UTF-8, header row required,
'.' decimal separator.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from .model import Cohort

__all__ = ["IngestError", "ingest", "write_cohort", "write_rows"]


class IngestError(ValueError):
    """Malformed input file; message names the file and line."""


def _parse_float(raw: str, path, line: int, col: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise IngestError(f"{path}, line {line}: column {col!r} is not a number: {raw!r}") from None


def _read(path, header: list[str]) -> list[list[str]]:
    """Data rows of a CSV file after checking its header. Blank rows are
    skipped and not counted in line numbers, as csv.DictReader does."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        first = next(reader, None)
        if first is None or [c.strip() for c in first] != header:
            raise IngestError(
                f"{path}: header must be exactly {','.join(header)!r}, got {first}"
            )
        rows = [r for r in reader if r]
    if set(map(len, rows)) - {len(header)}:
        line, row = next((i, r) for i, r in enumerate(rows, start=2) if len(r) != len(header))
        raise IngestError(f"{path}, line {line}: expected {len(header)} fields, got {len(row)}")
    return rows


def _columns(rows: list[list[str]], k: int) -> tuple[tuple[str, ...], ...]:
    return tuple(zip(*rows)) if rows else ((),) * k


def _reject_subject_row(path, rows) -> None:
    """Raise the error of the first malformed subjects row."""
    seen: set[str] = set()
    for line, (sid, w_raw, x_raw, d_raw) in enumerate(rows, start=2):
        if sid == "":
            raise IngestError(f"{path}, line {line}: empty id")
        if d_raw not in ("0", "1"):
            raise IngestError(f"{path}, line {line}: delta must be 0 or 1, got {d_raw!r}")
        if sid in seen:
            raise IngestError(f"{path}, line {line}: duplicate subject id {sid!r}")
        seen.add(sid)
        _parse_float(w_raw, path, line, "w")
        _parse_float(x_raw, path, line, "x")


def _reject_event_row(path, rows, row_of: dict[str, int]) -> None:
    """Raise the error of the first malformed events row."""
    for line, (sid, t_raw, q_raw) in enumerate(rows, start=2):
        if sid not in row_of:
            raise IngestError(f"{path}, line {line}: unknown subject id {sid!r}")
        _parse_float(t_raw, path, line, "time")
        _parse_float(q_raw, path, line, "mark")


def ingest(subjects_path, events_path) -> Cohort:
    """Read and join the two CSV inputs into a validated cohort.

    Events referencing unknown subject ids are rejected with the offending
    line number; validation errors from the data model propagate. Each
    subject's events are sorted by time, ties kept in file order.

    Columns are parsed whole; only when that fails are the rows checked one
    by one, so the error names the first malformed line.
    """
    subjects_path = Path(subjects_path)
    events_path = Path(events_path)
    rows = _read(subjects_path, ["id", "w", "x", "delta"])
    sids, w_raw, x_raw, d_raw = _columns(rows, 4)
    try:
        w = list(map(float, w_raw))
        x = list(map(float, x_raw))
        ok = "" not in sids and set(d_raw) <= {"0", "1"} and len(set(sids)) == len(sids)
    except ValueError:
        ok = False
    if not ok:
        _reject_subject_row(subjects_path, rows)
    row_of = {sid: i for i, sid in enumerate(sids)}

    rows = _read(events_path, ["id", "time", "mark"])
    eids, t_raw, q_raw = _columns(rows, 3)
    try:
        owner = np.array([row_of[sid] for sid in eids], dtype=np.intp)
        time = np.array(list(map(float, t_raw)), dtype=float)
        mark = np.array(list(map(float, q_raw)), dtype=float)
    except (KeyError, ValueError):
        _reject_event_row(events_path, rows, row_of)
        raise

    order = np.lexsort((time, owner))
    ids = np.empty(len(sids), dtype=object)
    ids[:] = sids
    return Cohort.from_columns(
        ids, w, x, np.array(list(map(int, d_raw)), dtype=np.int64),
        np.concatenate([[0], np.cumsum(np.bincount(owner, minlength=len(sids)))]),
        time[order], mark[order],
    )


def write_cohort(cohort: Cohort, subjects_path, events_path) -> None:
    """Serialize a cohort back to the two-CSV on-disk form (round-trips with
    :func:`ingest` up to event ordering within a subject)."""
    ids = cohort.ids.tolist()
    with open(subjects_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "w", "x", "delta"])
        writer.writerows(
            [sid, repr(w), repr(x), d]
            for sid, w, x, d in zip(ids, cohort.w.tolist(), cohort.x.tolist(),
                                    cohort.delta.tolist())
        )
    with open(events_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "time", "mark"])
        # tolist() gives Python floats: repr(np.float64) is not a plain number
        writer.writerows(
            [ids[i], repr(t), repr(q)]
            for i, t, q in zip(cohort.owner.tolist(), cohort.time.tolist(),
                               cohort.mark.tolist())
        )


def write_rows(path, columns: dict) -> None:
    """Write equal-length columns as CSV: the header is the dict's keys, in
    order. Values are written with repr of a Python float, so output is
    byte-stable across runs; columns of unequal length raise ValueError
    before the file is opened."""
    values = [np.asarray(c, dtype=float).tolist() for c in columns.values()]
    rows = [list(map(repr, row)) for row in zip(*values, strict=True)]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(columns))
        writer.writerows(rows)
