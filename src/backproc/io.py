"""CSV ingestion and export.

On-disk contract: subjects.csv with columns id, w, x, delta (delta in {0,1})
and events.csv with columns id, time, mark. Forward time is the on-disk
convention; backward time is always derived. UTF-8 (a leading byte-order
mark is ignored), header row required, '.' decimal separator.
"""

from __future__ import annotations

import csv
from collections.abc import Sequence
from io import StringIO
from pathlib import Path

import numpy as np

from .model import Cohort, CohortValidationError

__all__ = ["IngestError", "ingest", "write_cohort", "write_rows"]


class IngestError(ValueError):
    """Malformed input file; message names the file and line."""


def _parse_float(raw: str, path, line: int, col: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise IngestError(f"{path}, line {line}: column {col!r} is not a number: {raw!r}") from None


def _check_header(path, header: list[str], first: list[str] | None) -> None:
    if first is None or [c.strip() for c in first] != header:
        raise IngestError(f"{path}: header must be exactly {','.join(header)!r}, got {first}")


def _read(path, header: list[str]) -> tuple[list, Sequence[int]]:
    r"""The k columns of a CSV file's data rows, after checking its header,
    and the physical line number of each row. Blank rows are skipped but
    counted in line numbers, as csv.reader's ``line_num`` counts them.

    A file with no ``"``, no ``\r`` outside ``\r\n`` and no line longer
    than ``csv.field_size_limit()`` is split whole: each row's field count
    is checked from the comma and newline positions at once, and column j
    of the body split on commas and newlines is every k-th value from j. A
    NUL byte is an ordinary character there. Any other file (quoted ids,
    which :func:`write_cohort` writes for an id holding a comma, quote or
    newline) is read by ``csv.reader``. Both give the same columns, line
    numbers and errors. Bytes that are not UTF-8, and a field longer than
    ``csv.field_size_limit()``, are an error that names the line.
    """
    k = len(header)
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        # the offsets are into exc.object, which starts after any byte-order mark
        line = exc.object.count(b"\n", 0, exc.start) + 1
        raise IngestError(f"{path}, line {line}: not UTF-8 ({exc.reason}, byte "
                          f"0x{exc.object[exc.start]:02x})") from None
    plain = data.replace(b"\r", b"")
    crs = len(data) - len(plain)
    if b'"' in data or crs and crs != data.count(b"\r\n"):  # a quote, or a CR outside \r\n
        return _read_csv(path, text, header)
    if crs:  # UTF-8 less its CRs is still UTF-8, and decoding it beats str.replace
        text = plain.decode("utf-8-sig")
    del data
    buf = np.frombuffer(plain, dtype=np.uint8)
    # segment j ends at ends[j] and is physical line j + 1; the last may be empty
    ends = np.append(np.flatnonzero(buf == ord("\n")), buf.size)
    width = np.diff(ends, prepend=-1) - 1
    if width.max() > csv.field_size_limit():
        return _read_csv(path, text, header)
    fields = np.diff(np.searchsorted(np.flatnonzero(buf == ord(",")), ends), prepend=0)[1:] + 1
    del plain, buf  # the text and its split are large enough on their own
    head = text[: text.find("\n")] if "\n" in text else text
    _check_header(path, header, (head.split(",") if head else []) if text else None)
    full = width[1:] > 0
    bad = np.flatnonzero(full & (fields != k))
    if bad.size:
        raise IngestError(f"{path}, line {bad[0] + 2}: expected {k} fields, got {fields[bad[0]]}")
    lines = np.flatnonzero(full) + 2
    if lines.size and lines[-1] != lines.size + 1:  # blank lines among the rows
        text = "\n".join(filter(None, text.split("\n")))
    # the header is the first k values; blank lines after the last row add ""s
    flat = text.replace("\n", ",").split(",")
    return [flat[j : k * (lines.size + 1) : k] for j in range(k, 2 * k)], lines


def _read_csv(path, text: str, header: list[str]) -> tuple[list, Sequence[int]]:
    """:func:`_read` for text that needs csv.reader's quoting rules. A row
    is named by its first line: one with a quoted newline ends on a later
    one, where ``reader.line_num`` stands after reading it."""
    reader = csv.reader(StringIO(text, newline=""))
    rows, lines = [], []
    start = 1
    try:
        _check_header(path, header, next(reader, None))
        start = reader.line_num + 1
        for row in reader:
            if row:
                rows.append(row)
                lines.append(start)
            start = reader.line_num + 1
    except csv.Error as exc:  # such as a field longer than csv.field_size_limit()
        raise IngestError(f"{path}, line {start}: {exc}") from None
    for line, row in zip(lines, rows):
        if len(row) != len(header):
            raise IngestError(f"{path}, line {line}: expected {len(header)} fields, got {len(row)}")
    return list(zip(*rows)) if rows else [()] * len(header), lines


def _reject_subject_row(path, lines, columns) -> None:
    """Raise the error of the first malformed subjects row."""
    seen: set[str] = set()
    for line, sid, w_raw, x_raw, d_raw in zip(lines, *columns):
        if sid == "":
            raise IngestError(f"{path}, line {line}: empty id")
        if d_raw not in ("0", "1"):
            raise IngestError(f"{path}, line {line}: delta must be 0 or 1, got {d_raw!r}")
        if sid in seen:
            raise IngestError(f"{path}, line {line}: duplicate subject id {sid!r}")
        seen.add(sid)
        _parse_float(w_raw, path, line, "w")
        _parse_float(x_raw, path, line, "x")


def _reject_event_row(path, lines, columns, row_of: dict[str, int]) -> None:
    """Raise the error of the first malformed events row."""
    for line, sid, t_raw, q_raw in zip(lines, *columns):
        if sid not in row_of:
            raise IngestError(f"{path}, line {line}: unknown subject id {sid!r}")
        _parse_float(t_raw, path, line, "time")
        _parse_float(q_raw, path, line, "mark")


def ingest(subjects_path, events_path) -> Cohort:
    """Read and join the two CSV inputs into a validated cohort.

    Events referencing unknown subject ids are rejected with the offending
    line number. A validation error from the data model is raised again
    with the file and line of the row it names in front of its message.
    Each subject's events are sorted by time, ties kept in file order.

    Each file is read as whole columns (see :func:`_read`: one split of the
    text when nothing in it needs csv quoting rules, ``csv.reader`` when
    something does). The columns are parsed whole; only when that fails are
    the rows checked one by one, so the error names the physical line of
    the first malformed row.
    """
    subjects_path = Path(subjects_path)
    events_path = Path(events_path)
    columns, subject_lines = _read(subjects_path, ["id", "w", "x", "delta"])
    sids, w_raw, x_raw, d_raw = columns
    try:
        w = np.array(w_raw, dtype=float)
        x = np.array(x_raw, dtype=float)
        ok = "" not in sids and set(d_raw) <= {"0", "1"} and len(set(sids)) == len(sids)
    except ValueError:
        ok = False
    if not ok:
        _reject_subject_row(subjects_path, subject_lines, columns)
    row_of = {sid: i for i, sid in enumerate(sids)}

    columns, event_lines = _read(events_path, ["id", "time", "mark"])
    eids, t_raw, q_raw = columns
    try:
        owner = np.array([row_of[sid] for sid in eids], dtype=np.intp)
        time = np.array(t_raw, dtype=float)
        mark = np.array(q_raw, dtype=float)
    except (KeyError, ValueError):
        _reject_event_row(events_path, event_lines, columns, row_of)
        raise

    # write_cohort writes the events in (subject, time) order already, and
    # then the identity is the order that the stable lexsort would give
    step = np.diff(owner)
    if np.all((step > 0) | (step == 0) & (np.diff(time) >= 0)):
        order = np.arange(owner.size)
    else:
        order = np.lexsort((time, owner))
        time, mark = time[order], mark[order]
    ids = np.empty(len(sids), dtype=object)
    ids[:] = sids
    try:
        return Cohort.from_columns(
            ids, w, x, np.array(list(map(int, d_raw)), dtype=np.int64),
            np.concatenate([[0], np.cumsum(np.bincount(owner, minlength=len(sids)))]),
            time, mark,
        )
    except CohortValidationError as exc:
        # an event's index is into the sorted columns: order maps it to its row
        if exc.event is not None:
            where = f"{events_path}, line {event_lines[order[exc.event]]}"
        elif exc.subject is not None:
            where = f"{subjects_path}, line {subject_lines[exc.subject]}"
        else:
            where = str(subjects_path)
        raise CohortValidationError(f"{where}: {exc}", subject=exc.subject,
                                    event=exc.event) from None


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
    r"""Write equal-length columns as CSV: the header is the dict's keys, in
    order. Values are written with repr of a Python float, so output is
    byte-stable across runs; columns of unequal length raise ValueError
    before the file is opened.

    The text is built in one pass and written once. Neither a float's repr
    nor the column names the CLI writes need quoting, so the bytes are those
    of csv.writer's default dialect: fields joined by ',' and rows ended by
    '\r\n'.
    """
    values = [np.asarray(c, dtype=float) for c in columns.values()]
    # column_stack raises ValueError on unequal lengths; tolist() gives
    # Python floats, whose repr is the plain number
    cells = map(repr, np.column_stack(values).ravel().tolist()) if values else iter(())
    rows = map(",".join, zip(*[cells] * len(values)))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("\r\n".join([",".join(columns), *rows, ""]))
