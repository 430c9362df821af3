import csv
import io
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import backproc.io
from backproc import IngestError, ingest, write_cohort
from backproc.io import write_rows
from backproc.model import CohortValidationError, ProcessEvent, SubjectRecord, validate_cohort

from conftest import random_cohort

SUBJECTS = "id,w,x,delta\nA,0,2.0,1\nB,0,3.0,0\nC,0,1.5,1\n"
EVENTS = "id,time,mark\nA,1.5,5.0\nC,0.5,2.0\n"
# events of subject A alone, for a subjects file without C
EVENTS_OF_A = "id,time,mark\nA,1.5,5.0\n"


def write_pair(tmp_path, subjects=SUBJECTS, events=EVENTS):
    sp = tmp_path / "subjects.csv"
    ep = tmp_path / "events.csv"
    sp.write_text(subjects)
    ep.write_text(events)
    return sp, ep


class TestIngest:
    def test_well_formed(self, tmp_path):
        cohort = ingest(*write_pair(tmp_path))
        assert cohort.n == 3
        a = cohort.subjects[0]
        assert (a.id, a.w, a.x, a.delta) == ("A", 0.0, 2.0, 1)
        assert a.events[0].mark == 5.0

    def test_events_sorted_within_subject(self, tmp_path):
        events = "id,time,mark\nA,1.5,5.0\nA,0.5,1.0\n"
        cohort = ingest(*write_pair(tmp_path, events=events))
        times = [ev.time for ev in cohort.subjects[0].events]
        assert times == sorted(times)

    @pytest.mark.parametrize("rows", [
        "A,1.0,1.0\nC,0.5,2.0\nA,0.5,3.0\nA,1.0,4.0\nC,0.5,5.0\n",  # interleaved: sorted
        "A,0.5,3.0\nA,1.0,1.0\nA,1.0,4.0\nC,0.5,2.0\nC,0.5,5.0\n",  # in order: kept
    ], ids=["interleaved", "in-order"])
    def test_events_by_subject_and_time_with_ties_in_file_order(self, tmp_path, rows):
        cohort = ingest(*write_pair(tmp_path, events="id,time,mark\n" + rows))
        assert cohort.ptr.tolist() == [0, 3, 3, 5]
        assert cohort.time.tolist() == [0.5, 1.0, 1.0, 0.5, 0.5]
        assert cohort.mark.tolist() == [3.0, 1.0, 4.0, 2.0, 5.0]

    def test_bad_subject_header(self, tmp_path):
        sp, ep = write_pair(tmp_path, subjects="id,entry,x,delta\nA,0,2,1\n")
        with pytest.raises(IngestError, match=r"subjects\.csv: header must be exactly 'id,w,x"):
            ingest(sp, ep)

    def test_bad_event_header(self, tmp_path):
        sp, ep = write_pair(tmp_path, events="id,t,mark\nA,1.5,5\n")
        with pytest.raises(IngestError, match=r"events\.csv: header must be exactly 'id,time"):
            ingest(sp, ep)

    def test_bad_delta_reports_line(self, tmp_path):
        sp, ep = write_pair(tmp_path, subjects="id,w,x,delta\nA,0,2.0,1\nB,0,3.0,2\n",
                            events=EVENTS_OF_A)
        with pytest.raises(CohortValidationError,
                           match=r"subjects\.csv, line 3: subject 'B': delta must be 0 or 1"):
            ingest(sp, ep)

    def test_non_numeric_reports_column(self, tmp_path):
        sp, ep = write_pair(tmp_path, subjects="id,w,x,delta\nA,zero,2.0,1\n")
        with pytest.raises(IngestError, match="'w'"):
            ingest(sp, ep)

    def test_unknown_event_id(self, tmp_path):
        sp, ep = write_pair(tmp_path, events="id,time,mark\nZ,1.0,5.0\n")
        with pytest.raises(IngestError, match="unknown subject id 'Z'"):
            ingest(sp, ep)

    def test_duplicate_subject_id(self, tmp_path):
        sp, ep = write_pair(tmp_path, subjects="id,w,x,delta\nA,0,2.0,1\nA,0,3.0,0\n",
                            events=EVENTS_OF_A)
        with pytest.raises(CohortValidationError,
                           match=r"subjects\.csv, line 3: duplicate subject id 'A'$"):
            ingest(sp, ep)

    def test_model_validation_propagates(self, tmp_path):
        sp, ep = write_pair(tmp_path, subjects="id,w,x,delta\nA,5.0,2.0,1\n", events="id,time,mark\n")
        with pytest.raises(CohortValidationError):
            ingest(sp, ep)


class TestRoundTrip:
    @pytest.mark.parametrize("seed", [0, 3])
    def test_write_then_ingest_preserves_data(self, seed, tmp_path):
        cohort = random_cohort(seed)
        sp = tmp_path / "s.csv"
        ep = tmp_path / "e.csv"
        write_cohort(cohort, sp, ep)
        back = ingest(sp, ep)
        assert back.subjects == cohort.subjects

    def test_output_byte_stable(self, tmp_path):
        cohort = random_cohort(1)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        e1, e2 = tmp_path / "ae.csv", tmp_path / "be.csv"
        write_cohort(cohort, p1, e1)
        write_cohort(cohort, p2, e2)
        assert p1.read_bytes() == p2.read_bytes()
        assert e1.read_bytes() == e2.read_bytes()


# ids that need quoting, or that a reader could alter: a comma, a quote, CR,
# LF, CRLF, blanks around the text, NUL, non-ASCII text, and "0"
AWKWARD_IDS = ["a,b", 'q"x', "c\rr", "l\nf", "cr\r\nlf", "\r", "\n", " pad ", " ", "n\0l",
               "\0", "n\u00e4\u20ac\U0001f600", "0"]


@st.composite
def valid_cohorts(draw):
    """A cohort that validate_cohort accepts, each subject's events in time
    order, as ingest sorts them."""
    ids = draw(st.lists(st.sampled_from(AWKWARD_IDS) | st.text(min_size=1), min_size=1,
                        max_size=6, unique=True))
    records = []
    for sid in ids:
        w = draw(st.floats(0.0, 1e6))
        x = draw(st.floats(w, 2e6))
        times = sorted(draw(st.lists(st.floats(w, x), max_size=3)))
        events = [ProcessEvent(t, draw(st.floats(0.0, 1e300))) for t in times]
        records.append(SubjectRecord(sid, w, x, draw(st.sampled_from([0, 1])), tuple(events)))
    return validate_cohort(records)


class TestEveryValidCohortRoundTrips:
    @settings(max_examples=80, deadline=None)
    @given(cohort=valid_cohorts())
    @example(cohort=validate_cohort([SubjectRecord(sid, 0.0, 1.0, 1, (ProcessEvent(0.5, 2.0),))
                                     for sid in AWKWARD_IDS]))
    def test_write_then_ingest_gives_every_column_back(self, cohort):
        with tempfile.TemporaryDirectory() as tmp:
            sp, ep = Path(tmp, "s.csv"), Path(tmp, "e.csv")
            write_cohort(cohort, sp, ep)
            same_cohort(ingest(sp, ep), cohort)

    @pytest.mark.parametrize("ids", [["a", ""], ["a", "a"]], ids=["empty", "repeated"])
    def test_ids_that_ingest_refuses_are_refused_by_validation(self, ids):
        with pytest.raises(CohortValidationError, match="^(subject 1: id|duplicate subject id)"):
            validate_cohort([SubjectRecord(sid, 0.0, 1.0, 1) for sid in ids])


class TestWriteRows:
    def test_header_then_repr_of_each_value(self, tmp_path):
        out = tmp_path / "o.csv"
        write_rows(out, {"u": np.array([0.0, 0.1]), "n": [3, 4]})
        assert out.read_text() == "u,n\n0.0,3.0\n0.1,4.0\n"

    def test_unequal_columns_raise_and_write_nothing(self, tmp_path):
        out = tmp_path / "o.csv"
        with pytest.raises(ValueError):
            write_rows(out, {"u": np.array([0.0, 0.1]), "mu": np.array([1.0])})
        assert not out.exists()


def quote_first_id(text):
    """The CSV text with the id of its first data row wrapped in quotes: the
    same rows, in a file that only csv.reader's quoting rules can read."""
    lines = text.split("\n")
    i = next(i for i, line in enumerate(lines[1:], start=1) if line.strip("\r"))
    lines[i] = '"{}",{}'.format(*lines[i].split(",", 1))
    return "\n".join(lines)


# each input twice: as written, and with one quoted id, which csv.reader reads
BOTH_PATHS = pytest.mark.parametrize("form", [str, quote_first_id], ids=["plain", "quoted"])


class TestLineNumbers:
    """Errors name the physical line of the bad row, blank lines included."""

    @BOTH_PATHS
    def test_subject_row_after_blank_lines(self, tmp_path, form):
        sp, ep = write_pair(tmp_path, subjects=form("id,w,x,delta\nA,0,2.0,1\n\n\nB,0,3.0,7\n"),
                            events=EVENTS_OF_A)
        with pytest.raises(CohortValidationError,
                           match=r"subjects\.csv, line 5: subject 'B': delta must be 0 or 1"):
            ingest(sp, ep)

    @BOTH_PATHS
    def test_field_count_after_blank_lines(self, tmp_path, form):
        sp, ep = write_pair(tmp_path, events=form("id,time,mark\nA,1.0,1.0\n\nA,2.0\n"))
        with pytest.raises(IngestError, match=r"events\.csv, line 4: expected 3 fields, got 2"):
            ingest(sp, ep)

    @BOTH_PATHS
    def test_event_row_after_blank_lines(self, tmp_path, form):
        sp, ep = write_pair(tmp_path, events=form("id,time,mark\nA,1.0,1.0\n\n\n\nZ,2.0,1.0\n"))
        with pytest.raises(IngestError, match="line 6: unknown subject id 'Z'"):
            ingest(sp, ep)

    def test_crlf_lines_count_once(self, tmp_path):
        sp, ep = write_pair(tmp_path, events=EVENTS_OF_A)
        sp.write_bytes(b"id,w,x,delta\r\nA,0,2.0,1\r\n\r\nB,0,3.0,7\r\n")
        with pytest.raises(CohortValidationError, match=r"subjects\.csv, line 4: subject 'B'"):
            ingest(sp, ep)

    @pytest.mark.parametrize("ends", [("\r\n", "\n", "\r\n", "\n"), ("\n", "\r", "\n", "\n"),
                                      ("\n", "\n", "\n", "\r"), ("\n", "\r\r\n", "\n", "\n")],
                             ids=["mixed", "lone-cr", "final-cr", "cr-crlf"])
    def test_any_line_end_reads_as_lf(self, tmp_path, ends):
        sp, ep = write_pair(tmp_path)
        expected = ingest(sp, ep)
        sp.write_bytes("".join(map(str.__add__, SUBJECTS.splitlines(), ends)).encode())
        same_cohort(ingest(sp, ep), expected)

    @BOTH_PATHS
    def test_empty_id(self, tmp_path, form):
        sp, ep = write_pair(tmp_path, subjects=form("id,w,x,delta\nA,0,2.0,1\n\n,0,3.0,0\n"),
                            events=EVENTS_OF_A)
        with pytest.raises(CohortValidationError,
                           match=r"subjects\.csv, line 4: subject 1: id must be a non-empty"):
            ingest(sp, ep)

    @pytest.mark.parametrize("sid", ["B" * (csv.field_size_limit() + 1),
                                     '"' + "B" * (csv.field_size_limit() + 1) + '"',
                                     '"' + "B\n" * (csv.field_size_limit() // 2 + 1) + '"'],
                             ids=["plain", "quoted", "quoted-over-lines"])
    def test_field_over_the_csv_limit(self, tmp_path, sid):
        sp, ep = write_pair(tmp_path, subjects=f"id,w,x,delta\nA,0,2.0,1\n\n{sid},0,3.0,0\n")
        with pytest.raises(IngestError, match=r"subjects\.csv, line 4: field larger than field "
                                              r"limit \(131072\)$"):
            ingest(sp, ep)

    @pytest.mark.parametrize(("delta", "error", "message"), [
        ("", IngestError, "expected 4 fields, got 3"),
        (",7", CohortValidationError, r"subject 'B\\nB\\nB': delta must be 0 or 1, got '7'")],
        ids=["fields", "delta"])
    def test_row_over_many_lines_is_named_by_its_first(self, tmp_path, delta, error, message):
        sp, ep = write_pair(tmp_path, subjects=f'id,w,x,delta\nA,0,2.0,1\n"B\nB\nB",0,3.0{delta}\n',
                            events="id,time,mark\n")
        with pytest.raises(error, match=rf"subjects\.csv, line 3: {message}$"):
            ingest(sp, ep)

    def test_quoted_newline_counts_its_lines(self, tmp_path):
        sp, ep = write_pair(tmp_path, subjects='id,w,x,delta\n"A\nA",0,2.0,1\nB,0,3.0,7\n',
                            events="id,time,mark\n")
        with pytest.raises(CohortValidationError,
                           match=r"subjects\.csv, line 4: subject 'B': delta must be"):
            ingest(sp, ep)


class TestByteOrderMark:
    @BOTH_PATHS
    def test_subjects_with_bom(self, tmp_path, form):
        expected = ingest(*write_pair(tmp_path))
        same_cohort(ingest(*write_pair(tmp_path, subjects="\ufeff" + form(SUBJECTS))), expected)

    @BOTH_PATHS
    def test_events_with_bom(self, tmp_path, form):
        expected = ingest(*write_pair(tmp_path))
        same_cohort(ingest(*write_pair(tmp_path, events="\ufeff" + form(EVENTS))), expected)


class TestNotUtf8:
    """Bytes that are not UTF-8 are an IngestError naming the file and the
    line of the first bad byte, on either read path, after any byte-order
    mark."""

    @BOTH_PATHS
    @pytest.mark.parametrize("bom", ["", "\ufeff"], ids=["no-bom", "bom"])
    def test_subjects(self, tmp_path, form, bom):
        sp, ep = write_pair(tmp_path)
        sp.write_bytes((bom + form(SUBJECTS)).encode().replace(b"B,", b"B\xff,"))
        with pytest.raises(IngestError, match=r"subjects\.csv, line 3: not UTF-8 .*0xff"):
            ingest(sp, ep)

    @BOTH_PATHS
    @pytest.mark.parametrize("bom", ["", "\ufeff"], ids=["no-bom", "bom"])
    def test_events(self, tmp_path, form, bom):
        sp, ep = write_pair(tmp_path)
        ep.write_bytes((bom + form(EVENTS + "\n")).encode() + b"C,0.7,\xe2\x82\n")
        with pytest.raises(IngestError, match=r"events\.csv, line 5: not UTF-8 .*0xe2"):
            ingest(sp, ep)


class TestValidationLines:
    """A validation error from the data model names the file and the
    physical line of the row at fault."""

    @BOTH_PATHS
    def test_w_above_x(self, tmp_path, form):
        sp, ep = write_pair(tmp_path, subjects=form("id,w,x,delta\nA,0,2.0,1\n\nB,5,3.0,1\n"),
                            events="id,time,mark\n")
        with pytest.raises(CohortValidationError,
                           match=r"subjects\.csv, line 4: subject 'B': truncation exceeds"):
            ingest(sp, ep)

    @BOTH_PATHS
    def test_non_finite_x(self, tmp_path, form):
        sp, ep = write_pair(tmp_path, subjects=form("id,w,x,delta\nA,0,2.0,1\nB,0,inf,0\n"),
                            events="id,time,mark\n")
        with pytest.raises(CohortValidationError,
                           match=r"subjects\.csv, line 3: subject 'B': non-finite w or x"):
            ingest(sp, ep)

    @BOTH_PATHS
    @pytest.mark.parametrize("mark, message", [("-1.0", "negative mark -1.0"),
                                               ("nan", "non-finite mark")])
    def test_bad_mark_names_its_line_in_file_order(self, tmp_path, form, mark, message):
        # ingest sorts A's events by time, so the bad one comes first in the
        # cohort but is the last row of the file
        events = form(f"id,time,mark\nA,1.5,5.0\nC,0.5,2.0\nA,0.5,{mark}\n")
        sp, ep = write_pair(tmp_path, events=events)
        with pytest.raises(CohortValidationError,
                           match=rf"events\.csv, line 4: subject 'A': {message}"):
            ingest(sp, ep)

    @BOTH_PATHS
    def test_bad_mark_in_sorted_events_names_its_line(self, tmp_path, form):
        # events already in (subject, time) order are not re-sorted
        events = form("id,time,mark\nA,0.5,1.0\nA,1.5,-1.0\nC,0.5,2.0\n")
        sp, ep = write_pair(tmp_path, events=events)
        with pytest.raises(CohortValidationError,
                           match=r"events\.csv, line 3: subject 'A': negative mark -1.0"):
            ingest(sp, ep)

    @BOTH_PATHS
    def test_event_outside_the_interval(self, tmp_path, form):
        events = form("id,time,mark\nC,0.5,2.0\n\nA,2.5,1.0\nA,1.5,5.0\n")
        sp, ep = write_pair(tmp_path, events=events)
        with pytest.raises(CohortValidationError,
                           match=r"events\.csv, line 4: subject 'A': event time 2.5 outside"):
            ingest(sp, ep)

    def test_empty_cohort_names_the_subjects_file(self, tmp_path):
        sp, ep = write_pair(tmp_path, subjects="id,w,x,delta\n", events="id,time,mark\n")
        with pytest.raises(CohortValidationError,
                           match=r"subjects\.csv: cohort must contain at least one subject"):
            ingest(sp, ep)


# subjects files with one value fault each, on line 3, and the cohort's message for it
VALUE_FAULTS = pytest.mark.parametrize(("subjects", "message"), [
    ("id,w,x,delta\nA,0,2.0,1\n,0,3.0,0\n", "subject 1: id must be a non-empty string, got ''"),
    ("id,w,x,delta\nA,0,2.0,1\nA,0,3.0,0\n", "duplicate subject id 'A'"),
    ("id,w,x,delta\nA,0,2.0,1\nB,0,3.0,7\n", "subject 'B': delta must be 0 or 1, got '7'"),
    ("id,w,x,delta\nA,0,2.0,1\nB,5,3.0,1\n", "subject 'B': truncation exceeds observation time"),
], ids=["empty-id", "duplicate-id", "delta", "w-above-x"])


class TestErrorOrder:
    """Format faults of either file come first, in file order; the value
    faults of the cohort come after them, in subject order."""

    @VALUE_FAULTS
    def test_an_unknown_event_id_comes_before_any_value_fault(self, tmp_path, subjects, message):
        sp, ep = write_pair(tmp_path, subjects=subjects, events=EVENTS_OF_A + "Z,1.0,1.0\n")
        with pytest.raises(IngestError, match=r"events\.csv, line 3: unknown subject id 'Z'$"):
            ingest(sp, ep)

    @VALUE_FAULTS
    def test_a_value_fault_names_its_subjects_line(self, tmp_path, subjects, message):
        sp, ep = write_pair(tmp_path, subjects=subjects, events=EVENTS_OF_A)
        with pytest.raises(CohortValidationError, match=rf"subjects\.csv, line 3: {message}"):
            ingest(sp, ep)


def same_cohort(a, b):
    """The two cohorts' columns are equal bit for bit."""
    assert a.ids.tolist() == b.ids.tolist()
    for name in ("w", "x", "delta", "ptr", "time", "mark"):
        assert getattr(a, name).dtype == getattr(b, name).dtype
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name


class TestReadPaths:
    def test_ids_that_need_quoting_round_trip(self, tmp_path):
        ids = ["a,b", 'q"x', "line\nbreak", "cr\r\nlf", " pad "]
        cohort = validate_cohort([
            SubjectRecord(sid, 0.0, 1.0 + i, 1, (ProcessEvent(0.5 + i, 1.0 + i),))
            for i, sid in enumerate(ids)
        ])
        sp, ep = tmp_path / "s.csv", tmp_path / "e.csv"
        write_cohort(cohort, sp, ep)
        back = ingest(sp, ep)
        assert back.ids.tolist() == ids
        same_cohort(back, cohort)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000), quote_events=st.booleans(), crlf=st.booleans(),
           blanks=st.lists(st.integers(1, 30), max_size=3))
    def test_plain_and_quoted_files_read_the_same(self, seed, quote_events, crlf, blanks):
        cohort = random_cohort(seed, n=int(seed % 30) + 1)
        with tempfile.TemporaryDirectory() as tmp:
            sp, ep = Path(tmp, "s.csv"), Path(tmp, "e.csv")
            write_cohort(cohort, sp, ep)
            texts = {}
            for path in (sp, ep):
                lines = path.read_text().splitlines()
                for at in blanks:
                    lines.insert(min(at, len(lines)), "")
                texts[path] = ("\r\n" if crlf else "\n").join(lines) + "\n"
            for path, text in texts.items():
                path.write_text(text, newline="")
            plain = ingest(sp, ep)
            quoted = ep if quote_events else sp
            quoted.write_text(quote_first_id(texts[quoted]), newline="")
            same_cohort(ingest(sp, ep), plain)
        same_cohort(plain, cohort)


# spellings that Python's float reads, and spellings that it rejects:
# underscores, other scripts' digits, blanks and a newline around the
# digits, words, signs, a hex float, a decimal comma, a minus sign (U+2212)
READ_BY_FLOAT = ["1_0", "\u0661\u0662", " 1.5 ", "1.5\n", "Infinity", "nan", "+1.5", "1e5"]
REJECTED_BY_FLOAT = ["0x1p3", "1,5", "\u22121", "1__0", ""]


def outcome(sp, ep):
    """The cohort that ingest reads, or the type and message of its error."""
    try:
        return ingest(sp, ep)
    except (IngestError, CohortValidationError) as err:
        return type(err), str(err)


class TestNumberSpellings:
    """A float column is parsed as Python's float parses each of its fields,
    written plain where it can be and quoted."""

    @pytest.mark.parametrize("column", ["w", "x", "time", "mark"])
    @pytest.mark.parametrize("spelling", READ_BY_FLOAT + REJECTED_BY_FLOAT)
    def test_a_field_reads_as_float_reads_it(self, tmp_path, column, spelling):
        def files(field):
            row = {"w": "0", "x": "1e6", "time": "1.0", "mark": "1.0", column: field}
            return write_pair(tmp_path, subjects=f"id,w,x,delta\nA,0,2.0,1\n"
                                                 f"Z,{row['w']},{row['x']},0\n",
                              events=f"id,time,mark\nA,1.5,5.0\nZ,{row['time']},{row['mark']}\n")

        fields = [f'"{spelling}"'] + ([spelling] if not {",", "\n"} & set(spelling) else [])
        for field in fields:
            got = outcome(*files(field))
            try:
                value = float(spelling)
            except ValueError:
                path = "subjects" if column in ("w", "x") else "events"
                assert got == (IngestError, f"{tmp_path / path}.csv, line 3: column "
                                            f"{column!r} is not a number: {spelling!r}")
                continue
            expected = outcome(*files(repr(value)))
            if isinstance(expected, tuple):  # a non-finite value, on the same line
                assert got == expected
            else:
                same_cohort(got, expected)


class TestFastPaths:
    """A plain file is read, and every output written, without the csv module."""

    @staticmethod
    def boom(*args, **kwargs):
        raise AssertionError("csv module used")

    @pytest.fixture
    def no_csv(self, monkeypatch):
        monkeypatch.setattr(backproc.io.csv, "reader", self.boom)
        monkeypatch.setattr(backproc.io.csv, "writer", self.boom)

    def test_plain_ingest_and_write_rows_skip_csv(self, tmp_path, no_csv):
        cohort = ingest(*write_pair(tmp_path))
        assert cohort.n == 3
        write_rows(tmp_path / "o.csv", {"u": np.array([0.0, 0.1])})

    def test_nul_in_an_id_is_read_plain_as_csv_reads_it(self, tmp_path, monkeypatch):
        subjects = SUBJECTS.replace("B,", "B\0b,")
        sp, ep = write_pair(tmp_path, subjects=subjects)
        # csv.reader reads a NUL as an ordinary character from Python 3.11 on
        expected = backproc.io._read_csv(sp, subjects, ["id", "w", "x", "delta"])[0][0]
        monkeypatch.setattr(backproc.io, "_read_csv", self.boom)
        assert ingest(sp, ep).ids.tolist() == list(expected) == ["A", "B\0b", "C"]

    def test_quoted_file_goes_through_csv(self, tmp_path, no_csv):
        sp, ep = write_pair(tmp_path, subjects=quote_first_id(SUBJECTS))
        with pytest.raises(AssertionError, match="csv module used"):
            ingest(sp, ep)

    @given(rows=st.integers(0, 5).flatmap(lambda n: st.lists(
        st.lists(st.floats(), min_size=n, max_size=n), min_size=1, max_size=3)))
    @example(rows=[[-0.0, float("inf"), float("-inf"), float("nan"), 5e-324, 1e16, 1e-5]])
    @example(rows=[[], []])
    def test_write_rows_bytes_are_csv_writers(self, rows):
        names = [f"c{j}" for j in range(len(rows))]
        expected = io.StringIO(newline="")
        writer = csv.writer(expected)
        writer.writerow(names)
        writer.writerows([list(map(repr, row)) for row in zip(*rows)])
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp, "o.csv")
            write_rows(out, dict(zip(names, rows)))
            assert out.read_bytes() == expected.getvalue().encode()
