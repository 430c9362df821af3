import numpy as np
import pytest

from backproc import IngestError, ingest, write_cohort
from backproc.io import write_rows
from backproc.model import CohortValidationError

from conftest import random_cohort

SUBJECTS = "id,w,x,delta\nA,0,2.0,1\nB,0,3.0,0\nC,0,1.5,1\n"
EVENTS = "id,time,mark\nA,1.5,5.0\nC,0.5,2.0\n"


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

    def test_bad_subject_header(self, tmp_path):
        sp, ep = write_pair(tmp_path, subjects="id,entry,x,delta\nA,0,2,1\n")
        with pytest.raises(IngestError, match="header"):
            ingest(sp, ep)

    def test_bad_event_header(self, tmp_path):
        sp, ep = write_pair(tmp_path, events="id,t,mark\nA,1.5,5\n")
        with pytest.raises(IngestError, match="header"):
            ingest(sp, ep)

    def test_bad_delta_reports_line(self, tmp_path):
        sp, ep = write_pair(tmp_path, subjects="id,w,x,delta\nA,0,2.0,1\nB,0,3.0,2\n")
        with pytest.raises(IngestError, match="line 3"):
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
        sp, ep = write_pair(tmp_path, subjects="id,w,x,delta\nA,0,2.0,1\nA,0,3.0,0\n")
        with pytest.raises(IngestError, match="duplicate"):
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
