"""The columnar cohort against per-record definitions.

Backward values from the segmented pass against per-subject
``reference.backward_value`` sums; the columnar generator and prevalent
shift against the per-object builders they replaced (``reference.py``);
the vectorized validator's messages; and a guard that no study replicate or
analyst command builds per-event objects.
"""

import collections
import math
import re

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

import backproc
from backproc import (
    Cohort,
    CohortValidationError,
    EstimandWindow,
    InputContractError,
    ProcessEvent,
    SimConfig,
    SubjectRecord,
    apply_prevalent_shift,
    default_grid,
    generate_cohort,
    ingest,
    run_study,
    validate_cohort,
    write_cohort,
)
from backproc.backward import WindowEngine
from backproc.cli import main

from conftest import random_cohort
from reference import (
    DYADIC_MARKS,
    edge_cases,
    old_generate,
    old_shift,
    reference_default_grid,
    reference_in_window,
    reference_v,
)

WINDOW = EstimandWindow(t1=1.0, t2=8.0, tau0=1.0)
# the segmented pass sums a subject's marks in another order than a direct
# sum; a few dozen float64 terms stay well within this
RTOL = 64 * np.finfo(float).eps


@pytest.fixture
def edge_cohort():
    """Events exactly u before failure, at the failure instant, at w, with
    zero marks; failures at t1 (in) and t2 (out); one censored subject."""
    return validate_cohort(
        [
            SubjectRecord(id="A", w=2.0, x=3.0, delta=1, events=(
                ProcessEvent(2.0, 1.0),    # at w, offset exactly 1.0
                ProcessEvent(2.5, 0.0),    # zero mark, offset 0.5
                ProcessEvent(3.0, 4.0),    # at the failure instant
            )),
            SubjectRecord(id="B", w=0.0, x=2.0, delta=1, events=(
                ProcessEvent(0.5, 8.0),    # offset 1.5, beyond tau0
                ProcessEvent(1.25, 2.0),   # offset exactly 0.75
                ProcessEvent(1.5, 0.5),    # offset exactly 0.5
            )),
            SubjectRecord(id="C", w=0.0, x=5.0, delta=0, events=(ProcessEvent(4.5, 16.0),)),
            SubjectRecord(id="D", w=0.0, x=8.0, delta=1, events=(ProcessEvent(7.5, 32.0),)),
            SubjectRecord(id="E", w=0.0, x=1.0, delta=1, events=(ProcessEvent(0.0, 0.25),)),
            SubjectRecord(id="F", w=0.0, x=6.0, delta=1),
        ]
    )


class TestBackwardMatrix:
    def test_hand_fixture_unsorted_grid_with_ties(self, edge_cohort):
        grid = np.array([1.0, 0.0, 0.75, 0.5, 0.75, 0.25, 1.0, 0.4999])
        eng = WindowEngine(edge_cohort, WINDOW)
        assert [edge_cohort.ids[i] for i in eng.in_window] == ["A", "B", "E", "F"]
        v = eng.v_matrix(grid)
        assert v.tolist() == [
            [5.0, 4.0, 4.0, 4.0, 4.0, 4.0, 5.0, 4.0],   # A
            [2.5, 0.0, 2.5, 0.5, 2.5, 0.0, 2.5, 0.0],   # B
            [0.25, 0.0, 0.0, 0.0, 0.0, 0.0, 0.25, 0.0],  # E
            [0.0] * 8,                                   # F
        ]
        assert np.array_equal(v, reference_v(edge_cohort, eng.in_window, grid))

    def test_empty_grid_and_no_rows(self, edge_cohort):
        assert edge_cohort.backward_matrix(WINDOW, np.array([])).shape == (4, 0)
        # C, the only subject with x in [4, 5.5), is censored
        empty = EstimandWindow(t1=4.0, t2=5.5, tau0=1.0)
        assert edge_cohort.backward_matrix(empty, [0.5]).shape == (0, 1)

    @pytest.mark.parametrize("u", [-0.25, 1.5, math.nan])
    def test_u_outside_the_horizon_rejected(self, edge_cohort, u):
        with pytest.raises(InputContractError, match=r"outside \[0, tau0=1.0\]"):
            edge_cohort.backward_matrix(WINDOW, [0.5, u])

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("shift", [False, True])
    def test_random_cohorts_match_per_record_sums(self, seed, shift):
        cohort = random_cohort(seed, n=60, max_events=8)
        if shift:
            cohort = apply_prevalent_shift(cohort, WINDOW.tau0)
        eng = WindowEngine(cohort, WINDOW)
        assert eng.in_window.tolist() == reference_in_window(cohort, WINDOW)
        grid = default_grid(cohort, WINDOW)
        rng = np.random.default_rng(seed)
        shuffled = rng.permutation(np.concatenate([grid, grid[::3]]))
        for g in (grid, shuffled):
            np.testing.assert_allclose(
                eng.v_matrix(g), reference_v(cohort, eng.in_window, g), rtol=RTOL, atol=0
            )

    @pytest.mark.parametrize("seed", range(5))
    def test_default_grid_matches_offset_set(self, seed):
        cohort = random_cohort(seed, n=60, max_events=8)
        assert default_grid(cohort, WINDOW).tolist() == reference_default_grid(cohort, WINDOW)


class TestTies:
    @settings(max_examples=150, deadline=None)
    @given(case=edge_cases(marks=DYADIC_MARKS))
    def test_backward_matrix_at_ties(self, case):
        # every mark is a small dyadic rational, so every sum is exact
        cohort, window, grid = case
        rows = cohort.in_window(window)
        assert rows.tolist() == reference_in_window(cohort, window)
        assert np.array_equal(cohort.backward_matrix(window, grid),
                              reference_v(cohort, rows, grid))

    @settings(max_examples=100, deadline=None)
    @given(case=edge_cases(), tau0=st.sampled_from([0.5, 1.0]))
    @example(case=(validate_cohort([SubjectRecord(id="p", w=0.5, x=1.0, delta=1)]),), tau0=1.0)
    def test_prevalent_shift_at_ties(self, case, tau0):
        cohort = case[0]
        try:
            expected = old_shift(cohort, tau0)
        except CohortValidationError:
            with pytest.raises(CohortValidationError, match="no subjects remain"):
                apply_prevalent_shift(cohort, tau0)
            return
        assert apply_prevalent_shift(cohort, tau0).subjects == expected


class TestAgainstPerObjectBuilders:
    @pytest.mark.parametrize("seed", [0, 1, 7, 12345, 2**40])
    def test_generate_cohort(self, seed):
        config = SimConfig(n=150, oracle_n=1000)
        assert generate_cohort(config, seed).subjects == old_generate(config, seed)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("tau0", [0.5, 1.0, 3.0])
    def test_prevalent_shift(self, seed, tau0):
        for cohort in (random_cohort(seed, n=60), generate_cohort(SimConfig(n=150), seed)):
            shifted = apply_prevalent_shift(cohort, tau0)
            assert shifted.subjects == old_shift(cohort, tau0)
            assert shifted.event_times.tolist() == sorted(
                {s.x for s in shifted.subjects if s.delta == 1})

    @staticmethod
    def check_subjects_view(cohort):
        # the columns read one subject at a time, with the view's types
        ptr = cohort.ptr.tolist()
        assert len(cohort.subjects) == cohort.n
        for i, s in enumerate(cohort.subjects):
            assert type(s) is SubjectRecord and type(s.events) is tuple
            assert (s.id, s.w, s.x, s.delta) == (cohort.ids[i], cohort.w[i], cohort.x[i],
                                                 cohort.delta[i])
            assert list(map(type, (s.id, s.w, s.x, s.delta))) == [str, float, float, int]
            assert s.events == tuple(ProcessEvent(t, q) for t, q in zip(
                cohort.time[ptr[i]:ptr[i + 1]].tolist(), cohort.mark[ptr[i]:ptr[i + 1]].tolist()))
            for ev in s.events:
                assert type(ev) is ProcessEvent and type(ev.time) is type(ev.mark) is float

    @settings(max_examples=50, deadline=None)
    @given(case=edge_cases())
    def test_subjects_view_of_edge_cohorts(self, case):
        self.check_subjects_view(case[0])

    @pytest.mark.parametrize("n", [1, 2, 50, 400])
    def test_subjects_view_of_generated_cohorts(self, n):
        self.check_subjects_view(generate_cohort(SimConfig(n=n), n))

    def test_subjects_view_round_trips(self):
        cohort = random_cohort(3)
        again = validate_cohort(list(cohort.subjects))
        assert again.subjects == cohort.subjects
        assert cohort.subjects is cohort.subjects  # built once

    def test_columns_are_read_only(self):
        cohort = random_cohort(3)
        with pytest.raises(ValueError):
            cohort.x[0] = 1.0


# ------------------------------------------------------------- the validator


def subj(id, w=0.0, x=2.0, delta=1, events=()):
    return SubjectRecord(id=id, w=w, x=x, delta=delta, events=tuple(events))


class TestValidatorMessages:
    @pytest.mark.parametrize(
        "records, message",
        [
            ([subj("a"), subj("b", w=3.0), subj("c", w=-1.0)],
             "subject 'b': truncation exceeds observation time (w=3.0 > x=2.0)"),
            ([subj("a"), subj("b", w=-1.0), subj("c", w=3.0)],
             "subject 'b': negative truncation time w=-1.0"),
            ([subj("a"), subj("b", x=math.nan), subj("c", delta=2)],
             "subject 'b': non-finite w or x"),
            ([subj("a", events=[ProcessEvent(1.0, 1.0)]), subj("b", delta=2),
              subj("c", events=[ProcessEvent(9.0, 1.0)])],
             "subject 'b': delta must be 0 or 1, got 2"),
            ([subj("a"), subj("b", events=[ProcessEvent(1.0, 1.0), ProcessEvent(2.5, 1.0)])],
             "subject 'b': event time 2.5 outside observation interval [0.0, 2.0]"),
            ([subj("a"), subj("b", events=[ProcessEvent(1.0, math.inf), ProcessEvent(3.0, 1.0)])],
             "subject 'b': non-finite mark at time 1.0"),
            ([subj("a"), subj("b", events=[ProcessEvent(math.nan, 1.0)])],
             "subject 'b': non-finite event time"),
            ([subj("a"), subj("a", w=-1.0)], "duplicate subject id 'a'"),
            ([subj("a", w=-1.0), subj("a")], "subject 'a': negative truncation time w=-1.0"),
        ],
    )
    def test_first_offending_subject_is_named(self, records, message):
        with pytest.raises(CohortValidationError) as err:
            validate_cohort(records)
        assert str(err.value) == message

    def test_negative_mark_rejected(self):
        with pytest.raises(CohortValidationError,
                           match=r"^subject 'n': negative mark -0.5 at time 1.0$"):
            validate_cohort([subj("a"), subj("n", events=[ProcessEvent(1.0, -0.5)])])

    def test_zero_mark_accepted(self):
        assert validate_cohort([subj("z", events=[ProcessEvent(1.0, 0.0)])]).mark.tolist() == [0.0]

    @pytest.mark.parametrize("bad", [True, False, 1.0, 0.0, 2, -1, "1", None])
    def test_non_integer_delta_rejected(self, bad):
        message = f"subject 'd': delta must be 0 or 1, got {bad!r}"
        with pytest.raises(CohortValidationError, match=f"^{re.escape(message)}$"):
            validate_cohort([subj("a"), subj("d", delta=bad)])

    @pytest.mark.parametrize("good", [0, 1, np.int64(1), np.int8(0)])
    def test_integer_delta_accepted(self, good):
        assert validate_cohort([subj("a", delta=good)]).delta.tolist() == [int(good)]

    def test_columnar_bool_or_float_delta_rejected(self):
        cols = dict(ids=["a", "b"], w=[0.0, 0.0], x=[1.0, 2.0], ptr=[0, 0, 0], time=[], mark=[])
        for delta in (np.array([True, False]), np.array([1.0, 0.0])):
            with pytest.raises(CohortValidationError, match="subject 'a': delta"):
                Cohort.from_columns(delta=delta, **cols)
        assert Cohort.from_columns(delta=np.array([1, 0]), **cols).n == 2

    def test_inconsistent_columns_rejected(self):
        with pytest.raises(CohortValidationError, match="column shapes"):
            Cohort.from_columns(["a"], [0.0], [1.0], [1], [0, 2], [0.5], [1.0])

    @pytest.mark.parametrize("first", [float("nan"), float("inf"), 0.0])
    def test_offsets_that_are_not_integers_rejected(self, first):
        # numpy's own conversion of a NaN or inf offset to an index is not
        # an error about the cohort
        with pytest.raises(CohortValidationError, match="column shapes"):
            Cohort.from_columns(["a"], [0.0], [1.0], [1], [first, 1], [0.5], [1.0])

    def test_ingest_rejects_negative_mark(self, tmp_path):
        sp, ep = tmp_path / "s.csv", tmp_path / "e.csv"
        sp.write_text("id,w,x,delta\nA,0,2.0,1\nB,0,3.0,1\n")
        ep.write_text("id,time,mark\nA,1.0,1.0\nB,2.0,-3.0\n")
        with pytest.raises(CohortValidationError, match="subject 'B': negative mark"):
            ingest(sp, ep)


class TestInputContract:
    @pytest.mark.parametrize("grid", [(0.5, 1.5), (-0.1, 0.5), (math.nan,)])
    def test_sim_config_rejects_u_grid_outside_horizon(self, grid):
        with pytest.raises(ValueError, match="u_grid"):
            SimConfig(u_grid=grid)

    def test_sim_config_rejects_an_empty_u_grid(self):
        # the study would run every replicate for an empty table
        with pytest.raises(ValueError, match="u_grid must hold at least one"):
            SimConfig(u_grid=())

    def test_sim_config_accepts_horizon_ends(self):
        assert SimConfig(u_grid=(0.0, 1.0)).u_grid == (0.0, 1.0)

    def test_no_uncensored_events_is_a_validation_error(self):
        cohort = validate_cohort([subj("a", delta=0)])
        with pytest.raises(CohortValidationError, match="no uncensored events"):
            backproc.product_limit(cohort)


class TestIngestColumns:
    def test_events_sorted_stably_by_time(self, tmp_path):
        sp, ep = tmp_path / "s.csv", tmp_path / "e.csv"
        sp.write_text("id,w,x,delta\nA,0,3.0,1\nB,0,3.0,0\n")
        ep.write_text("id,time,mark\nB,2.0,1.0\nA,2.0,5.0\nA,1.0,2.0\nA,2.0,3.0\n")
        cohort = ingest(sp, ep)
        assert cohort.ptr.tolist() == [0, 3, 4]
        assert cohort.time.tolist() == [1.0, 2.0, 2.0, 2.0]
        assert cohort.mark.tolist() == [2.0, 5.0, 3.0, 1.0]

    def test_wrong_field_count_names_line(self, tmp_path):
        sp, ep = tmp_path / "s.csv", tmp_path / "e.csv"
        sp.write_text("id,w,x,delta\nA,0,3.0,1\n")
        ep.write_text("id,time,mark\nA,1.0,1.0\nA,2.0\n")
        with pytest.raises(backproc.IngestError, match=r"e\.csv, line 3: expected 3 fields"):
            ingest(sp, ep)


# ---------------------------------------------------- no per-object building


def count_constructions(monkeypatch):
    """Count SubjectRecord/ProcessEvent constructions."""
    counts = collections.Counter()
    for cls in (SubjectRecord, ProcessEvent):
        def counting_init(self, *args, _init=cls.__init__, _name=cls.__name__, **kwargs):
            counts[_name] += 1
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting_init)
    return counts


ANALYST_COMMANDS = [
    ["survival"],
    ["mean", "--t1", "1", "--t2", "8", "--tau0", "1"],
    ["bands", "--t1", "1", "--t2", "8", "--tau0", "1", "--band-reps", "200", "--seed", "7"],
    ["dist", "--t1", "1", "--t2", "8", "--tau0", "1", "--u", "1.0"],
    ["quantile", "--t1", "1", "--t2", "8", "--tau0", "1", "--q", "0.5"],
    ["rate", "--t1", "1", "--t2", "8", "--tau0", "1", "--bandwidth", "0.2"],
    ["rate", "--t1", "1", "--t2", "8", "--tau0", "1", "--bandwidth-grid", "0.1,0.2"],
    ["forward-mean"],
]


class TestNoPerObjectBuilding:
    def test_counters_see_per_object_work(self, monkeypatch):
        counts = count_constructions(monkeypatch)
        cohort = generate_cohort(SimConfig(n=50), 1)
        assert dict(counts) == {}
        cohort.subjects  # the per-object view
        assert counts["SubjectRecord"] == 50
        assert counts["ProcessEvent"] == cohort.time.size > 0

    def test_study(self, monkeypatch):
        counts = count_constructions(monkeypatch)
        run_study(SimConfig(n=100, reps=3, oracle_n=10_000))
        assert dict(counts) == {}

    @pytest.mark.parametrize("args", ANALYST_COMMANDS, ids=lambda a: "-".join(a[:1] + a[-1:]))
    def test_analyst_command(self, args, tmp_path, monkeypatch):
        sp, ep = tmp_path / "s.csv", tmp_path / "e.csv"
        write_cohort(generate_cohort(SimConfig(n=200), 3), sp, ep)
        counts = count_constructions(monkeypatch)
        res = CliRunner().invoke(
            main, [args[0], "--subjects", str(sp), "--events", str(ep), *args[1:],
                   "--out", str(tmp_path / "out.csv")],
            catch_exceptions=False,
        )
        assert res.exit_code == 0, res.output
        assert dict(counts) == {}
