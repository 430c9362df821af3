import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from backproc import (
    CohortValidationError,
    EstimandWindow,
    ProcessEvent,
    SubjectRecord,
    apply_prevalent_shift,
    validate_cohort,
)

from conftest import random_cohort
from reference import backward_value


def subj(id="s", w=0.0, x=2.0, delta=1, events=()):
    return SubjectRecord(id=id, w=w, x=x, delta=delta, events=tuple(events))


class TestValidation:
    def test_accepts_well_formed(self):
        c = validate_cohort([subj(), subj(id="t", delta=0)])
        assert c.n == 2
        assert list(c.event_times) == [2.0]

    def test_rejects_empty(self):
        with pytest.raises(CohortValidationError):
            validate_cohort([])

    def test_rejects_w_greater_than_x(self):
        with pytest.raises(CohortValidationError, match="truncation exceeds"):
            validate_cohort([subj(w=3.0, x=2.0)])

    def test_rejects_negative_w(self):
        with pytest.raises(CohortValidationError, match="negative truncation"):
            validate_cohort([subj(w=-0.1)])

    def test_rejects_event_outside_observation(self):
        with pytest.raises(CohortValidationError, match="outside observation"):
            validate_cohort([subj(events=[ProcessEvent(2.5, 1.0)])])
        with pytest.raises(CohortValidationError, match="outside observation"):
            validate_cohort([subj(w=1.0, events=[ProcessEvent(0.5, 1.0)])])

    def test_rejects_duplicate_ids(self):
        with pytest.raises(CohortValidationError, match="duplicate"):
            validate_cohort([subj(), subj()])

    def test_rejects_bad_delta(self):
        with pytest.raises(CohortValidationError, match="delta"):
            validate_cohort([subj(delta=2)])

    def test_rejects_non_finite(self):
        with pytest.raises(CohortValidationError):
            validate_cohort([subj(x=math.inf)])
        with pytest.raises(CohortValidationError):
            validate_cohort([subj(events=[ProcessEvent(1.0, math.nan)])])

    def test_error_carries_the_subject_and_event_it_names(self):
        events = [ProcessEvent(0.5, 1.0), ProcessEvent(1.0, -2.0), ProcessEvent(1.5, -3.0)]
        with pytest.raises(CohortValidationError, match="negative mark -2.0") as info:
            validate_cohort([subj(id="a", events=[ProcessEvent(1.0, 1.0)]),
                             subj(id="b", events=events)])
        assert (info.value.subject, info.value.event) == (1, 2)
        with pytest.raises(CohortValidationError, match="truncation exceeds") as info:
            validate_cohort([subj(id="a"), subj(id="b", w=3.0)])
        assert (info.value.subject, info.value.event) == (1, None)
        with pytest.raises(CohortValidationError, match="at least one") as info:
            validate_cohort([])
        assert (info.value.subject, info.value.event) == (None, None)

    def test_event_times_are_distinct_uncensored(self):
        c = validate_cohort(
            [subj(id="a", x=2.0), subj(id="b", x=2.0), subj(id="c", x=1.0, delta=0)]
        )
        assert list(c.event_times) == [2.0]


class TestEstimandWindow:
    def test_valid(self):
        EstimandWindow(t1=1.0, t2=4.0, tau0=1.0)

    @pytest.mark.parametrize(
        "t1,t2,tau0",
        [(1.0, 4.0, 0.0), (1.0, 4.0, 1.5), (4.0, 4.0, 1.0), (4.0, 1.0, 1.0), (1.0, 4.0, -1.0)],
    )
    def test_invalid(self, t1, t2, tau0):
        with pytest.raises(ValueError):
            EstimandWindow(t1=t1, t2=t2, tau0=tau0)


def backward_values(s, grid):
    """V(u) of one uncensored subject at each u of the grid, by the
    reference and by the library on the cohort of that subject alone, whose
    window [x, x + 1) with tau0 = x admits every u in [0, x]."""
    expected = [backward_value(s, u) for u in grid]
    window = EstimandWindow(t1=s.x, t2=s.x + 1.0, tau0=s.x)
    assert validate_cohort([s]).backward_matrix(window, np.array(grid))[0].tolist() == expected
    return expected


class TestBackwardValue:
    def test_closed_window_includes_boundary_event(self):
        s = subj(events=[ProcessEvent(1.0, 3.0)])  # offset exactly 1.0
        assert backward_values(s, [1.0, 0.999]) == [3.0, 0.0]

    def test_mark_at_failure_instant_counts_at_u_zero(self):
        s = subj(events=[ProcessEvent(2.0, 7.0)])
        assert backward_values(s, [0.0]) == [7.0]

    def test_censored_rejected(self):
        with pytest.raises(ValueError, match="censored"):
            backward_value(subj(delta=0), 1.0)

    def test_u_out_of_range(self):
        for u in (-0.5, 2.5):
            with pytest.raises(ValueError):
                backward_values(subj(), [u])
            with pytest.raises(ValueError, match="outside"):
                validate_cohort([subj()]).backward_matrix(
                    EstimandWindow(t1=2.0, t2=3.0, tau0=2.0), np.array([u]))

    def test_no_events_is_zero(self):
        assert backward_values(subj(), [0.0, 1.0]) == [0.0, 0.0]


class TestPrevalentShift:
    def test_incident_unchanged(self):
        c = validate_cohort([subj(id="i", w=0.0, x=5.0)])
        out = apply_prevalent_shift(c, 1.0)
        assert out.subjects[0] == c.subjects[0]

    def test_prevalent_shifted_and_short_followup_dropped(self):
        c = validate_cohort(
            [
                subj(id="keep", w=1.0, x=3.0),
                subj(id="drop", w=1.0, x=1.5),
                subj(id="inc", w=0.0, x=0.5),
            ]
        )
        out = apply_prevalent_shift(c, 1.0)
        ids = [s.id for s in out.subjects]
        assert ids == ["keep", "inc"]
        assert out.subjects[0].w == 2.0

    def test_events_before_shifted_entry_are_kept(self):
        c = validate_cohort([subj(id="p", w=1.0, x=3.0, events=[ProcessEvent(1.2, 5.0)])])
        out = apply_prevalent_shift(c, 1.0)
        assert out.subjects[0].events == (ProcessEvent(1.2, 5.0),)
        assert out.subjects[0].w == 2.0

    def test_all_dropped_raises(self):
        c = validate_cohort([subj(id="p", w=1.0, x=1.5)])
        with pytest.raises(CohortValidationError):
            apply_prevalent_shift(c, 1.0)

    def test_bad_tau0(self):
        c = validate_cohort([subj()])
        with pytest.raises(ValueError):
            apply_prevalent_shift(c, 0.0)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10_000), tau0=st.sampled_from([0.1, 0.5, 1.0, 2.5]))
    def test_shifted_cohort_keeps_the_cohort_invariants(self, seed, tau0):
        # the invariants that validation checks: the shift builds its cohort
        # from the parent's columns without running the checks again
        out = apply_prevalent_shift(random_cohort(seed), tau0)
        for name in ("ids", "w", "x", "delta", "ptr", "time", "mark", "event_times"):
            assert not getattr(out, name).flags.writeable, name
        assert len(set(out.ids.tolist())) == out.n
        assert np.all((out.w >= 0) & (out.w <= out.x))
        assert out.ptr[0] == 0 and out.ptr[-1] == out.time.size
        assert np.all(np.diff(out.ptr) >= 0)
        assert np.all(out.time <= out.x[out.owner])
        assert np.all(np.isfinite(out.mark) & (out.mark >= 0))
        assert out.delta.dtype == np.int64 and set(out.delta.tolist()) <= {0, 1}
        assert out.event_times.tolist() == np.unique(out.x[out.delta == 1]).tolist()
