import numpy as np
import pytest

from backproc import (
    ProcessEvent,
    SubjectRecord,
    forward_mean,
    forward_mean_curve,
    validate_cohort,
)

from conftest import random_cohort


class TestForwardMean:
    def test_complete_data_reduction(self):
        cohort = random_cohort(2, censor=False, truncate=False)
        for t in (0.5, 1.5, 4.0):
            expected = np.mean(
                [
                    sum(ev.mark for ev in s.events if ev.time <= t)
                    for s in cohort.subjects
                ]
            )
            assert forward_mean(cohort, t) == pytest.approx(expected, rel=1e-10)

    def test_zero_before_first_event(self):
        cohort = validate_cohort(
            [SubjectRecord(id="a", w=0.0, x=3.0, delta=1, events=(ProcessEvent(2.0, 5.0),))]
        )
        assert forward_mean(cohort, 1.0) == 0.0
        assert forward_mean(cohort, 2.0) == pytest.approx(5.0)

    def test_negative_time_rejected(self):
        cohort = random_cohort(2)
        # a NaN t is refused by the reader of every number, before the range check
        for t, message in ((-1.0, r"^t must be in \[0, inf\], got -1\.0$"),
                           (float("nan"), "^t must not be NaN$")):
            with pytest.raises(ValueError, match=message):
                forward_mean(cohort, t)

    def test_monotone_for_nonnegative_marks(self):
        cohort = random_cohort(6)
        times, values = forward_mean_curve(cohort)
        assert times[0] == 0.0
        assert np.all(np.diff(values) >= -1e-12)

    def test_curve_grid_is_lossless(self):
        cohort = random_cohort(6)
        times, values = forward_mean_curve(cohort)
        # between grid points the estimate is constant
        for t, v in zip(times, values):
            assert forward_mean(cohort, float(t) + 1e-9) == pytest.approx(
                v, rel=1e-10, abs=1e-12
            )
