import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from backproc import (
    ProcessEvent,
    SubjectRecord,
    product_limit,
    survival_at,
    validate_cohort,
)
from backproc.survival import risk_at

from conftest import random_cohort


@pytest.fixture
def trio():
    # subjects (w, x, delta): (0,2,1), (0,3,0), (0,1.5,1)
    return validate_cohort(
        [
            SubjectRecord(id="A", w=0.0, x=2.0, delta=1),
            SubjectRecord(id="B", w=0.0, x=3.0, delta=0),
            SubjectRecord(id="C", w=0.0, x=1.5, delta=1),
        ]
    )


class TestRiskSet:
    def test_hand_values(self, trio):
        assert risk_at(trio, 1.5) == pytest.approx(1.0)
        assert risk_at(trio, 2.0) == pytest.approx(2 / 3)
        assert risk_at(trio, 3.5) == pytest.approx(0.0)

    def test_truncation_excludes_not_yet_entered(self):
        c = validate_cohort(
            [
                SubjectRecord(id="p", w=2.0, x=4.0, delta=1),
                SubjectRecord(id="i", w=0.0, x=3.0, delta=1),
            ]
        )
        assert risk_at(c, 1.5) == pytest.approx(0.5)
        assert risk_at(c, 2.0) == pytest.approx(1.0)

    def test_vectorized_matches_scalar(self, trio):
        ts = np.array([0.0, 1.5, 2.0, 2.5, 3.0, 3.5])
        assert risk_at(trio, ts) == pytest.approx([risk_at(trio, float(t)) for t in ts])


class TestProductLimit:
    def test_hand_curve(self, trio):
        curve = product_limit(trio)
        assert list(curve.event_times) == [1.5, 2.0]
        assert curve.s_left == pytest.approx([1.0, 2 / 3])
        assert curve.jump == pytest.approx([1 / 3, 1 / 2])
        assert curve.cum_hazard == pytest.approx([1 / 3, 1 / 3 + 1 / 2])

    def test_left_continuous_lookup(self, trio):
        curve = product_limit(trio)
        # S_hat(t) = P_hat(T >= t): the value AT an event time is the left limit
        assert survival_at(curve, 1.5) == pytest.approx(1.0)
        assert survival_at(curve, 2.0) == pytest.approx(2 / 3)
        assert survival_at(curve, 2.0 + 1e-12) == pytest.approx(1 / 3)
        assert survival_at(curve, 4.0) == pytest.approx(1 / 3)
        assert survival_at(curve, 0.0) == pytest.approx(1.0)

    def test_nan_time_raises(self, trio):
        curve = product_limit(trio)
        with pytest.raises(ValueError, match="t must not be NaN"):
            survival_at(curve, float("nan"))
        with pytest.raises(ValueError, match="t must not be NaN"):
            survival_at(curve, np.array([1.0, np.nan]))

    def test_jump_identity(self, trio):
        # value after each failure = value at it times (1 - discrete hazard)
        curve = product_limit(trio)
        after = survival_at(curve, curve.event_times + 1e-12)
        assert after == pytest.approx(curve.s_left * (1 - curve.jump), rel=1e-12)

    def test_no_events_raises(self):
        c = validate_cohort([SubjectRecord(id="c", w=0.0, x=1.0, delta=0)])
        with pytest.raises(ValueError):
            product_limit(c)

    def test_complete_data_reduces_to_empirical(self):
        cohort = random_cohort(3, censor=False, truncate=False)
        curve = product_limit(cohort)
        x = cohort.x
        for t in np.concatenate([curve.event_times, curve.event_times + 1e-9, [0.0]]):
            assert survival_at(curve, float(t)) == pytest.approx(
                np.mean(x >= t), rel=1e-12
            )

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_monotone_and_bounded(self, seed):
        cohort = random_cohort(seed)
        curve = product_limit(cohort)
        steps = curve._s_steps
        assert np.all(steps[1:] <= steps[:-1] + 1e-15)
        assert np.all((steps >= -1e-15) & (steps <= 1 + 1e-15))
        assert np.all(np.diff(curve.cum_hazard) >= -1e-15)

    def test_tied_failures_grouped(self):
        c = validate_cohort(
            [
                SubjectRecord(id="a", w=0.0, x=2.0, delta=1),
                SubjectRecord(id="b", w=0.0, x=2.0, delta=1),
                SubjectRecord(id="c", w=0.0, x=5.0, delta=1),
            ]
        )
        curve = product_limit(c)
        assert list(curve.event_times) == [2.0, 5.0]
        assert survival_at(curve, 2.0 + 1e-12) == pytest.approx(1 / 3)

    def test_events_do_not_affect_survival(self):
        bare = validate_cohort([SubjectRecord(id="a", w=0.0, x=2.0, delta=1)])
        marked = validate_cohort(
            [SubjectRecord(id="a", w=0.0, x=2.0, delta=1, events=(ProcessEvent(1.0, 9.0),))]
        )
        assert survival_at(product_limit(bare), 3.0) == survival_at(
            product_limit(marked), 3.0
        )
