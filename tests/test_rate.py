import numpy as np
import pytest

from backproc import (
    EstimandWindow,
    KernelSpec,
    ProcessEvent,
    SubjectRecord,
    backward_rate,
    select_bandwidth,
    validate_cohort,
    weighted_sample,
)
from backproc.rate import KERNELS

from conftest import random_cohort
from reference import subject_rate


class TestKernels:
    @pytest.mark.parametrize("name", sorted(KERNELS))
    def test_integrates_to_one(self, name):
        # 2e-4 slack: the trapezoid rule overshoots at the box kernel's jumps
        z = np.linspace(-2, 2, 40001)
        assert np.trapezoid(KERNELS[name](z), z) == pytest.approx(1.0, abs=2e-4)

    @pytest.mark.parametrize("name", sorted(KERNELS))
    def test_symmetric_nonnegative(self, name):
        z = np.linspace(-2, 2, 101)
        vals = KERNELS[name](z)
        assert np.all(vals >= 0)
        assert vals == pytest.approx(KERNELS[name](-z), abs=0)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            KernelSpec(kernel="gauss")
        for h, message in ((0.0, r"^bandwidth must be in \(0, inf\), got 0\.0$"),
                           (float("nan"), "^bandwidth must not be NaN$"),
                           (float("inf"), r"^bandwidth must be in \(0, inf\), got inf$")):
            with pytest.raises(ValueError, match=message):
                KernelSpec(bandwidth=h)


def rates(s, u, spec, tau0=1.0):
    """The subject's kernel rate at u by the reference, checked against the
    library's backward_rate on the cohort of that subject alone, whose
    weight is 1."""
    expected = subject_rate(s, u, spec, tau0)
    window = EstimandWindow(t1=tau0, t2=s.x + 1.0, tau0=tau0)
    assert backward_rate(validate_cohort([s]), window, u, spec) == \
        pytest.approx(expected, rel=1e-12, abs=0)
    return expected


class TestSubjectRate:
    def test_box_kernel_closed_form(self):
        # box kernel: rate = (sum of marks within h/2 of u) / h
        s = SubjectRecord(
            id="s", w=0.0, x=2.0, delta=1,
            events=(ProcessEvent(1.9, 3.0), ProcessEvent(1.5, 7.0)),  # offsets 0.1, 0.5
        )
        spec = KernelSpec(kernel="box", bandwidth=0.4)
        assert rates(s, 0.2, spec) == pytest.approx(3.0 / 0.4, rel=1e-12)
        assert rates(s, 0.45, spec) == pytest.approx(7.0 / 0.4, rel=1e-12)
        assert rates(s, 0.9, spec) == pytest.approx(0.0, abs=0)

    def test_censored_rejected(self):
        s = SubjectRecord(id="s", w=0.0, x=2.0, delta=0)
        with pytest.raises(ValueError, match="censored"):
            subject_rate(s, 0.5, KernelSpec(), 1.0)

    def test_u_outside_horizon(self):
        s = SubjectRecord(id="s", w=0.0, x=2.0, delta=1)
        for u in (1.5, -0.1, float("nan")):
            with pytest.raises(ValueError):
                subject_rate(s, u, KernelSpec(), 1.0)
            with pytest.raises(ValueError, match="outside"):
                backward_rate(validate_cohort([s]), EstimandWindow(1.0, 3.0, 1.0), u,
                              KernelSpec())

    def test_offsets_beyond_tau0_ignored(self):
        s = SubjectRecord(
            id="s", w=0.0, x=3.0, delta=1, events=(ProcessEvent(0.5, 100.0),)  # offset 2.5
        )
        assert rates(s, 1.0, KernelSpec(kernel="box", bandwidth=5.0)) == 0.0


class TestBackwardRate:
    def test_complete_data_reduction(self, property_window):
        cohort = random_cohort(5, censor=False, truncate=False)
        spec = KernelSpec(kernel="epanechnikov", bandwidth=0.3)
        in_win = [
            s for s in cohort.subjects if property_window.t1 <= s.x < property_window.t2
        ]
        u = np.array([0.25, 0.5, 0.75])
        expected = np.mean(
            [subject_rate(s, u, spec, property_window.tau0) for s in in_win], axis=0
        )
        got = backward_rate(cohort, property_window, u, spec)
        assert got == pytest.approx(expected, rel=1e-10)

    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    @pytest.mark.parametrize("h", [0.15, 0.4])
    def test_convolution_identity(self, kernel, h, property_window):
        # r_hat equals the kernel smoothing of the backward mean curve's jumps,
        # computed here independently from the weighted sample
        cohort = random_cohort(14)
        spec = KernelSpec(kernel=kernel, bandwidth=h)
        ws = weighted_sample(cohort, property_window, property_window.tau0)
        jumps: dict[float, float] = {}
        eng_weights = ws.weights / ws.normalizer
        in_win = [
            s
            for s in cohort.subjects
            if s.delta == 1 and property_window.t1 <= s.x < property_window.t2
        ]
        assert len(in_win) == ws.values.size
        for s, omega in zip(in_win, eng_weights):
            for ev in s.events:
                off = s.x - ev.time
                if 0 <= off <= property_window.tau0:
                    jumps[off] = jumps.get(off, 0.0) + omega * ev.mark
        u = np.linspace(0, property_window.tau0, 23)
        offs = np.array(sorted(jumps))
        mass = np.array([jumps[o] for o in offs])
        smoothed = (spec((u[:, None] - offs[None, :]) / h) @ mass) / h
        got = backward_rate(cohort, property_window, u, spec)
        assert got == pytest.approx(smoothed, rel=1e-10, abs=1e-12)


class TestBandwidthSelection:
    def test_returns_candidate_and_tie_breaks_small(self, property_window):
        cohort = random_cohort(3)
        h = select_bandwidth(cohort, property_window, "epanechnikov", [0.2, 0.2, 0.4])
        assert h in (0.2, 0.4)
        # duplicate candidates: ties resolve to the first (smallest) strictly better
        h2 = select_bandwidth(cohort, property_window, "epanechnikov", [0.4, 0.2, 0.2])
        assert h2 == h

    @pytest.mark.parametrize("kernel, candidates", [
        ("box", []),
        ("epanechnikov", [0.0, 0.1]),
        ("epanechnikov", [-0.1, 0.1]),
        ("epanechnikov", [float("nan"), 0.1]),
        ("epanechnikov", [float("inf")]),
        ("gauss", [0.1]),
    ], ids=["empty", "zero", "negative", "nan", "inf", "unknown-kernel"])
    def test_invalid_candidates(self, property_window, kernel, candidates):
        # each candidate must make a valid KernelSpec; none is fitted otherwise
        cohort = random_cohort(3)
        with pytest.raises(ValueError):
            select_bandwidth(cohort, property_window, kernel, candidates)

    def test_prefers_informative_bandwidth(self, property_window):
        # with many events, an absurdly wide bandwidth flattens the estimate
        # and should lose to a moderate one
        cohort = random_cohort(17, n=60, max_events=8)
        h = select_bandwidth(
            cohort, property_window, "epanechnikov", [0.1, 0.2, 0.3, 50.0]
        )
        assert h < 50.0
