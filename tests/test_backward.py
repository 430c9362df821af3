import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from backproc import (
    DegenerateWindowError,
    EstimandWindow,
    ProcessEvent,
    SubjectRecord,
    backward_curve,
    backward_mean,
    covariance,
    default_grid,
    pointwise_ci,
    product_limit,
    survival_at,
    validate_cohort,
)
from backproc.backward import WindowEngine

from conftest import lone_failure_cohort, random_cohort, reordered_marks_cohort
from reference import (
    backward_value,
    dense_risk,
    edge_cases,
    flat_columns,
    reference_fit,
    reference_v,
)

GRID = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
WINDOW = EstimandWindow(t1=1.0, t2=8.0, tau0=1.0)

# S_hat reaches 0 when a, alone at risk, fails at 2; b enters later and fails
# in the window with weight 0, and V differs between them at every u > 0
SURVIVAL_REACHES_ZERO = validate_cohort([
    SubjectRecord(id="e", w=0.0, x=0.75, delta=1),
    SubjectRecord(id="f", w=0.0, x=0.75, delta=0),
    SubjectRecord(id="g", w=0.0, x=0.5, delta=0),
    SubjectRecord(id="h", w=0.0, x=0.25, delta=0),
    SubjectRecord(id="a", w=0.0, x=2.0, delta=1,
                  events=(ProcessEvent(1.5, 1 / 3), ProcessEvent(1.75, 0.5))),
    SubjectRecord(id="b", w=2.5, x=3.0, delta=1, events=(ProcessEvent(2.75, 2.0),)),
])


class TestHandFixture:
    def test_mean_is_three_point_five(self, censored_fixture, censored_window):
        # numerator 1*2/1 + (2/3)*5/(2/3) = 7; denominator 3*(1 - 1/3) = 2
        assert backward_mean(censored_fixture, censored_window, 1.0) == pytest.approx(
            3.5, abs=1e-12
        )

    def test_psi_by_hand(self, censored_fixture, censored_window):
        # w = c/n = 1/3 for A (x=2, V=5) and C (x=1.5, V=2), D = 2/3, mu = 3.5:
        # psi_A = [(2/3) 5 + 2/3 - 3.5] / ((2/3) (2/3)) = 1.125,
        # psi_C = [2 + 0 - 3.5] / (2/3) = -2.25
        eng = WindowEngine(censored_fixture, censored_window)
        mu, psi = eng.psi_matrix(censored_fixture.backward_matrix(censored_window, [1.0]))
        assert mu[0] == pytest.approx(3.5, rel=1e-12)
        assert psi[:, 0] == pytest.approx([1.125, -2.25], rel=1e-12)
        # sigma^2 = (1.125^2 + 2.25^2) / 3
        assert (psi.T @ psi / eng.n)[0, 0] == pytest.approx(2.109375, rel=1e-12)

    def test_covariance_symmetric(self, censored_fixture, censored_window):
        assert covariance(censored_fixture, censored_window, 0.6, 1.0) == pytest.approx(
            covariance(censored_fixture, censored_window, 1.0, 0.6), rel=1e-12
        )

    def test_ci_centered_at_estimate(self, censored_fixture, censored_window):
        curve = backward_curve(censored_fixture, censored_window, np.array([1.0]))
        lo, hi = pointwise_ci(curve)
        assert (lo[0] + hi[0]) / 2 == pytest.approx(3.5, rel=1e-12)


class TestExactIdentities:
    @pytest.mark.parametrize("seed", [0, 1, 2, 7, 11])
    def test_normalization_identity(self, seed, property_window):
        # weights S_hat(x_i)/R(x_i) over in-window subjects sum to n * D exactly
        cohort = random_cohort(seed)
        eng = WindowEngine(cohort, property_window)
        assert np.sum(eng.c_in) == pytest.approx(eng.n * eng.d, rel=1e-10)

    @pytest.mark.parametrize("seed", [0, 3, 5])
    def test_complete_data_reduction(self, seed, property_window):
        cohort = random_cohort(seed, censor=False, truncate=False)
        for u in (0.0, 0.5, 1.0):
            vals = [backward_value(s, u) for s in cohort.subjects
                    if property_window.t1 <= s.x < property_window.t2]
            assert backward_mean(cohort, property_window, u) == pytest.approx(
                np.mean(vals), rel=1e-10
            )

    @pytest.mark.parametrize("seed", [0, 4, 9])
    def test_window_additivity(self, seed):
        # D_{13} mu_{13} = D_{12} mu_{12} + D_{23} mu_{23}
        cohort = random_cohort(seed)
        curve = product_limit(cohort)
        t1, t2, t3 = 1.0, 2.5, 8.0
        for u in (0.3, 1.0):
            parts = []
            for a, b in ((t1, t3), (t1, t2), (t2, t3)):
                win = EstimandWindow(t1=a, t2=b, tau0=1.0)
                d = survival_at(curve, a) - survival_at(curve, b)
                mu = backward_mean(cohort, win, u) if d > 0 else 0.0
                parts.append(d * mu)
            assert parts[0] == pytest.approx(parts[1] + parts[2], rel=1e-10, abs=1e-12)

    @pytest.mark.parametrize("seed", [0, 6])
    def test_scale_equivariance(self, seed, property_window):
        cohort = random_cohort(seed)
        c = 3.7
        scaled = validate_cohort(
            [
                SubjectRecord(
                    id=s.id,
                    w=s.w,
                    x=s.x,
                    delta=s.delta,
                    events=tuple(ProcessEvent(ev.time, c * ev.mark) for ev in s.events),
                )
                for s in cohort.subjects
            ]
        )
        for u in (0.4, 1.0):
            assert backward_mean(scaled, property_window, u) == pytest.approx(
                c * backward_mean(cohort, property_window, u), rel=1e-10
            )
            assert covariance(scaled, property_window, u, u) == pytest.approx(
                c * c * covariance(cohort, property_window, u, u), rel=1e-10
            )

    @settings(max_examples=100, deadline=None)
    @given(case=edge_cases())
    @example(case=(lone_failure_cohort(), WINDOW, np.array([0.5, 1.0])))
    @example(case=(SURVIVAL_REACHES_ZERO, WINDOW, np.array([0.25, 0.5, 1.0])))
    @example(case=(reordered_marks_cohort(), WINDOW, np.array([0.5, 1.0])))
    def test_sigma_is_zero_exactly_where_v_is_flat(self, case):
        # psi is zero in exact arithmetic where V is the same for every
        # in-window subject of positive weight, and only there; the
        # reference's V sums each subject's marks in another order than the
        # library's, so that the two agree on flatness only up to rounding
        cohort, window, drawn = case
        fit = reference_fit(cohort, window)
        for grid in (drawn, default_grid(cohort, window)):
            flat = flat_columns(cohort, fit, reference_v(cohort, fit.in_window, grid))
            sigma = backward_curve(cohort, window, grid).sigma
            assert np.all(sigma[flat] == 0) and np.all(sigma[~flat] > 0)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_gram_covariance_psd(self, seed):
        cohort = random_cohort(seed)
        rng = np.random.default_rng(seed + 1)
        grid = np.sort(rng.uniform(0, 1, 6))
        window = EstimandWindow(t1=1.0, t2=8.0, tau0=1.0)
        _, psi = WindowEngine(cohort, window).psi_matrix(cohort.backward_matrix(window, grid))
        sig = psi.T @ psi / cohort.n
        assert np.allclose(sig, sig.T, atol=1e-12)
        assert np.min(np.linalg.eigvalsh(sig)) >= -1e-10


class TestCurveAndGrid:
    def test_default_grid_endpoints_and_offsets(self, censored_fixture, censored_window):
        grid = default_grid(censored_fixture, censored_window)
        assert grid[0] == 0.0 and grid[-1] == censored_window.tau0
        assert 0.5 in grid  # A's event offset: 2.0 - 1.5

    def test_mu_is_step_function_between_offsets(self, censored_fixture, censored_window):
        # constant on [0.5, 1.0): jumps only at observed backward offsets
        m1 = backward_mean(censored_fixture, censored_window, 0.5)
        m2 = backward_mean(censored_fixture, censored_window, 0.99)
        assert m1 == pytest.approx(m2, rel=1e-12)

    def test_degenerate_window_raises(self, censored_fixture):
        with pytest.raises(DegenerateWindowError):
            backward_mean(censored_fixture, EstimandWindow(t1=5.0, t2=9.0, tau0=1.0), 0.5)

    def test_u_outside_horizon_rejected(self, censored_fixture, censored_window):
        with pytest.raises(ValueError):
            backward_mean(censored_fixture, censored_window, 1.5)

    def test_backward_curve_matches_pointwise_calls(self, property_window):
        cohort = random_cohort(12)
        curve = backward_curve(cohort, property_window, GRID)
        for k, u in enumerate(GRID):
            assert curve.mu[k] == pytest.approx(
                backward_mean(cohort, property_window, float(u)), rel=1e-12
            )
            assert curve.sigma[k] ** 2 == pytest.approx(
                covariance(cohort, property_window, float(u), float(u)), rel=1e-10, abs=1e-12
            )

    @pytest.mark.parametrize("seed", [0, 5, 12, 33])
    def test_sigma_is_the_covariance_diagonal(self, seed, property_window):
        # sigma from the column sums of psi^2, on the lossless and a 101-point grid
        cohort = random_cohort(seed)
        eng = WindowEngine(cohort, property_window)
        for grid in (default_grid(cohort, property_window), np.linspace(0.0, 1.0, 101)):
            curve = backward_curve(cohort, property_window, grid)
            _, psi = eng.psi_matrix(cohort.backward_matrix(property_window, grid))
            expected = np.sqrt(np.diag(psi.T @ psi / eng.n))
            assert np.max(np.abs(curve.sigma - expected)) <= 1e-12 * np.max(expected)
            assert psi.shape == (eng.in_window.size, grid.size)
            assert np.array_equal(curve.sigma, np.sqrt(np.sum(psi * psi, axis=0) / eng.n))

    def test_log_ci_positive_and_rejects_zero(self, property_window):
        cohort = random_cohort(12)
        curve = backward_curve(cohort, property_window, np.array([0.5, 1.0]))
        lo, hi = pointwise_ci(curve, kind="log")
        assert np.all(lo > 0) and np.all(hi >= curve.mu)
        zero_curve = backward_curve(cohort, property_window, np.array([0.0]))
        if zero_curve.mu[0] == 0:
            with pytest.raises(ValueError):
                pointwise_ci(zero_curve, kind="log")


class TestMarkedCumHazard:
    def test_matches_direct_sum(self, property_window):
        # Lambda^V(t, u) = n^{-1} sum_i Delta_i I(tau0 <= x_i <= t) V_i(u) / R(x_i)
        # from the rows and risk fractions of an engine on [tau0, t]
        cohort = random_cohort(8)
        u, t = 0.7, 5.0
        total = 0.0
        for s in cohort.subjects:
            if s.delta == 1 and property_window.tau0 <= s.x <= t:
                total += backward_value(s, u) / dense_risk(cohort, [s.x])[0]
        expected = total / cohort.n
        window = EstimandWindow(t1=property_window.tau0, t2=float(np.nextafter(t, np.inf)),
                                tau0=property_window.tau0)
        eng = WindowEngine(cohort, window)
        got = float(np.sum(cohort.backward_matrix(window, [u])[:, 0] / eng.r_in)) / eng.n
        assert got == pytest.approx(expected, rel=1e-10)
