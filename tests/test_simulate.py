import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from backproc import (
    InputContractError,
    SimConfig,
    apply_prevalent_shift,
    band_critical_values,
    generate_cohort,
    naive_estimators,
    run_study,
    true_mean_oracle,
    validate_cohort,
)
from backproc.backward import WindowEngine
from backproc.bands import _quantile_ceil
from backproc.model import ProcessEvent, SubjectRecord
from backproc.simulate import _replicate

from reference import reference_oracle

SMALL = SimConfig(n=120, reps=40, band_reps=100, oracle_n=100_000, seed=3)


def oracle(config, grid, big_n, seed=0):
    """The truth oracle of ``config`` with its u_grid replaced by ``grid``
    (None keeps it) and its oracle_n by ``big_n``."""
    u_grid = config.u_grid if grid is None else tuple(grid)
    return true_mean_oracle(dataclasses.replace(config, u_grid=u_grid, oracle_n=big_n), seed)


class TestGenerateCohort:
    def test_reproducible(self):
        a = generate_cohort(SMALL, 7)
        b = generate_cohort(SMALL, 7)
        assert a.subjects == b.subjects
        c = generate_cohort(SMALL, 8)
        assert a.subjects != c.subjects

    def test_invariants(self):
        cohort = generate_cohort(SMALL, 1)
        assert cohort.n == SMALL.n
        for s in cohort.subjects:
            assert 0 <= s.w <= s.x
            for ev in s.events:
                assert s.w <= ev.time <= s.x

    def test_incident_failure_times_match_design_mean(self):
        # with censoring pushed out of the way, x = T for incident subjects;
        # their mean should match the design failure-time mean (3) within MC error
        cfg = dataclasses.replace(SMALL, n=4000, censoring_upper=1e9)
        cohort = generate_cohort(cfg, 2)
        t_inc = np.array([s.x for s in cohort.subjects if s.w == 0 and s.delta == 1])
        se = t_inc.std(ddof=1) / np.sqrt(t_inc.size)
        assert abs(t_inc.mean() - 3.0) <= 3 * se

    def test_prevalent_share_below_mix_probability(self):
        # pooled rejection retains every incident draw but only the prevalent
        # draws with T >= W, so the retained share sits near 13%, not 50%
        cfg = dataclasses.replace(SMALL, n=8000)
        cohort = generate_cohort(cfg, 5)
        share = np.mean([s.w > 0 for s in cohort.subjects])
        assert 0.09 < share < 0.18

    def test_all_incident_config(self):
        cfg = dataclasses.replace(SMALL, prevalent_fraction=0.0)
        cohort = generate_cohort(cfg, 1)
        assert all(s.w == 0 for s in cohort.subjects)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SimConfig(survival_shape=-1.0)
        # a NaN survival parameter would leave generate_cohort's rejection loop
        # spinning forever, and an infinite one makes numpy's draws fail
        for name in ("survival_shape", "survival_rate", "latent_shape", "recurrence_rate",
                     "mark_shape_base"):
            for value in (float("nan"), float("inf")):
                with pytest.raises(InputContractError,
                                   match=f"{name} must be finite and positive"):
                    SimConfig(**{name: value})
        with pytest.raises(ValueError):
            SimConfig(prevalent_fraction=1.5)
        with pytest.raises(ValueError):
            SimConfig(tau0=5.0, tau1=2.0)
        for name in ("n", "band_reps", "oracle_n"):
            with pytest.raises(ValueError, match=f"{name} must be at least 1"):
                SimConfig(**{name: 0})
        # sse is a standard deviation across replicates
        for reps in (0, 1):
            with pytest.raises(ValueError, match="reps must be at least 2.*sse"):
                SimConfig(reps=reps)
        for alpha in (0.0, 1.0, 1.5, float("nan")):
            with pytest.raises(ValueError, match="alpha"):
                SimConfig(alpha=alpha)

    @pytest.mark.parametrize("name, rule", [
        ("truncation_upper", "finite and positive"),
        ("censoring_upper", "finite and positive"),
        ("mark_shape_jump", "finite and nonnegative"),
        ("mark_jump_cutoff", "finite and nonnegative"),
    ])
    def test_generative_bounds_validated(self, name, rule):
        # a NaN cutoff would silently switch the mark jump off in the oracle
        for value in (float("nan"), -1.0, float("inf")):
            with pytest.raises(ValueError, match=f"{name} must be {rule}"):
                SimConfig(**{name: value})
        SimConfig(mark_shape_jump=0.0, mark_jump_cutoff=0.0)


class TestNaive:
    def test_no_truncation_no_censoring_both_arms_equal_complete_case(self):
        subjects = [
            SubjectRecord(id="i1", w=0.0, x=2.0, delta=1, events=(ProcessEvent(1.5, 4.0),)),
            SubjectRecord(id="i2", w=0.0, x=3.0, delta=1, events=(ProcessEvent(2.5, 8.0),)),
            SubjectRecord(id="p1", w=0.5, x=2.5, delta=1, events=(ProcessEvent(2.0, 6.0),)),
        ]
        cohort = validate_cohort(subjects)
        inc, prev = naive_estimators(cohort, SMALL.window(), 1.0)
        assert inc == pytest.approx(6.0)
        assert prev == pytest.approx(6.0)

    def test_empty_arm_raises(self):
        cohort = validate_cohort(
            [SubjectRecord(id="i1", w=0.0, x=2.0, delta=1, events=())]
        )
        with pytest.raises(ValueError, match="prevalent"):
            naive_estimators(cohort, SMALL.window(), 1.0)

    def test_empty_incident_arm_raises(self):
        cohort = validate_cohort(
            [SubjectRecord(id="p1", w=0.5, x=2.0, delta=1, events=())]
        )
        with pytest.raises(ValueError, match="incident arm"):
            naive_estimators(cohort, SMALL.window(), 1.0)

    def test_replicate_without_a_prevalent_arm_keeps_its_incident_mean(self):
        # every subject is incident, so the shifted cohort is the cohort and
        # its prevalent arm is empty: that arm alone is NaN
        config = dataclasses.replace(SMALL, prevalent_fraction=0.0)
        *_, naive_inc, naive_prev = _replicate(config, 5)
        cohort = generate_cohort(config, np.random.default_rng(5))
        grid = np.asarray(config.u_grid)
        expected = cohort.backward_matrix(config.window(), grid).mean(axis=0)
        assert naive_inc == pytest.approx(expected, rel=1e-12)
        assert np.isnan(naive_prev).all() and naive_prev.shape == grid.shape


class TestOracleMatchesReference:
    """The chunked oracle makes the reference's draws; only the order of
    its sums differs."""

    @staticmethod
    def check(config, grid, big_n, seed):
        truth, se = oracle(config, grid, big_n, seed)
        ref_truth, ref_se, kept = reference_oracle(config, grid, big_n, seed)
        np.testing.assert_allclose(truth, ref_truth, rtol=1e-12, atol=0)
        np.testing.assert_allclose(se, ref_se, rtol=1e-12, atol=0)
        return kept

    def test_default_config_partial_second_batch(self):
        cfg = SimConfig()
        assert self.check(cfg, cfg.u_grid, 250_000, 5)[1] > 0

    def test_unsorted_grid_with_duplicate_zero_and_tau0(self):
        self.check(SimConfig(), [0.5, 0.1, 1.0, 0.0, 0.5, 0.3], 50_000, 2)

    def test_300_point_grid(self):
        self.check(SimConfig(), np.linspace(0.0, 1.0, 300), 10_000, 3)

    def test_non_default_marks(self):
        cfg = SimConfig(mark_shape_jump=0.0, mark_jump_cutoff=0.5, tau0=2.0,
                        u_grid=(0.25, 0.5, 1.0, 1.5, 2.0))
        self.check(cfg, cfg.u_grid, 50_000, 4)

    def test_batch_that_keeps_no_subject(self):
        # at seed 0 the one-subject second batch draws T < tau0
        cfg = SimConfig()
        assert self.check(cfg, cfg.u_grid, 200_001, 0)[1] == 0

    def test_grid_outside_zero_tau0_raises(self):
        # events are simulated only within tau0 of failure
        for bad in ([0.5, 1.5], [-0.1], [float("nan")]):
            with pytest.raises(ValueError, match="outside"):
                oracle(SimConfig(), bad, 1000, 0)

    @pytest.mark.parametrize("big_n, seed", [(0, 0), (-1, 0), (1, 15)])
    def test_no_draw_in_window_raises(self, big_n, seed):
        # at seed 15 the one draw fails before tau0: there is nothing to average
        with pytest.raises(ValueError):
            oracle(SimConfig(), None, big_n, seed)

    @pytest.mark.parametrize("grid, big_n", [
        (None, 1_000_000),
        # one chunk's (grid bin, subject) matrix is what grows with the grid
        (np.linspace(0.0, 1.0, 300), 200_000),
    ])
    def test_memory_bounded_by_batch_and_chunk(self, grid, big_n):
        # the full-size per-event arrays of one batch took 48.6 MiB
        tracemalloc.start()
        try:
            oracle(SimConfig(), grid, big_n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20 * 2**20


class TestOracle:
    def test_reported_se_shrinks_with_n(self):
        t1, se1 = oracle(SMALL, None, 20_000)
        t2, se2 = oracle(SMALL, None, 80_000)
        assert np.all(se2 < se1)
        assert np.all(np.abs(t1 - t2) < 5 * np.sqrt(se1**2 + se2**2))

    def test_linear_below_mark_jump_cutoff(self):
        # mark shape is constant for offsets below the cutoff, so the truth is
        # linear in u there
        grid = np.array([0.1, 0.2, 0.3])
        truth, se = oracle(SMALL, grid, 400_000, seed=1)
        assert truth[1] == pytest.approx(2 * truth[0], abs=4 * (se[1] + 2 * se[0]))
        assert truth[2] == pytest.approx(3 * truth[0], abs=4 * (se[2] + 3 * se[0]))


@pytest.fixture(scope="module")
def small_report():
    return run_study(SMALL)


class TestRunStudy:
    def test_reproducible(self, small_report):
        b = run_study(SMALL)
        assert np.array_equal(small_report.estimate_mean, b.estimate_mean)
        assert np.array_equal(small_report.coverage, b.coverage)
        assert small_report.band_coverage == b.band_coverage

    def test_report_shape_and_ranges(self, small_report):
        rep = small_report
        k = len(SMALL.u_grid)
        assert rep.grid.size == k
        assert rep.replicates_used + rep.replicates_failed == SMALL.reps
        assert np.all((rep.coverage >= 0) & (rep.coverage <= 1))
        assert 0 <= rep.band_coverage <= 1
        assert np.all(rep.sse >= 0) and np.all(rep.see >= 0)
        columns = rep.columns()
        assert list(columns) == [
            "u", "truth", "truth_mc_se", "naive_incident", "naive_prevalent",
            "estimate", "sse", "see", "coverage",
        ]
        assert all(len(c) == k for c in columns.values())

    def test_estimates_in_plausible_range(self, small_report):
        rep = small_report
        # truth at u = 1.0 is 28.8; a 40-replicate mean should land well inside
        assert 20 < rep.estimate_mean[-1] < 38
        assert rep.naive_incident[-1] > rep.estimate_mean[-1] > rep.naive_prevalent[-1]

    def test_no_prevalent_subject_gives_a_nan_naive_arm(self):
        # no replicate has a prevalent in-window subject: the prevalent
        # naive mean is NaN, with no "Mean of empty slice" warning
        cfg = SimConfig(n=120, reps=20, band_reps=100, oracle_n=100_000, seed=3,
                        prevalent_fraction=0.0)
        rep = run_study(cfg)
        assert np.all(np.isnan(rep.naive_prevalent))
        assert np.all(np.isfinite(rep.naive_incident))

    @pytest.mark.slow
    def test_shifted_estimator_consistent_with_oracle(self):
        # with the artificial re-truncation every backward window is fully
        # observed, so the estimator mean converges to the oracle truth
        cfg = SimConfig(
            n=2000, reps=150, band_reps=1, oracle_n=400_000, seed=11, shift_prevalent=True
        )
        rep = run_study(cfg)
        for k in (0, 4, 9):
            mc_se = rep.sse[k] / np.sqrt(rep.replicates_used)
            tol = 3 * np.sqrt(mc_se**2 + rep.truth_se[k] ** 2)
            assert abs(rep.estimate_mean[k] - rep.truth[k]) <= tol


class TestReplicateBand:
    @staticmethod
    def fit_cohort(config, rng):
        cohort = generate_cohort(config, rng)
        return apply_prevalent_shift(cohort, config.tau0) if config.shift_prevalent else cohort

    @pytest.mark.parametrize("shift", [False, True])
    def test_b_star_is_band_critical_values(self, shift):
        config = dataclasses.replace(SMALL, band_reps=300, shift_prevalent=shift)
        window = config.window()
        grid = np.asarray(config.u_grid)
        _, _, b_star, sigma, *_ = _replicate(config, 5)

        # the multipliers come from the generator state left by the cohort draw
        rng = np.random.default_rng(5)
        cohort = self.fit_cohort(config, rng)
        expected = band_critical_values(cohort, window, grid, config.band_reps,
                                        config.alpha, seed=rng).b_star
        assert b_star == expected

        # the same stream as the study's former inline bootstrap, which took
        # sigma from the diagonal of psi' psi
        rng = np.random.default_rng(5)
        cohort = self.fit_cohort(config, rng)
        eng = WindowEngine(cohort, window)
        _, psi = eng.psi_matrix(eng.v_matrix(grid))
        diag_sigma = np.sqrt(np.diag(psi.T @ psi / eng.n))
        w = rng.standard_normal((config.band_reps, psi.shape[0])) @ psi / math.sqrt(eng.n)
        inline = _quantile_ceil(np.sort(np.max(np.abs(w) / diag_sigma, axis=1)), config.alpha)
        assert b_star == pytest.approx(inline, rel=1e-12)
        assert sigma == pytest.approx(diag_sigma, rel=1e-12)
