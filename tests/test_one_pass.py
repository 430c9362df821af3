"""Single-pass estimators checked against their defining sums, and the
one-fit-per-command property of the CLI.

The forward mean, the joint CDF slice, the percentile curve and the
bandwidth cross-validation criterion are each computed from one fit with one
sort and one cumulative sum. Here each is compared with a direct evaluation
of its definition in ``reference.py``, one point at a time; floating-point
results may differ in the last digits because the sums run in another order.
"""

import csv
import sys

import numpy as np
import pytest
from click.testing import CliRunner

import backproc
from backproc import (
    EstimandWindow,
    KernelSpec,
    ProcessEvent,
    SubjectRecord,
    backward_curve,
    backward_rate,
    forward_mean,
    forward_mean_curve,
    ingest,
    joint_cdf,
    percentile,
    product_limit,
    select_bandwidth,
    validate_cohort,
    weighted_sample,
    write_cohort,
)
from backproc import rate as rate_mod
from backproc import survival as survival_mod
from backproc.backward import WindowEngine
from backproc.cli import main
from backproc.rate import KERNELS
from backproc.survival import risk_at

from conftest import random_cohort
from reference import (
    cv_by_double_loop,
    dense_cv_criterion,
    dense_percentiles,
    dense_psi,
    dense_risk,
    forward_by_definition,
    pick_smallest_best,
    product_limit_terms,
    reference_fit,
    reference_joint_cdf,
)

WINDOW = EstimandWindow(t1=1.0, t2=8.0, tau0=1.0)
WINDOW_ARGS = ["--t1", "1", "--t2", "8", "--tau0", "1"]


@pytest.fixture
def tied_cohort():
    """Ties everywhere: shared entry, exit and event times, events at time 0,
    equal backward offsets (0.5 for A, B, D) and equal backward values."""
    return validate_cohort(
        [
            SubjectRecord(id="A", w=0.0, x=2.0, delta=1,
                          events=(ProcessEvent(0.0, 1.0), ProcessEvent(1.5, 2.0))),
            SubjectRecord(id="B", w=0.0, x=3.0, delta=1,
                          events=(ProcessEvent(2.5, 2.0), ProcessEvent(2.5, 1.0))),
            SubjectRecord(id="C", w=1.0, x=3.0, delta=0, events=(ProcessEvent(1.5, 4.0),)),
            SubjectRecord(id="D", w=1.0, x=2.0, delta=1,
                          events=(ProcessEvent(1.5, 3.0), ProcessEvent(1.9, 0.5))),
            SubjectRecord(id="E", w=0.0, x=1.5, delta=1, events=(ProcessEvent(1.0, 2.0),)),
            SubjectRecord(id="F", w=0.5, x=4.0, delta=1, events=(ProcessEvent(3.0, 2.0),)),
        ]
    )


def cohorts(tied):
    return [tied] + [random_cohort(seed) for seed in (0, 3, 8, 21)]


# ---------------------------------------------------------------- risk sets


class TestRiskCounts:
    @pytest.mark.parametrize("seed", [0, 4, 13])
    def test_counts_equal_indicator_mean_exactly(self, seed, tied_cohort):
        for cohort in (tied_cohort, random_cohort(seed),
                       backproc.apply_prevalent_shift(random_cohort(seed), 0.5)):
            ts = np.concatenate([cohort.w, cohort.x, cohort.event_times, [-1.0, 0.0, 100.0]])
            assert np.array_equal(risk_at(cohort, ts), dense_risk(cohort, ts))
            curve = product_limit(cohort)
            times, risk, jump, _ = product_limit_terms(cohort)
            assert np.array_equal(curve.event_times, times)
            assert np.array_equal(curve.risk_fraction, risk)
            assert np.array_equal(curve.jump, jump)


# ------------------------------------------------------------ forward mean


class TestForwardCurve:
    def test_matches_definition_at_every_time(self, tied_cohort):
        for cohort in cohorts(tied_cohort):
            times, values = forward_mean_curve(cohort)
            expected = [forward_by_definition(cohort, float(t)) for t in times]
            assert values == pytest.approx(expected, rel=1e-12, abs=1e-15)
            # the pointwise call reads the same running sum
            assert [forward_mean(cohort, float(t)) for t in times] == list(values)

    def test_tied_event_times_enter_together(self, tied_cohort):
        times, values = forward_mean_curve(tied_cohort)
        assert times[0] == 0.0 and values[0] > 0  # events at time 0 count at t = 0
        assert np.unique(times).size == times.size
        assert forward_mean(tied_cohort, 1.4999) == values[np.searchsorted(times, 1.0)]

    def test_empty_risk_set_raises(self):
        # after the prevalent shift an event can precede every entry time
        cohort = backproc.apply_prevalent_shift(
            validate_cohort(
                [
                    SubjectRecord(id="p", w=1.0, x=5.0, delta=1,
                                  events=(ProcessEvent(1.2, 1.0),)),
                    SubjectRecord(id="i", w=0.0, x=1.1, delta=1),
                ]
            ),
            1.0,
        )
        assert forward_mean(cohort, 1.0) == 0.0
        with pytest.raises(survival_mod.EmptyRiskSetError):
            forward_mean(cohort, 1.2)
        with pytest.raises(survival_mod.EmptyRiskSetError):
            forward_mean_curve(cohort)


# ------------------------------------------------- bandwidth cross-validation


def aligned_cohort(step):
    """Entry, exit and event times on multiples of ``step``, so that pooled
    offsets sit on (a dyadic step: exactly on, 0.05: within rounding of)
    z = 0, +-1/2 and +-1 for bandwidths that are multiples of ``step``."""
    rng = np.random.default_rng(5)
    subjects = []
    for i in range(30):
        x = int(rng.integers(20, 128)) * step
        w = int(rng.integers(0, 10)) * step if rng.random() < 0.3 else 0.0
        lags = rng.choice(25, size=rng.integers(0, 6), replace=False)
        times = sorted(x - lag * step for lag in lags if x - lag * step >= w)
        events = tuple(ProcessEvent(t, float(1 + j % 3)) for j, t in enumerate(times))
        subjects.append(SubjectRecord(id=f"g{i}", w=w, x=x, delta=int(rng.random() < 0.8),
                                      events=events))
    return validate_cohort(subjects)


def no_offsets_within_tau0():
    """In-window subjects without an event within tau0 = 1 (E = 0); the
    out-of-window subject's event must not enter."""
    return validate_cohort(
        [
            SubjectRecord(id="a", w=0.0, x=2.0, delta=1),
            SubjectRecord(id="b", w=0.0, x=3.0, delta=1, events=(ProcessEvent(1.5, 2.0),)),
            SubjectRecord(id="c", w=0.0, x=9.0, delta=1, events=(ProcessEvent(8.5, 1.0),)),
        ]
    )


def dominant_subject():
    """Subject a carries omega = 1: the risk set empties when it fails, so
    the survival curve is 0 before b and c enter and fail."""
    return validate_cohort(
        [
            SubjectRecord(id="a", w=0.0, x=2.0, delta=1,
                          events=(ProcessEvent(1.2, 1.0), ProcessEvent(1.7, 2.0))),
            SubjectRecord(id="b", w=2.5, x=3.0, delta=1,
                          events=(ProcessEvent(2.6, 3.0), ProcessEvent(2.9, 1.0))),
            SubjectRecord(id="c", w=2.5, x=3.5, delta=1, events=(ProcessEvent(2.75, 2.0),)),
        ]
    )


def cv_cases(tied):
    candidates = [0.05, 0.2, 0.4, 1.0]
    return [(cohort, candidates) for cohort in cohorts(tied)] + [
        (aligned_cohort(0.05), [0.05, 0.1, 0.2, 0.4, 1.0]),
        (aligned_cohort(0.0625), [0.0625, 0.125, 0.25, 0.5, 1.0]),
        (no_offsets_within_tau0(), candidates),
        (dominant_subject(), candidates),
    ]


class TestClosedFormCV:
    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    def test_matches_double_loop(self, kernel, tied_cohort):
        for cohort, candidates in cv_cases(tied_cohort):
            eng = WindowEngine(cohort, WINDOW)
            got = rate_mod._cv_criterion(eng, kernel, candidates)
            expected = cv_by_double_loop(cohort, WINDOW, kernel, candidates)
            scale = max(abs(v) for v in expected)
            assert np.max(np.abs(np.subtract(got, expected))) <= 1e-12 * scale
            assert select_bandwidth(cohort, WINDOW, kernel, candidates) == \
                pick_smallest_best(candidates, expected)

    def test_edge_cohorts_are_what_they_claim(self):
        eng = WindowEngine(no_offsets_within_tau0(), WINDOW)
        assert eng.cohort.window_events(WINDOW)[1].size == 0
        eng = WindowEngine(dominant_subject(), WINDOW)
        assert np.max(eng.c_in / (eng.n * eng.d)) >= 1.0
        cohort = aligned_cohort(0.0625)
        offs = cohort.window_events(WINDOW)[1]
        lags = offs[:, None] - offs[None, :]
        for h in (0.125, 0.25, 0.5):
            for edge in (0.5, 1.0):
                assert np.any(lags / h == edge) and np.any(lags / h == -edge)

    def test_matches_dense_criterion_at_n2000(self):
        config = backproc.SimConfig(n=2000)
        cohort, window = backproc.generate_cohort(config, 12345), config.window()
        candidates = [0.05, 0.1, 0.2, 0.4]
        dense = dense_cv_criterion(cohort, window, "epanechnikov", candidates,
                                   reference_fit(cohort, window))
        got = rate_mod._cv_criterion(WindowEngine(cohort, window), "epanechnikov", candidates)
        assert np.max(np.abs(np.subtract(got, dense))) <= 1e-12 * max(map(abs, dense))
        assert select_bandwidth(cohort, window, "epanechnikov", candidates) == \
            pick_smallest_best(candidates, dense)

    def test_kernel_entries_grow_with_same_owner_pairs_only(self, monkeypatch):
        entries = []
        for name, kernel in list(KERNELS.items()):
            def counted(z, kernel=kernel):
                entries.append(np.size(z))
                return kernel(z)
            monkeypatch.setitem(KERNELS, name, counted)
        config = backproc.SimConfig(n=400)
        cohort, window = backproc.generate_cohort(config, 12345), config.window()
        candidates = [0.05, 0.1, 0.2, 0.4]
        select_bandwidth(cohort, window, "epanechnikov", candidates)
        pairs = 0
        for s in cohort.subjects:
            if s.delta == 1 and window.t1 <= s.x < window.t2:
                own = sum(0 <= s.x - ev.time <= window.tau0 for ev in s.events)
                pairs += own * own
        assert sum(entries) <= len(candidates) * (pairs + 512)


class TestRateRowBlocks:
    def test_row_blocks_give_the_same_curve(self, monkeypatch):
        cohort = random_cohort(17, n=60, max_events=8)
        u = np.linspace(0.0, WINDOW.tau0, 101)
        specs = [KernelSpec(kernel="triangle", bandwidth=h) for h in (0.1, 0.3)]
        whole = [backward_rate(cohort, WINDOW, u, spec) for spec in specs]
        monkeypatch.setattr(rate_mod, "_BLOCK_ENTRIES", 37)
        for spec, expected in zip(specs, whole):
            assert backward_rate(cohort, WINDOW, u, spec) == pytest.approx(expected, rel=1e-13)


# ---------------------------------------------------- psi by one prefix sum


class TestPsiMatrix:
    def test_matches_dense_formula(self, tied_cohort):
        grid = np.linspace(0.0, WINDOW.tau0, 11)
        for cohort in cohorts(tied_cohort):
            eng = WindowEngine(cohort, WINDOW)
            v = cohort.backward_matrix(WINDOW, grid)
            # the tied cohort shares x between subjects, so P(x_i) must count
            # only x_j < x_i
            mu, psi = eng.psi_matrix(v)
            dense = dense_psi(reference_fit(cohort, WINDOW), v)
            assert np.max(np.abs(psi - dense)) <= 1e-12 * np.max(np.abs(dense))
            expected = eng.c_in @ v / (eng.n * eng.d)
            assert np.max(np.abs(mu - expected)) <= 1e-12 * np.max(np.abs(expected))


# ------------------------------------------------------ quantile and dist CLI


@pytest.fixture(params=["random", "tied"])
def data_files(request, tmp_path, tied_cohort):
    cohort = random_cohort(10, n=50) if request.param == "random" else tied_cohort
    sp, ep = tmp_path / "subjects.csv", tmp_path / "events.csv"
    write_cohort(cohort, sp, ep)
    return ["--subjects", str(sp), "--events", str(ep)], ingest(sp, ep)


def run_rows(args):
    res = CliRunner().invoke(main, args, catch_exceptions=False)
    assert res.exit_code == 0, res.output
    out = args[args.index("--out") + 1]
    with open(out, newline="") as fh:
        return list(csv.DictReader(fh))


class TestSingleFitCommands:
    def test_quantile_rows_match_pointwise_percentile(self, data_files, tmp_path):
        data, cohort = data_files
        rows = run_rows(["quantile", *data, *WINDOW_ARGS, "--q", "0.25", "--q", "0.5",
                         "--q", "0.9", "--out", str(tmp_path / "q.csv")])
        grid = backproc.default_grid(cohort, WINDOW)
        assert len(rows) == 3 * grid.size
        for row in rows:
            q, u = float(row["q"]), float(row["u"])
            expected = dense_percentiles(cohort, WINDOW, [q], [u])[0, 0]
            assert float(row["m_hat"]) == pytest.approx(expected, rel=1e-12, abs=1e-15)
            assert float(row["m_hat"]) == pytest.approx(
                percentile(cohort, WINDOW, q, u), rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize("t", [None, "2.0"])
    def test_dist_rows_match_pointwise_joint_cdf(self, data_files, tmp_path, t):
        data, cohort = data_files
        extra = [] if t is None else ["--t", t]
        rows = run_rows(["dist", *data, *WINDOW_ARGS, "--u", "0.5", *extra,
                         "--out", str(tmp_path / "d.csv")])
        t_eff = float(np.nextafter(8.0, -np.inf)) if t is None else float(t)
        ws = weighted_sample(cohort, WINDOW, 0.5)
        fit = reference_fit(cohort, WINDOW)
        assert [float(r["m"]) for r in rows] == list(np.unique(ws.values))
        for row in rows:
            m = float(row["m"])
            expected = reference_joint_cdf(fit, ws.values, m, t_eff)
            assert float(row["p_hat"]) == pytest.approx(expected, rel=1e-12, abs=1e-15)
            assert float(row["p_hat"]) == pytest.approx(
                joint_cdf(cohort, WINDOW, m, t_eff, 0.5), rel=1e-12, abs=1e-15)

    def test_joint_cdf_between_and_below_observed_values(self, tied_cohort):
        ws = weighted_sample(tied_cohort, WINDOW, 0.5)
        below = float(np.min(ws.values)) - 0.25
        assert joint_cdf(tied_cohort, WINDOW, below, 7.0, 0.5) == 0.0
        fit = reference_fit(tied_cohort, WINDOW)
        for m in np.unique(ws.values) + 0.125:
            assert joint_cdf(tied_cohort, WINDOW, float(m), 7.0, 0.5) == pytest.approx(
                reference_joint_cdf(fit, ws.values, m, 7.0), rel=1e-12)


# -------------------------------------------------- one fit per CLI command


@pytest.fixture
def fit_counts(monkeypatch):
    """Count WindowEngine constructions, psi_matrix calls and product_limit
    calls, wherever product_limit is bound."""
    counts = {"engine": 0, "product_limit": 0, "psi_matrix": 0}
    real_init = WindowEngine.__init__
    real_psi = WindowEngine.psi_matrix
    real_pl = survival_mod.product_limit

    def init(self, *args, **kwargs):
        counts["engine"] += 1
        real_init(self, *args, **kwargs)

    def psi_matrix(self, *args, **kwargs):
        counts["psi_matrix"] += 1
        return real_psi(self, *args, **kwargs)

    def pl(*args, **kwargs):
        counts["product_limit"] += 1
        return real_pl(*args, **kwargs)

    monkeypatch.setattr(WindowEngine, "__init__", init)
    monkeypatch.setattr(WindowEngine, "psi_matrix", psi_matrix)
    for name, module in list(sys.modules.items()):
        if name.startswith("backproc") and getattr(module, "product_limit", None) is real_pl:
            monkeypatch.setattr(module, "product_limit", pl)
    return counts


class TestOneFitPerCommand:
    @pytest.mark.parametrize("cmd", [
        ["dist", *WINDOW_ARGS, "--u", "1.0"],
        ["quantile", *WINDOW_ARGS, "--q", "0.25", "--q", "0.5"],
        ["rate", *WINDOW_ARGS, "--bandwidth-grid", "0.05,0.1,0.2,0.4"],
        ["forward-mean"],
    ], ids=["dist", "quantile", "rate-cv", "forward-mean"])
    def test_at_most_two_fits(self, cmd, fit_counts, tmp_path):
        cohort = random_cohort(10, n=50)
        sp, ep = tmp_path / "s.csv", tmp_path / "e.csv"
        write_cohort(cohort, sp, ep)
        args = [cmd[0], "--subjects", str(sp), "--events", str(ep), *cmd[1:],
                "--out", str(tmp_path / "o.csv")]
        res = CliRunner().invoke(main, args, catch_exceptions=False)
        assert res.exit_code == 0, res.output
        assert fit_counts["product_limit"] >= 1
        assert fit_counts["engine"] <= 2
        assert fit_counts["product_limit"] <= 2

    @pytest.mark.parametrize("cmd", [
        ["mean", *WINDOW_ARGS],
        ["bands", *WINDOW_ARGS, "--band-reps", "200"],
        ["bands", *WINDOW_ARGS, "--grid", "0.1,0.5,1", "--band-kind", "log"],
    ], ids=["mean", "bands", "bands-grid"])
    def test_one_fit_serves_mean_sigma_and_band(self, cmd, fit_counts, tmp_path):
        cohort = random_cohort(10, n=50)
        sp, ep = tmp_path / "s.csv", tmp_path / "e.csv"
        write_cohort(cohort, sp, ep)
        args = [cmd[0], "--subjects", str(sp), "--events", str(ep), *cmd[1:],
                "--out", str(tmp_path / "o.csv")]
        res = CliRunner().invoke(main, args, catch_exceptions=False)
        assert res.exit_code == 0, res.output
        assert fit_counts == {"engine": 1, "product_limit": 1, "psi_matrix": 1}


# ------------------------------------------------------- input contract


class TestBackwardTimeContract:
    @pytest.mark.parametrize("bad", [-1.0, 1.0 + 1e-9, 3.0, float("nan")])
    def test_backward_curve_rejects_u_outside_horizon(self, bad):
        cohort = backproc.generate_cohort(backproc.SimConfig(n=100), 1)
        with pytest.raises(ValueError, match="outside"):
            backward_curve(cohort, WINDOW, [bad, 0.5])

    def test_horizon_endpoints_accepted(self):
        cohort = random_cohort(2)
        curve = backward_curve(cohort, WINDOW, [0.0, 1.0])
        assert curve.mu[0] <= curve.mu[1]

    @pytest.mark.parametrize("cmd", [
        ["mean", "--grid", "-1,0.5"],
        ["bands", "--grid", "0.5,3", "--band-reps", "50"],
        ["quantile", "--grid", "0.5,1.5"],
        ["dist", "--u", "2.0"],
        ["rate", "--bandwidth", "0.2", "--grid", "0.5,1.5"],
    ], ids=["mean", "bands", "quantile", "dist", "rate"])
    def test_cli_rejects_u_outside_horizon(self, cmd, tmp_path):
        sp, ep = tmp_path / "s.csv", tmp_path / "e.csv"
        write_cohort(random_cohort(10, n=50), sp, ep)
        res = CliRunner().invoke(main, [cmd[0], "--subjects", str(sp), "--events", str(ep),
                                        *WINDOW_ARGS, *cmd[1:], "--out", str(tmp_path / "o.csv")])
        assert res.exit_code != 0
        assert "outside [0, tau0=1.0]" in res.output

    @pytest.mark.parametrize("t", ["0.5", "8", "9"])
    def test_dist_t_outside_window_fails_before_fit(self, t, fit_counts, tmp_path):
        sp, ep = tmp_path / "s.csv", tmp_path / "e.csv"
        write_cohort(random_cohort(10, n=50), sp, ep)
        res = CliRunner().invoke(main, ["dist", "--subjects", str(sp), "--events", str(ep),
                                        *WINDOW_ARGS, "--u", "1.0", "--t", t,
                                        "--out", str(tmp_path / "o.csv")])
        assert res.exit_code != 0
        assert "outside [t1=1.0, t2=8.0)" in res.output
        assert fit_counts == {"engine": 0, "product_limit": 0, "psi_matrix": 0}
