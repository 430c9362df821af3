"""End-to-end acceptance criteria.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` and in the
failure report) and asserts at the stated tolerance. Criteria 2 and 4, and
the coverage line of criterion 1 at u = 1.0, are known reproduction gaps of
the replication study; the analysis lives in the project design ledger. They
are implemented faithfully here and allowed to fail rather than being tuned
to pass.
"""

import csv
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from click.testing import CliRunner

from backproc import (
    EstimandWindow,
    KernelSpec,
    ProcessEvent,
    SimConfig,
    SubjectRecord,
    backward_mean,
    covariance,
    forward_mean,
    generate_cohort,
    joint_cdf,
    percentile,
    product_limit,
    survival_at,
    true_mean_oracle,
    validate_cohort,
    weighted_sample,
)
from backproc.backward import WindowEngine
from backproc.cli import main
from backproc.rate import backward_rate

from conftest import random_cohort
from reference import subject_rate

pytestmark = pytest.mark.acceptance


def report(name: str, checks: list[tuple[str, bool]]):
    ok = all(flag for _, flag in checks)
    failed = [label for label, flag in checks if not flag]
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}"
          + (f" ({'; '.join(failed)})" if failed else ""))
    assert ok, f"{name} failed: {failed}"


def run_table1(tmp_path, n):
    out = tmp_path / f"table1_n{n}.csv"
    res = CliRunner().invoke(
        main,
        ["simulate", "table1", "--n", str(n), "--reps", "2000",
         "--band-reps", "1000", "--seed", "0", "--out", str(out)],
        catch_exceptions=False,
    )
    assert res.exit_code == 0, res.output
    with open(out, newline="") as fh:
        rows = {round(float(r["u"]), 3): {k: float(v) for k, v in r.items()}
                for r in csv.DictReader(fh)}
    sidecar = json.loads(out.with_suffix(".json").read_text())
    return rows, sidecar["config"]["band_coverage"]


@pytest.fixture(scope="module")
def table400(tmp_path_factory):
    return run_table1(tmp_path_factory.mktemp("t400"), 400)


@pytest.fixture(scope="module")
def table100(tmp_path_factory):
    return run_table1(tmp_path_factory.mktemp("t100"), 100)


def test_criterion_1_replication_study_n400(table400):
    rows, _ = table400
    targets = {
        0.1: (4.29, 0.67, 0.69),
        0.5: (17.86, 2.08, 2.07),
        1.0: (28.18, 3.03, 2.93),
    }
    checks = []
    for u, (est_t, sse_t, see_t) in targets.items():
        r = rows[u]
        checks.append((f"est(u={u})={r['estimate']:.2f} vs {est_t}±0.25",
                       abs(r["estimate"] - est_t) <= 0.25))
        checks.append((f"sse(u={u})={r['sse']:.2f} vs {sse_t}±15%",
                       abs(r["sse"] - sse_t) <= 0.15 * sse_t))
        checks.append((f"see(u={u})={r['see']:.2f} vs {see_t}±15%",
                       abs(r["see"] - see_t) <= 0.15 * see_t))
        checks.append((f"coverage(u={u})={r['coverage']:.3f} vs [0.925,0.965]",
                       0.94 - 0.015 <= r["coverage"] <= 0.95 + 0.015))
    report("criterion 1 (study, n=400)", checks)


def test_criterion_2_replication_study_n100(table100):
    rows, _ = table100
    r = rows[1.0]
    checks = [
        (f"est(u=1.0)={r['estimate']:.2f} vs 27.58±0.3",
         abs(r["estimate"] - 27.58) <= 0.3),
        (f"coverage(u=1.0)={r['coverage']:.3f} vs 0.93±0.02",
         abs(r["coverage"] - 0.93) <= 0.02),
    ]
    report("criterion 2 (study, n=100)", checks)


def test_criterion_3_naive_bias(table400):
    rows, _ = table400
    r = rows[1.0]
    checks = [
        (f"naive incident={r['naive_incident']:.2f} vs 35.36±0.5",
         abs(r["naive_incident"] - 35.36) <= 0.5),
        (f"naive prevalent={r['naive_prevalent']:.2f} vs 14.69±0.5",
         abs(r["naive_prevalent"] - 14.69) <= 0.5),
        ("incident above truth 28.80", r["naive_incident"] > 28.80),
        ("prevalent below truth 28.80", r["naive_prevalent"] < 28.80),
    ]
    report("criterion 3 (naive complete-case bias)", checks)


def test_criterion_4_band_coverage(table400, table100):
    _, band400 = table400
    _, band100 = table100
    checks = [
        (f"band coverage n=400 = {band400:.3f} vs 0.94±0.02",
         abs(band400 - 0.94) <= 0.02),
        (f"band coverage n=100 = {band100:.3f} vs 0.94±0.02",
         abs(band100 - 0.94) <= 0.02),
    ]
    report("criterion 4 (simultaneous band coverage)", checks)


def test_criterion_5_truth_oracle():
    grid = (0.1, 0.2, 0.3, 1.0)
    truth, se = true_mean_oracle(SimConfig(u_grid=grid), seed=0)
    targets = [4.32, 8.64, 12.96, 28.80]
    checks = []
    for u, t_hat, s, target in zip(grid, truth, se, targets):
        # 0.005 slack: the reference values are printed to two decimals
        checks.append(
            (f"truth(u={u})={t_hat:.3f} vs {target} (3 MC SE = {3 * s:.3f})",
             abs(t_hat - target) <= 3 * s + 0.005)
        )
    report("criterion 5 (truth oracle)", checks)


def test_criterion_6_exact_identities():
    window = EstimandWindow(t1=1.0, t2=8.0, tau0=1.0)
    checks = []

    cohort = random_cohort(0)
    eng = WindowEngine(cohort, window)
    checks.append(("normalization identity",
                   abs(np.sum(eng.c_in) - eng.n * eng.d) <= 1e-10 * eng.n * eng.d))

    complete = random_cohort(1, censor=False, truncate=False)
    in_win = [s for s in complete.subjects if window.t1 <= s.x < window.t2]
    u = 1.0
    vals = np.array([sum(ev.mark for ev in s.events if s.x - ev.time <= u) for s in in_win])
    mu_c = backward_mean(complete, window, u)
    checks.append(("complete-data reduction of the mean",
                   abs(mu_c - vals.mean()) <= 1e-10 * max(1, abs(vals.mean()))))

    t_max = float(np.nextafter(window.t2, -np.inf))
    m_med = float(np.median(vals))
    p_hat = joint_cdf(complete, window, m_med, t_max, u)
    ecdf = float(np.mean(vals <= m_med))
    checks.append(("complete-data reduction of the joint CDF", abs(p_hat - ecdf) <= 1e-10))

    q_hat = percentile(complete, window, 0.5, u)
    sv = np.sort(vals)
    emp_med = float(sv[int(np.ceil(0.5 * sv.size)) - 1])
    checks.append(("complete-data reduction of the percentile", q_hat == emp_med))

    spec = KernelSpec(kernel="epanechnikov", bandwidth=0.25)
    r_hat = backward_rate(complete, window, 0.5, spec)
    r_avg = float(np.mean([subject_rate(s, 0.5, spec, window.tau0) for s in in_win]))
    checks.append(("complete-data reduction of the rate",
                   abs(r_hat - r_avg) <= 1e-10 * max(1, abs(r_avg))))

    t_eval = 2.0
    fwd = forward_mean(complete, t_eval)
    fwd_emp = float(np.mean([
        sum(ev.mark for ev in s.events if ev.time <= t_eval) for s in complete.subjects
    ]))
    checks.append(("complete-data reduction of the forward mean",
                   abs(fwd - fwd_emp) <= 1e-10 * max(1, abs(fwd_emp))))

    curve = product_limit(cohort)
    t_mid = 2.5
    parts = []
    for a, b in ((1.0, 8.0), (1.0, t_mid), (t_mid, 8.0)):
        win = EstimandWindow(t1=a, t2=b, tau0=1.0)
        d = survival_at(curve, a) - survival_at(curve, b)
        parts.append(d * backward_mean(cohort, win, u) if d > 0 else 0.0)
    checks.append(("window additivity",
                   abs(parts[0] - parts[1] - parts[2]) <= 1e-10 * max(1, abs(parts[0]))))

    after = np.array([survival_at(curve, float(t) + 1e-12) for t in curve.event_times])
    ident = curve.s_left * (1 - curve.jump)
    checks.append(("product-limit jump identity",
                   np.max(np.abs(after - ident)) <= 1e-10))

    ws = weighted_sample(cohort, window, window.tau0)
    jumps: dict[float, float] = {}
    in_w = [s for s in cohort.subjects if s.delta == 1 and window.t1 <= s.x < window.t2]
    for s, omega in zip(in_w, ws.weights / ws.normalizer):
        for ev in s.events:
            off = s.x - ev.time
            if 0 <= off <= window.tau0:
                jumps[off] = jumps.get(off, 0.0) + omega * ev.mark
    offs = np.array(sorted(jumps))
    mass = np.array([jumps[o] for o in offs])
    ug = np.linspace(0, 1, 11)
    conv = (spec((ug[:, None] - offs[None, :]) / spec.bandwidth) @ mass) / spec.bandwidth
    direct = backward_rate(cohort, window, ug, spec)
    checks.append(("convolution identity rate = smoothed mean jumps",
                   np.max(np.abs(conv - direct)) <= 1e-10 * max(1, float(np.max(np.abs(direct))))))

    rng = np.random.default_rng(2)
    psd_ok = True
    for _ in range(3):
        g = np.sort(rng.uniform(0, 1, 5))
        _, psi = eng.psi_matrix(cohort.backward_matrix(window, g))
        sig = psi.T @ psi / eng.n
        psd_ok &= bool(np.min(np.linalg.eigvalsh(sig)) >= -1e-10)
    checks.append(("covariance Gram PSD", psd_ok))

    c = 2.5
    scaled = validate_cohort([
        SubjectRecord(id=s.id, w=s.w, x=s.x, delta=s.delta,
                      events=tuple(ProcessEvent(ev.time, c * ev.mark) for ev in s.events))
        for s in cohort.subjects
    ])
    mu0 = backward_mean(cohort, window, u)
    mu1 = backward_mean(scaled, window, u)
    v0 = covariance(cohort, window, u, u)
    v1 = covariance(scaled, window, u, u)
    checks.append(("scale equivariance (mean by c, covariance by c^2)",
                   abs(mu1 - c * mu0) <= 1e-10 * abs(c * mu0)
                   and abs(v1 - c * c * v0) <= 1e-10 * abs(c * c * v0)))

    report("criterion 6 (exact identities)", checks)


def test_criterion_7_bootstrap_second_moment():
    cohort = generate_cohort(SimConfig(n=50), np.random.default_rng(42))
    window = SimConfig().window()
    grid = np.array([0.25, 0.5, 1.0])
    eng = WindowEngine(cohort, window)
    _, psi = eng.psi_matrix(cohort.backward_matrix(window, grid))
    sigma = psi.T @ psi / cohort.n

    m = 20_000
    g = np.random.default_rng(7).standard_normal((m, psi.shape[0]))
    w = g @ psi / np.sqrt(cohort.n)

    checks = []
    for i in range(3):
        for j in range(3):
            prod = w[:, i] * w[:, j]
            mc_mean = prod.mean()
            mc_se = prod.std(ddof=1) / np.sqrt(m)
            checks.append(
                (f"E[W({grid[i]})W({grid[j]})]={mc_mean:.4f} vs "
                 f"Sigma={sigma[i, j]:.4f} (5 MC SE = {5 * mc_se:.4f})",
                 abs(mc_mean - sigma[i, j]) <= 5 * mc_se)
            )
    report("criterion 7 (bootstrap second moments)", checks)


def test_criterion_8_hand_oracle_fixture():
    cohort = validate_cohort([
        SubjectRecord(id="A", w=0.0, x=2.0, delta=1, events=(ProcessEvent(1.5, 5.0),)),
        SubjectRecord(id="B", w=0.0, x=3.0, delta=0),
        SubjectRecord(id="C", w=0.0, x=1.5, delta=1, events=(ProcessEvent(0.5, 2.0),)),
    ])
    mu = backward_mean(cohort, EstimandWindow(t1=1.0, t2=4.0, tau0=1.0), 1.0)
    checks = [(f"mu_hat_{{1,4}}(1)={mu!r} vs 3.5 exactly", abs(mu - 3.5) <= 1e-12)]
    report("criterion 8 (hand fixture)", checks)


def test_criterion_9_determinism_across_runs_and_thread_counts(tmp_path):
    from backproc import write_cohort

    cohort = random_cohort(33, n=60)
    sp, ep = tmp_path / "s.csv", tmp_path / "e.csv"
    write_cohort(cohort, sp, ep)

    def invoke(tag, threads):
        out = tmp_path / f"bands_{tag}.csv"
        env = dict(os.environ)
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = str(threads)
        cmd = [sys.executable, "-m", "backproc.cli", "bands",
               "--subjects", str(sp), "--events", str(ep),
               "--t1", "1", "--t2", "8", "--tau0", "1",
               "--seed", "5", "--band-reps", "400", "--out", str(out)]
        subprocess.run(cmd, check=True, env=env, capture_output=True)
        return out.read_bytes()

    one_a = invoke("one_a", 1)
    one_b = invoke("one_b", 1)
    two = invoke("two", 2)
    checks = [
        ("same seed, same thread count: byte-identical", one_a == one_b),
        ("same seed, different thread count: byte-identical", one_a == two),
    ]
    report("criterion 9 (determinism)", checks)
