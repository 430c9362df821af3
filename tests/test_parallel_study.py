"""The replication study on a thread pool: the report does not depend on the
pool size, the pool takes only the CPUs BLAS leaves free, a replicate's
error reaches the caller, and progress goes to stdlib logging."""

import dataclasses
import logging
import os
import subprocess
import sys

import numpy as np
import pytest

from backproc import EmptyRiskSetError, SimConfig, run_study
from backproc import backward, simulate
from backproc.backward import DegenerateWindowError

SMALL = SimConfig(n=100, reps=24, band_reps=200, oracle_n=20_000)
# fewer than 200 multipliers, so no replicate's b_star warns
LONG = dataclasses.replace(SMALL, reps=200, band_reps=100)
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def same(a, b) -> bool:
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and np.array_equal(a, b, equal_nan=True)
    if isinstance(a, float):
        return a == b or (np.isnan(a) and np.isnan(b))
    return a == b


@pytest.mark.parametrize("shift", [False, True])
def test_report_is_bit_identical_for_any_pool_size(shift, monkeypatch):
    config = dataclasses.replace(SMALL, shift_prevalent=shift)
    reports = {}
    switch = sys.getswitchinterval()
    try:
        # more threads than cores, switching often: interleave the replicates
        sys.setswitchinterval(1e-6)
        for workers in (1, 3):
            monkeypatch.setattr(simulate, "_workers", lambda reps, k=workers: k)
            reports[workers] = run_study(config)
    finally:
        sys.setswitchinterval(switch)
    for field in dataclasses.fields(simulate.StudyReport):
        one, three = (getattr(reports[k], field.name) for k in (1, 3))
        assert same(one, three), field.name


class TestWorkers:
    @pytest.fixture
    def machine(self, monkeypatch):
        """Set the CPUs this process may use and the BLAS variables."""

        def set_up(cpus, **blas):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
            for var in BLAS_VARS:
                monkeypatch.delenv(var, raising=False)
            for var, value in blas.items():
                monkeypatch.setenv(var, value)

        return set_up

    def test_blas_on_every_cpu_by_default(self, machine):
        machine(2)
        assert simulate._workers(200) == 1

    @pytest.mark.parametrize(
        "cpus, blas, expected",
        [
            (2, {"OPENBLAS_NUM_THREADS": "1"}, 2),
            (2, {"OPENBLAS_NUM_THREADS": "2"}, 1),
            (2, {"OMP_NUM_THREADS": "1"}, 2),
            (8, {"OPENBLAS_NUM_THREADS": "2"}, 4),
            # OpenBLAS reads its own variable first
            (2, {"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 1),
            # and passes over one that is not a positive integer
            (2, {"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "1"}, 2),
            (2, {"OPENBLAS_NUM_THREADS": "many", "OMP_NUM_THREADS": "1"}, 2),
            (2, {"OPENBLAS_NUM_THREADS": "many"}, 1),
        ],
    )
    def test_cpus_that_blas_leaves_free(self, machine, cpus, blas, expected):
        machine(cpus, **blas)
        assert simulate._workers(200) == expected

    def test_never_below_one(self, machine):
        machine(2, OPENBLAS_NUM_THREADS="4")
        assert simulate._workers(200) == 1
        machine(1, OPENBLAS_NUM_THREADS="1")
        assert simulate._workers(200) == 1

    def test_never_above_one_per_task(self, machine):
        machine(64, OPENBLAS_NUM_THREADS="1")
        assert simulate._workers(2) == 3
        assert simulate._workers(200) == 64

    def test_cpu_count_without_affinity(self, machine, monkeypatch):
        machine(2, OPENBLAS_NUM_THREADS="1")
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        assert simulate._workers(200) == 4
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert simulate._workers(200) == 1


def test_table1_bytes_do_not_depend_on_blas_variable(tmp_path):
    outputs = {}
    for tag, blas in (("one", "1"), ("unset", None)):
        env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
        if blas is not None:
            env["OPENBLAS_NUM_THREADS"] = blas
        out = tmp_path / f"table1_{tag}.csv"
        cmd = [sys.executable, "-m", "backproc.cli", "simulate", "table1",
               "--n", "100", "--reps", "24", "--band-reps", "200",
               "--oracle-n", "20000", "--out", str(out)]
        subprocess.run(cmd, check=True, env=env, capture_output=True, timeout=300)
        outputs[tag] = out.read_bytes(), out.with_suffix(".json").read_bytes()
    assert outputs["one"][0] == outputs["unset"][0]
    assert outputs["one"][1] == outputs["unset"][1]


def replicate_patched(monkeypatch, raise_at: int, exc: Exception) -> list:
    """Make the replicate of the raise_at-th seed (1-based) raise exc; return
    the list that records the seed of every call."""
    calls = []
    real = simulate._replicate

    def patched(config, rep_seed):
        calls.append(rep_seed.spawn_key)
        # the oracle's seed is spawn key 0, the replicates' 1, 2, ...
        if rep_seed.spawn_key == (raise_at,):
            raise exc
        return real(config, rep_seed)

    monkeypatch.setattr(simulate, "_replicate", patched)
    return calls


@pytest.mark.parametrize("workers", [1, 3])
def test_other_error_propagates_and_cancels_the_rest(workers, monkeypatch):
    # with 200 replicates one counted failure would be within the 1% rule,
    # so the raise shows the error was not counted
    monkeypatch.setattr(simulate, "_workers", lambda reps: workers)
    calls = replicate_patched(monkeypatch, 3, FloatingPointError("overflow in a replicate"))
    with pytest.raises(FloatingPointError, match="overflow in a replicate"):
        run_study(LONG)
    assert (3,) in calls
    assert len(calls) < LONG.reps


@pytest.mark.parametrize("workers", [1, 3])
def test_oracle_error_propagates_and_cancels_the_replicates(workers, monkeypatch):
    monkeypatch.setattr(simulate, "_workers", lambda reps: workers)
    calls = replicate_patched(monkeypatch, 0, AssertionError("no replicate has seed 0"))

    def oracle(*args):
        raise FloatingPointError("overflow in the oracle")

    monkeypatch.setattr(simulate, "true_mean_oracle", oracle)
    with pytest.raises(FloatingPointError, match="overflow in the oracle"):
        run_study(LONG)
    assert len(calls) < LONG.reps


@pytest.mark.parametrize("workers", [1, 3])
def test_domain_error_is_one_counted_failure(workers, monkeypatch):
    monkeypatch.setattr(simulate, "_workers", lambda reps: workers)
    replicate_patched(monkeypatch, 7, DegenerateWindowError("no failure mass"))
    report = run_study(LONG)
    assert report.replicates_failed == 1
    assert report.replicates_used == 199


def test_empty_risk_set_in_a_replicate_is_not_counted(monkeypatch):
    # every w <= x puts each failure in its own risk set, so no replicate
    # can meet an empty one: if it does, that is a fault, not a failure
    def product_limit(cohort):
        raise EmptyRiskSetError("empty risk set at event time 1.0")

    monkeypatch.setattr(backward, "product_limit", product_limit)
    with pytest.raises(EmptyRiskSetError, match="empty risk set"):
        run_study(dataclasses.replace(SMALL, reps=2))


def progress(caplog) -> list[tuple[int, int, int]]:
    return [r.args for r in caplog.records
            if r.name == "backproc.simulate" and "replicates done" in r.getMessage()]


def test_progress_at_each_tenth(caplog):
    caplog.set_level(logging.INFO, logger="backproc.simulate")
    run_study(dataclasses.replace(SMALL, reps=20))
    assert progress(caplog) == [(done, 20, 0) for done in range(2, 21, 2)]
    pool = [r for r in caplog.records if "pool of" in r.getMessage()]
    assert len(pool) == 1 and pool[0].levelno == logging.INFO


def test_progress_counts_failures_so_far(caplog, monkeypatch):
    caplog.set_level(logging.INFO, logger="backproc.simulate")
    replicate_patched(monkeypatch, 3, DegenerateWindowError("no failure mass"))
    # one failure in 20 replicates is above 1%: the study fails after the
    # last progress record
    with pytest.raises(RuntimeError, match="1 of 20 replicates errored"):
        run_study(dataclasses.replace(SMALL, reps=20))
    assert progress(caplog) == [(2, 20, 0)] + [(done, 20, 1) for done in range(4, 21, 2)]
