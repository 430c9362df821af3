"""The outputs of the ``analyze`` benchmark at its default seed, held in this
suite so that a drift shows without running the benchmark.

The eight commands of ``bench/workloads.commands("analyze", ...)`` run
through the CLI on ``generate_cohort(SimConfig(n=400), 12345)``, the cohort
that the benchmark picks at that seed, written with ``write_cohort``. Each
CSV and sidecar is compared with ``bench/reference/analyze/`` by
``bench/check.compare_reference``, at the benchmark's relative tolerance of
1e-12. Nothing under ``bench/`` is written.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from backproc import EstimandWindow, SimConfig, default_grid, generate_cohort, write_cohort
from backproc.cli import main

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _bench_module(name: str):
    """A module of bench/, imported by path without writing bytecode there."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


check = _bench_module("check")
workloads = _bench_module("workloads")
LABELS = [label for label, _ in workloads.commands("analyze", 0, Path(), Path())]


@pytest.fixture(scope="module")
def cohort():
    return generate_cohort(SimConfig(n=workloads.ANALYZE_N), workloads.DEFAULT_SEED)


@pytest.fixture(scope="module")
def outputs(cohort, tmp_path_factory):
    inputs, out = tmp_path_factory.mktemp("inputs"), tmp_path_factory.mktemp("analyze")
    write_cohort(cohort, inputs / "subjects.csv", inputs / "events.csv")
    for _, args in workloads.commands("analyze", workloads.DEFAULT_SEED, inputs, out):
        main.main(args=args, prog_name="backproc", standalone_mode=False)
    return out


def test_the_cohort_has_the_benchmark_shape(cohort):
    window = EstimandWindow(t1=workloads.T1, t2=workloads.T2, tau0=1.0)
    shape = (cohort.time.size, cohort.in_window(window).size,
             default_grid(cohort, window).size)
    assert shape == workloads.ANALYZE_SHAPE


@pytest.mark.parametrize("label", LABELS)
def test_output_matches_the_benchmark_reference(outputs, label):
    assert check.compare_reference("analyze", label, outputs) == []
