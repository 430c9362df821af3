"""Shared fixtures: hand-checkable cohorts and a random-cohort builder. The
direct definitions that the estimators are checked against are in
``reference.py``."""

import os
from pathlib import Path

import numpy as np
import pytest

from backproc import EstimandWindow, ProcessEvent, SubjectRecord, validate_cohort

SRC = str(Path(__file__).resolve().parent.parent / "src")

# values that are no id, a cohort's id being a non-empty str; a tuple is one id
NON_IDS = [None, 3, np.int64(3), True, b"a", 1.0, ["a"], ("a", "b"), ""]


def pytest_configure(config):
    """Let child processes (``python -m backproc.cli``) import the checkout:
    the ``pythonpath`` ini setting reaches only this process."""
    inherited = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = SRC + (os.pathsep + inherited if inherited else "")


@pytest.fixture
def censored_fixture():
    """Three subjects, one censored; mu_hat_{1,4}(1) = 3.5 by hand."""
    return validate_cohort(
        [
            SubjectRecord(id="A", w=0.0, x=2.0, delta=1, events=(ProcessEvent(1.5, 5.0),)),
            SubjectRecord(id="B", w=0.0, x=3.0, delta=0),
            SubjectRecord(id="C", w=0.0, x=1.5, delta=1, events=(ProcessEvent(0.5, 2.0),)),
        ]
    )


@pytest.fixture
def censored_window():
    return EstimandWindow(t1=1.0, t2=4.0, tau0=1.0)


@pytest.fixture
def complete_fixture():
    """Complete data (no truncation, no censoring): T = {2, 3, 1.5} with
    V(1) = {5, 4, 2}; every weight S_hat(x_i)/R(x_i) equals 1."""
    return validate_cohort(
        [
            SubjectRecord(id="a", w=0.0, x=2.0, delta=1, events=(ProcessEvent(1.5, 5.0),)),
            SubjectRecord(id="b", w=0.0, x=3.0, delta=1, events=(ProcessEvent(2.5, 4.0),)),
            SubjectRecord(id="c", w=0.0, x=1.5, delta=1, events=(ProcessEvent(0.8, 2.0),)),
        ]
    )


@pytest.fixture
def complete_window():
    return EstimandWindow(t1=1.0, t2=10.0, tau0=1.0)


def random_cohort(seed, n=40, censor=True, truncate=True, max_events=6):
    """Small random left-truncated right-censored cohort for property tests.

    Guarantees at least two uncensored subjects with x in [1, 8) so the
    default window below is never degenerate.
    """
    rng = np.random.default_rng(seed)
    subjects = []
    for i in range(n):
        w = float(rng.uniform(0, 2)) if (truncate and rng.random() < 0.4) else 0.0
        t = float(w + rng.gamma(2.0, 1.0)) + 0.05
        if censor and rng.random() < 0.3:
            x = float(rng.uniform(w, t))
            delta = 0
        else:
            x, delta = t, 1
        k = int(rng.integers(0, max_events + 1))
        times = np.sort(rng.uniform(w, x, k))
        events = tuple(
            ProcessEvent(float(tt), float(rng.gamma(2.0, 1.0))) for tt in times
        )
        subjects.append(SubjectRecord(id=f"r{i}", w=w, x=x, delta=delta, events=events))
    # anchor subjects so the window [1, 8) always has failure mass
    subjects.append(
        SubjectRecord(id="anchor1", w=0.0, x=1.6, delta=1, events=(ProcessEvent(1.1, 1.0),))
    )
    subjects.append(
        SubjectRecord(id="anchor2", w=0.0, x=3.1, delta=1, events=(ProcessEvent(2.9, 2.0),))
    )
    return validate_cohort(subjects)


def lone_failure_cohort():
    """Three subjects, of whom only a fails in [1, 8): there V is the same
    for every in-window subject, so psi and sigma_hat are zero at every u."""
    return validate_cohort(
        [
            SubjectRecord(id="a", w=0.0, x=2.0, delta=1, events=(ProcessEvent(1.5, 2.3),)),
            SubjectRecord(id="b", w=0.0, x=0.5, delta=1),
            SubjectRecord(id="c", w=0.0, x=9.0, delta=0),
        ]
    )


def reordered_marks_cohort():
    """Two subjects failing at 2 with the same marks 0.1, 0.1 and 1.0 at
    offsets 0, 0.25 and 0.5 in another order: V is the same for both in
    exact arithmetic, but summed in stored order it is 1.2 for one and
    1.2000000000000002 for the other at u >= 0.5 on the grid (0.5, 1.0)."""
    return validate_cohort(
        [
            SubjectRecord(id="a", w=0.0, x=2.0, delta=1, events=(
                ProcessEvent(1.5, 0.1), ProcessEvent(1.75, 0.1), ProcessEvent(2.0, 1.0))),
            SubjectRecord(id="c", w=0.0, x=2.0, delta=1, events=(
                ProcessEvent(1.5, 0.1), ProcessEvent(1.75, 1.0), ProcessEvent(2.0, 0.1))),
        ]
    )


@pytest.fixture
def property_window():
    return EstimandWindow(t1=1.0, t2=8.0, tau0=1.0)
