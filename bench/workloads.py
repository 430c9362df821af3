"""The three benchmark workloads: how each makes its inputs from the seed and
which CLI commands it runs. See README.md for why each workload exists."""

from __future__ import annotations

from pathlib import Path

import numpy as np

DEFAULT_SEED = 12345
WINDOW = ["--t1", "1", "--t2", "8", "--tau0", "1"]
T1, T2 = 1.0, 8.0

# study: the replication study at n=400; the replicate count is the
# benchmark's choice, sized so that one pass takes about 6 s on 2 cores
STUDY_N = 400
STUDY_REPS = 200

# analyze: an n=400 cohort held at the shape of the seed-12345 cohort
# (events, in-window uncensored subjects K, lossless grid points G). The
# cost of forward-mean grows with events squared and that of rate
# cross-validation with K squared, so unconditioned cohorts spread the
# timings by about 10% from seed to seed. Among ANALYZE_CANDIDATES cohorts
# drawn from the seed, the one nearest this shape is used; at the default
# seed that is generate_cohort(n=400, seed=12345) itself.
ANALYZE_N = 400
ANALYZE_SHAPE = (3673, 241, 1244)
ANALYZE_CANDIDATES = 64

# bands_large: n=10,000 with an explicit 101-point grid, because the default
# lossless grid (about 30k points) does not fit in 7 GB at this size
LARGE_N = 10_000
LARGE_GRID = ",".join(repr(float(u)) for u in np.linspace(0.0, 1.0, 101))

NAMES = ("study", "analyze", "bands_large")


def _in_window(cohort) -> int:
    return sum(1 for s in cohort.subjects if s.delta == 1 and T1 <= s.x < T2)


def _shape(cohort, grid_points: int | None = None) -> dict:
    from backproc import EstimandWindow, default_grid

    if grid_points is None:
        grid_points = default_grid(cohort, EstimandWindow(t1=T1, t2=T2, tau0=1.0)).size
    return {
        "n": cohort.n,
        "events": sum(len(s.events) for s in cohort.subjects),
        "K": _in_window(cohort),
        "G": int(grid_points),
    }


def _analyze_cohort(seed: int):
    from backproc import SimConfig, generate_cohort

    config = SimConfig(n=ANALYZE_N)
    target = np.array(ANALYZE_SHAPE, dtype=float)
    best = None
    for i in range(ANALYZE_CANDIDATES):
        cohort = generate_cohort(config, seed if i == 0 else [seed, i])
        shape = _shape(cohort)
        size = np.array([shape["events"], shape["K"], shape["G"]])
        dist = float(np.sum((size / target - 1) ** 2))
        if best is None or dist < best[0]:
            best = (dist, cohort, shape)
    return best[1], best[2]


def make_inputs(workload: str, seed: int, input_dir: Path) -> dict:
    """Generate and write the workload's input CSVs; return their shape."""
    from backproc import SimConfig, generate_cohort, write_cohort

    if workload == "study":
        return {"n": STUDY_N, "reps": STUDY_REPS, "G": 10}
    if workload == "analyze":
        cohort, shape = _analyze_cohort(seed)
    elif workload == "bands_large":
        cohort = generate_cohort(SimConfig(n=LARGE_N), seed)
        shape = _shape(cohort, grid_points=101)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    input_dir.mkdir(parents=True, exist_ok=True)
    write_cohort(cohort, input_dir / "subjects.csv", input_dir / "events.csv")
    return shape


def commands(workload: str, seed: int, input_dir: Path,
             out_dir: Path) -> list[tuple[str, list[str]]]:
    """(label, CLI arguments) for each command of one pass, in order. The
    label names the output file ``<label>.csv`` and the ``cmd.<label>_s``
    metric."""
    data = ["--subjects", str(input_dir / "subjects.csv"),
            "--events", str(input_dir / "events.csv")]

    def out(label):
        return ["--out", str(out_dir / f"{label}.csv")]

    if workload == "study":
        return [("study", ["simulate", "table1", "--n", str(STUDY_N), "--reps", str(STUDY_REPS),
                           "--band-reps", "1000", "--seed", str(seed), *out("study")])]
    if workload == "analyze":
        return [
            ("survival", ["survival", *data, *out("survival")]),
            ("mean", ["mean", *data, *WINDOW, *out("mean")]),
            ("bands", ["bands", *data, *WINDOW, "--seed", "7", "--band-reps", "1000",
                       *out("bands")]),
            ("dist", ["dist", *data, *WINDOW, "--u", "1.0", *out("dist")]),
            ("quantile", ["quantile", *data, *WINDOW, "--q", "0.5", *out("quantile")]),
            ("rate", ["rate", *data, *WINDOW, "--bandwidth", "0.2", *out("rate")]),
            ("rate_cv", ["rate", *data, *WINDOW, "--bandwidth-grid", "0.05,0.1,0.2,0.4",
                         *out("rate_cv")]),
            ("forward_mean", ["forward-mean", *data, *out("forward_mean")]),
        ]
    if workload == "bands_large":
        grid = ["--grid", LARGE_GRID]
        return [
            ("survival", ["survival", *data, *out("survival")]),
            ("mean", ["mean", *data, *WINDOW, *grid, *out("mean")]),
            ("bands", ["bands", *data, *WINDOW, *grid, "--seed", "7", "--band-reps", "1000",
                       *out("bands")]),
        ]
    raise ValueError(f"unknown workload {workload!r}")
