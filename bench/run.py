"""Benchmark of the backproc CLI: one workload per run, timed end to end and,
with --trace 1, traced per module.

    python3 bench/run.py --workload analyze --seed 12345 --seconds 40 --trace 0
    python3 bench/run.py --workload all        # every workload, one after another

Each run sets up its inputs several times in fresh processes (set-up time is
the median), then measures the workload in one more fresh process for
--seconds seconds, checking every output. With --trace 1 a further fresh
process runs one pass with every public backproc function wrapped, and the
per-layer figures are reported. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. Run from the root of a
source checkout; nothing is installed and nothing outside the checkout is
read or written.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.dont_write_bytecode = True  # leave no caches in the checkout

import workloads  # noqa: E402

SETUP_REPEATS = 3
# constant on both sides of any comparison; 1 thread was both faster and
# steadier than 2 on the study workload on a 2-core machine
BLAS_THREADS = "1"
RUN_TIMEOUT_S = 170
WORK_DIR = ROOT / ".bench_work"


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_child(args: list[str], deadline: float) -> tuple[dict, float]:
    """Run worker.py in a fresh process; return its JSON result and wall time."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting " + " ".join(args[:2]))
    t0 = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, str(BENCH_DIR / "worker.py"), *args],
                              cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the child
        raise BenchError(f"worker {' '.join(args[:2])} timed out") from exc
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args[:2])} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), elapsed


def median_over_passes(passes: list[dict], key: str, label: str | None = None) -> float:
    if label is None:
        return statistics.median(sum(p[key].values()) for p in passes)
    return statistics.median(p[key][label] for p in passes)


def run_workload(name: str, seed: int, seconds: float, trace: bool, write_reference: bool,
                 deadline: float) -> dict:
    work = WORK_DIR / f"{name}-{seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    setup_times = []
    for _ in range(SETUP_REPEATS):
        shape, elapsed = run_child(["setup", name, str(seed), str(work)], deadline)
        setup_times.append(elapsed)

    common = [name, str(seed), str(work), "--shape", json.dumps(shape)]
    measured, _ = run_child(["measure", *common, "--seconds", str(seconds),
                             *(["--write-reference"] if write_reference else [])], deadline)
    runs = [measured]
    passes = measured["passes"]
    wall = median_over_passes(passes, "wall")
    metrics = {
        "setup_s": statistics.median(setup_times),
        "wall_s": wall,
        "cpu_s": median_over_passes(passes, "cpu"),
        "peak_rss_mb": measured["peak_rss_mb"],
    }
    for label, _args in workloads.commands(name, seed, work, work):
        metrics[f"cmd.{label}_s"] = median_over_passes(passes, "wall", label)
    if name == "study":
        metrics["reps_per_s"] = workloads.STUDY_REPS / wall
    if trace:
        traced, _ = run_child(["measure", *common, "--trace"], deadline)
        runs.append(traced)
        metrics.update(traced["trace"]["metrics"])
        metrics["trace.overhead_s"] = traced["trace"]["metrics"]["trace.wall_s"] - wall
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    metrics["fail_ratio"] = failed / attempted
    result = {
        "workload": name,
        "seed": seed,
        "correct": not any(r["problems"] or r["errors"] for r in runs),
        "attempted": attempted,
        "failed": failed,
        "problems": sorted({p for r in runs for p in r["problems"]}),
        "errors": {k: v for r in runs for k, v in r["errors"].items()},
        "passes": len(passes),
        "setup_times_s": setup_times,
        "pass_samples": passes,
        "env": measured["env"],
        "metrics": metrics,
        "trace": traced["trace"] if trace else None,
    }
    (work / "result.json").write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    return result


def _unit(name: str, spec: dict) -> str:
    for section in ("end_to_end", "per_layer"):
        for m in spec[section]:
            if m["name"] == name:
                return m["unit"]
    return "ratio" if name == "fail_ratio" else "s" if name.endswith("_s") else "count"


def report(result: dict, spec: dict) -> None:
    shape = " ".join(f"{k}={v}" for k, v in result["env"]["shape"].items())
    print(f"workload {result['workload']}  seed {result['seed']}  passes {result['passes']}  "
          f"({shape})")
    for name, value in result["metrics"].items():
        print(f"  {name:34s} {value:>16.6g} {_unit(name, spec)}")
    for problem in result["problems"]:
        print(f"  CHECK FAILED: {problem}")
    for label, error in result["errors"].items():
        print(f"  COMMAND FAILED: {label}: {error}")
    if result["trace"]:
        for name, count in sorted(result["trace"]["exceptions"].items()):
            print(f"  exception through {name}: {count}")
    print("env " + json.dumps(result["env"], sort_keys=True))


def selected(result: dict, spec: dict, trace: bool) -> dict:
    out = {}
    for m in spec["per_layer" if trace else "end_to_end"]:
        name = m["name"]
        if name in result["metrics"]:
            value = result["metrics"][name]
        elif name.startswith("cmd.") or name == "reps_per_s":
            value = 0.0  # a command or the study this workload does not run
        else:
            raise KeyError(f"metric {name} was not measured")
        out[name] = {"value": value, "unit": m["unit"]}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.NAMES, "all"])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="store this run's outputs as the reference (default seed only)")
    ns = parser.parse_args(argv)
    if not (ROOT / "src" / "backproc" / "__init__.py").is_file():
        print(f"no backproc source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if ns.write_reference and ns.seed != workloads.DEFAULT_SEED:
        parser.error("--write-reference needs the default seed")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = workloads.NAMES if ns.workload == "all" else (ns.workload,)
    deadline = time.monotonic() + RUN_TIMEOUT_S * len(names)
    results = []
    try:
        for name in names:
            result = run_workload(name, ns.seed, ns.seconds, bool(ns.trace),
                                  ns.write_reference, deadline)
            report(result, spec)
            results.append(result)
            metrics = selected(result, spec, bool(ns.trace))
    except (BenchError, KeyError, ValueError) as exc:
        print(f"benchmark failed: {exc!r}", file=sys.stderr)
        return 1
    if len(results) > 1:
        metrics = {f"{r['workload']}.{k}": v for r in results
                   for k, v in selected(r, spec, bool(ns.trace)).items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
