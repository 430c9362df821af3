"""One fresh process of a benchmark run; started only by run.py.

    worker.py setup   <workload> <seed> <workdir>
        import backproc from the checkout, generate and write the inputs,
        print their shape as JSON
    worker.py measure <workload> <seed> <workdir> --shape JSON --seconds S [--trace]
        run passes of the workload's commands in this process, check every
        output, print the per-pass timings (and, traced, the per-layer
        figures) as JSON on the last line of standard output

Commands run in-process through the click entry point, so only the command
is timed, not interpreter start-up. Their own console output goes to
standard error.
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import hashlib
import inspect
import json
import os
import platform
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

import check  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import workloads  # noqa: E402

# per-layer metric -> ("self" | "calls", span name)
SPAN_METRICS = {
    "io.ingest_s": ("self", "io.ingest"),
    "io.write_rows_s": ("self", "io.write_rows"),
    "model.validate_cohort_s": ("self", "model.validate_cohort"),
    "model.apply_prevalent_shift_s": ("self", "model.apply_prevalent_shift"),
    "model.backward_values_s": ("self", "model.backward_values"),
    "model.backward_values_calls": ("calls", "model.backward_values"),
    "survival.product_limit_s": ("self", "survival.product_limit"),
    "survival.product_limit_calls": ("calls", "survival.product_limit"),
    "survival.risk_at_s": ("self", "survival.risk_at"),
    "survival.risk_at_calls": ("calls", "survival.risk_at"),
    "backward.engine_s": ("self", "backward.WindowEngine.__init__"),
    "backward.engine_calls": ("calls", "backward.WindowEngine.__init__"),
    "backward.default_grid_s": ("self", "backward.default_grid"),
    "backward.v_matrix_s": ("self", "backward.WindowEngine.v_matrix"),
    "backward.h_matrix_s": ("self", "backward.WindowEngine.h_matrix"),
    "backward.psi_matrix_s": ("self", "backward.WindowEngine.psi_matrix"),
    "bands.critical_values_s": ("self", "bands.band_critical_values"),
    "bands.critical_values_calls": ("calls", "bands.band_critical_values"),
    "dist.weighted_sample_s": ("self", "dist.weighted_sample"),
    "dist.weighted_sample_calls": ("calls", "dist.weighted_sample"),
    "dist.joint_cdf_s": ("self", "dist.joint_cdf"),
    "dist.percentile_s": ("self", "dist.percentile"),
    "rate.select_bandwidth_s": ("self", "rate.select_bandwidth"),
    "rate.subject_rate_calls": ("calls", "rate.subject_rate"),
    "rate.backward_rate_s": ("self", "rate.backward_rate"),
    "forward.forward_mean_curve_s": ("self", "forward.forward_mean_curve"),
    "forward.forward_mean_calls": ("calls", "forward.forward_mean"),
    "simulate.generate_cohort_s": ("self", "simulate.generate_cohort"),
    "simulate.true_mean_oracle_s": ("self", "simulate.true_mean_oracle"),
    "simulate.run_study_self_s": ("self", "simulate.run_study"),
}
# a median needs more than one sample, even when one pass outlasts --seconds
MIN_PASSES = 2
# figures computed from array shapes at the call boundary, not measured
COMPUTED_METRICS = ("io.rows_read", "survival.risk_matrix_bytes", "backward.coef_bytes",
                    "backward.in_window", "backward.grid_points", "bands.bootstrap_flops")


def _import_backproc():
    import backproc

    if not Path(backproc.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"backproc imported from {backproc.__file__}, not from {ROOT / 'src'}")
    return backproc


def install_hooks(tr: tracer_mod.Tracer) -> None:
    """Computed metrics: bytes of the dense risk and coefficient matrices,
    bootstrap flops, rows read and the fit's shape."""
    import numpy as np

    critical_sig = inspect.signature(sys.modules["backproc.bands"].band_critical_values)

    def rows_read(t, args, kwargs, cohort):
        t.counters["io.rows_read"] += cohort.n + sum(len(s.events) for s in cohort.subjects)

    def product_limit(t, args, kwargs, curve):
        cohort = args[0] if args else kwargs["cohort"]
        t.peak("survival.risk_matrix_bytes", curve.event_times.size * cohort.n)  # bool

    def risk_at(t, args, kwargs, out):
        t.peak("survival.risk_matrix_bytes", np.size(out) * args[0].n)

    def engine(t, args, kwargs, _):
        t.peak("backward.in_window", args[0].in_window.size)

    def v_matrix(t, args, kwargs, v):
        t.peak("backward.grid_points", v.shape[1])

    def h_matrix(t, args, kwargs, h):
        t.peak("backward.coef_bytes", 8 * h.shape[0] * args[0].x_in.size)  # float64

    def critical_values(t, args, kwargs, _):
        bound = critical_sig.bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        x, delta, w = a["cohort"].x_array(), a["cohort"].delta_array(), a["window"]
        k = int(np.sum((delta == 1) & (x >= w.t1) & (x < w.t2)))
        t.counters["bands.bootstrap_flops"] += 2 * a["m"] * k * len(a["grid"])

    tr.hooks.update({
        "io.ingest": rows_read,
        "survival.product_limit": product_limit,
        "survival.risk_at": risk_at,
        "backward.WindowEngine.__init__": engine,
        "backward.WindowEngine.v_matrix": v_matrix,
        "backward.WindowEngine.h_matrix": h_matrix,
        "bands.band_critical_values": critical_values,
    })


def environment(seed: int, shape: dict) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": _git_commit(),
        "src_sha256": src.hexdigest(),
        "seed": seed,
        "shape": shape,
    }


def _git_commit() -> str | None:
    # read without starting git; a checkout without .git has no commit
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _write_reference(workload: str, label: str, out_dir: Path) -> None:
    ref = check.REFERENCE_DIR / workload
    ref.mkdir(parents=True, exist_ok=True)
    with open(out_dir / f"{label}.csv", "rb") as src, \
            gzip.GzipFile(ref / f"{label}.csv.gz", "wb", mtime=0) as dst:
        shutil.copyfileobj(src, dst)
    shutil.copyfile(out_dir / f"{label}.json", ref / f"{label}.json")


def run_pass(main, cmds, workload, seed, out_dir, shape, tr, write_reference) -> dict:
    record = {"wall": {}, "cpu": {}, "attempted": 0, "failed": 0, "problems": [],
              "errors": {}, "replicates_failed": 0}
    out_dir.mkdir(parents=True, exist_ok=True)
    for label, args in cmds:
        def invoke():
            main.main(args=args, prog_name="backproc", standalone_mode=False)

        record["attempted"] += 1
        r0 = resource.getrusage(resource.RUSAGE_SELF)
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sys.stderr):
                if tr is None:
                    invoke()
                else:
                    tr.span(f"cli.{label}", invoke)
            raised = None
        except Exception as exc:  # a failed command is counted, not fatal
            traceback.print_exc()
            raised = type(exc).__name__
        t1 = time.perf_counter()
        r1 = resource.getrusage(resource.RUSAGE_SELF)
        record["wall"][label] = t1 - t0
        record["cpu"][label] = (r1.ru_utime - r0.ru_utime) + (r1.ru_stime - r0.ru_stime)
        if raised:
            record["errors"][label] = raised
            record["failed"] += 1
            continue
        problems = check.invariants(label, out_dir, shape)
        if write_reference:
            _write_reference(workload, label, out_dir)
        elif seed == workloads.DEFAULT_SEED:
            problems += check.compare_reference(workload, label, out_dir)
        if problems:
            record["problems"] += problems
            record["failed"] += 1
        if workload == "study":
            config = json.loads((out_dir / f"{label}.json").read_text())["config"]
            record["attempted"] += config["reps"]
            record["failed"] += config["replicates_failed"]
            record["replicates_failed"] = config["replicates_failed"]
    return record


def layer_metrics(tr: tracer_mod.Tracer, wall: float, replicates_failed: int) -> dict:
    self_s, calls = tracer_mod.self_times(tr)
    metrics = {}
    for metric, (kind, span) in SPAN_METRICS.items():
        metrics[metric] = self_s.get(span, 0.0) if kind == "self" else calls.get(span, 0)
    metrics["cli.self_s"] = sum(v for k, v in self_s.items() if k.startswith("cli."))
    for metric in COMPUTED_METRICS:
        metrics[metric] = tr.counters.get(metric, tr.peaks.get(metric, 0))
    metrics["simulate.replicates_failed"] = replicates_failed
    metrics["trace.exceptions"] = sum(tr.exceptions.values())
    metrics["trace.wall_s"] = wall
    metrics["trace.self_sum_s"] = sum(self_s.values())
    return {
        "metrics": metrics,
        "spans": {k: {"self_s": self_s[k], "calls": calls[k]} for k in sorted(self_s)},
        "exceptions": dict(tr.exceptions),
    }


def measure(ns) -> dict:
    _import_backproc()
    from backproc.cli import main

    work = Path(ns.workdir)
    shape = json.loads(ns.shape)
    tr = None
    if ns.trace:
        tr = tracer_mod.Tracer(run_id=f"{ns.workload}-{ns.seed}")
        tracer_mod.install(tr)
        install_hooks(tr)
    out_dir = work / ("out-traced" if ns.trace else "out")
    cmds = workloads.commands(ns.workload, ns.seed, work / "input", out_dir)

    passes = []
    start = time.perf_counter()
    while True:
        p = run_pass(main, cmds, ns.workload, ns.seed, out_dir, shape, tr,
                     ns.write_reference and not passes)
        passes.append(p)
        # one pass when traced; otherwise at least MIN_PASSES, then more until
        # --seconds have passed
        if ns.trace or (len(passes) >= MIN_PASSES
                        and time.perf_counter() - start >= ns.seconds):
            break

    result = {
        "passes": [{"wall": p["wall"], "cpu": p["cpu"]} for p in passes],
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "problems": sorted({msg for p in passes for msg in p["problems"]}),
        "errors": {k: v for p in passes for k, v in p["errors"].items()},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "replicates_failed": passes[-1]["replicates_failed"],
        "env": environment(ns.seed, shape),
    }
    if tr is not None:
        wall = sum(passes[0]["wall"].values())
        result["trace"] = layer_metrics(tr, wall, passes[0]["replicates_failed"])
        sums = result["trace"]["metrics"]
        if abs(sums["trace.self_sum_s"] - wall) > 1e-3 * wall + 1e-3:
            result["problems"].append(
                f"span self times sum to {sums['trace.self_sum_s']:.6f} s, "
                f"traced wall time is {wall:.6f} s")
        tr.write(work / "spans.csv.gz")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=["setup", "measure"])
    parser.add_argument("workload", choices=workloads.NAMES)
    parser.add_argument("seed", type=int)
    parser.add_argument("workdir")
    parser.add_argument("--shape", default="{}")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--write-reference", action="store_true")
    ns = parser.parse_args(argv)
    if ns.mode == "setup":
        _import_backproc()
        shape = workloads.make_inputs(ns.workload, ns.seed, Path(ns.workdir) / "input")
        print(json.dumps(shape))
    else:
        print(json.dumps(measure(ns)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
