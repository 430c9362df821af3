"""Summarize the runs kept under .bench_work/: per workload and metric, the
median, the quartiles and the spread (interquartile distance over the
median) across runs, as statistics.quantiles(values, n=4) gives them.
Untraced and traced runs are summarized apart.

    python3 bench/summarize.py [--out FILE]
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

WORK_DIR = Path(__file__).resolve().parent.parent / ".bench_work"


def summarize(results: list[dict]) -> dict:
    by_workload: dict[str, list[dict]] = {}
    for r in results:
        by_workload.setdefault(r["workload"], []).append(r)
    out = {}
    for workload, runs in sorted(by_workload.items()):
        metrics = {}
        names = dict.fromkeys(name for r in runs for name in r["metrics"])
        for name in names:
            values = [r["metrics"][name] for r in runs if name in r["metrics"]]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
            metrics[name] = {
                "runs": len(values), "median": median, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / median if median else None,
            }
        out[workload] = {
            "seeds": sorted(r["seed"] for r in runs),
            "all_correct": all(r["correct"] for r in runs),
            "env": runs[0]["env"],
            "metrics": metrics,
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", help="also write the summary as JSON here")
    ns = parser.parse_args(argv)
    results = [json.loads(p.read_text()) for p in sorted(WORK_DIR.glob("*/result.json"))]
    if not results:
        print(f"no runs under {WORK_DIR}", file=sys.stderr)
        return 1
    summary = {
        kind: summarize([r for r in results if bool(r["trace"]) == traced])
        for kind, traced in (("untraced", False), ("traced", True))
    }
    for kind, by_workload in summary.items():
        for workload, s in by_workload.items():
            print(f"{workload} ({kind}): {len(s['seeds'])} runs, all correct: {s['all_correct']}")
            for name, m in s["metrics"].items():
                spread = "" if m["spread"] is None else f"spread {m['spread']:.3f}"
                print(f"  {name:34s} median {m['median']:<12.6g} q1 {m['q1']:<12.6g} "
                      f"q3 {m['q3']:<12.6g} {spread}")
    if ns.out:
        Path(ns.out).write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
