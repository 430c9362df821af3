"""Tests of the benchmark's tracer and output checks.

    python3 -m pytest bench/test_bench.py -q
"""

import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import check
import tracer as tracer_mod

ROOT = Path(__file__).resolve().parent.parent


def test_self_times_add_up_to_wall_time():
    tr = tracer_mod.Tracer("test")

    def leaf():
        time.sleep(0.01)

    def failing():
        raise KeyError("x")

    leaf_w = tr.wrap("m.leaf", leaf)
    failing_w = tr.wrap("m.failing", failing)

    def middle():
        time.sleep(0.005)
        leaf_w()
        with pytest.raises(KeyError):
            failing_w()
        leaf_w()

    middle_w = tr.wrap("m.middle", middle)
    t0 = time.perf_counter()
    tr.span("cli.root", lambda: [middle_w(), leaf_w()])
    wall = time.perf_counter() - t0

    self_s, calls = tracer_mod.self_times(tr)
    assert calls == {"cli.root": 1, "m.middle": 1, "m.leaf": 3, "m.failing": 1}
    assert sum(self_s.values()) == pytest.approx(wall, abs=1e-3)
    assert self_s["m.leaf"] >= 0.03
    assert 0.005 <= self_s["m.middle"] < 0.015
    assert min(self_s.values()) >= 0
    assert dict(tr.exceptions) == {"m.failing:KeyError": 1}
    assert tr._stack == [-1]


def test_install_wraps_every_binding_and_spans_nest():
    # in a fresh interpreter, so the wrapped package does not leak into other tests
    script = f"""
import json, sys, time
sys.path[:0] = [{str(ROOT / 'src')!r}, {str(ROOT / 'bench')!r}]
import numpy as np
import backproc, backproc.cli
import tracer
from backproc import SimConfig, generate_cohort, EstimandWindow
tr = tracer.Tracer("t")
tracer.install(tr)
mods = [sys.modules[m] for m in ("backproc.survival", "backproc.backward",
                                 "backproc.forward", "backproc.cli")]
wrapped = {{id(m.product_limit) for m in mods}}
cohort = generate_cohort(SimConfig(n=200), 3)
t0 = time.perf_counter()
tr.span("cli.root", backproc.backward_curve, cohort, EstimandWindow(1, 8, 1), np.linspace(0, 1, 5))
wall = time.perf_counter() - t0
self_s, calls = tracer.self_times(tr)
print(json.dumps({{"distinct": len(wrapped),
                  "is_wrapper": hasattr(mods[0].product_limit, "__wrapped__"),
                  "calls": calls, "self_sum": sum(self_s.values()), "wall": wall}}))
"""
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         check=True).stdout
    r = json.loads(out.strip().splitlines()[-1])
    assert r["distinct"] == 1 and r["is_wrapper"]
    assert r["calls"]["survival.product_limit"] == 1
    assert r["calls"]["backward.WindowEngine.__init__"] == 1
    assert r["calls"]["model.backward_values"] > 0
    assert r["self_sum"] == pytest.approx(r["wall"], abs=1e-3)


def _write(path, header, rows):
    path.write_text(",".join(header) + "\n" + "\n".join(",".join(repr(float(v)) for v in r)
                                                       for r in rows) + "\n")


def test_compare_csv_tolerance(tmp_path):
    rows = np.array([[0.0, 1.0], [0.5, 3.25], [1.0, 1e-9]])
    _write(tmp_path / "ref.csv", ["u", "mu"], rows)
    _write(tmp_path / "same.csv", ["u", "mu"], rows * (1 + 1e-14))
    _write(tmp_path / "off.csv", ["u", "mu"], rows + [[0, 0], [0, 1e-9], [0, 0]])
    assert check.compare_csv(tmp_path / "same.csv", tmp_path / "ref.csv") == []
    assert check.compare_csv(tmp_path / "off.csv", tmp_path / "ref.csv")
    _write(tmp_path / "short.csv", ["u", "mu"], rows[:2])
    assert check.compare_csv(tmp_path / "short.csv", tmp_path / "ref.csv")


def test_invariants_catch_a_broken_band(tmp_path):
    header = ["u", "mu", "se", "ci_lo", "ci_hi", "band_lo", "band_hi"]
    good = [[0.0, 1.0, 0.1, 0.8, 1.2, 0.7, 1.3], [1.0, 2.0, 0.1, 1.8, 2.2, 1.7, 2.3]]
    _write(tmp_path / "bands.csv", header, good)
    assert check.invariants("bands", tmp_path, {"G": 2}) == []
    bad = [good[0], [1.0, 2.0, 0.1, 1.8, 2.2, 1.9, 2.3]]
    _write(tmp_path / "bands.csv", header, bad)
    assert check.invariants("bands", tmp_path, {"G": 2})
    decreasing = [good[1], good[0]]
    _write(tmp_path / "bands.csv", header, decreasing)
    assert check.invariants("bands", tmp_path, {"G": 2})
