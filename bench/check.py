"""Output checks of one pass.

At the default seed every output CSV and every sidecar scalar is compared
with the reference outputs committed under ``reference/<workload>/``, to a
relative tolerance of 1e-12. At every seed the outputs must also satisfy the
estimators' invariants. Each function returns a list of problems; an empty
list means the output passed.
"""

from __future__ import annotations

import gzip
import json
import math
from pathlib import Path

import numpy as np

RTOL = 1e-12
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
# the hash is of the config, whose values are compared one by one
UNCOMPARED_SIDECAR_KEYS = {"config_hash"}


def read_csv(path: Path) -> tuple[list[str], np.ndarray]:
    opener = gzip.open if path.suffix == ".gz" else open
    with opener(path, "rt", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    return header, data.reshape(-1, len(header))


def _close(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise agreement to RTOL relative to the largest magnitude in
    each column (norm-wise relative error), so that values that cancel to
    near zero are held to the column's precision."""
    scale = np.max(np.maximum(np.abs(a), np.abs(b)), axis=0, initial=0.0)
    return (a == b) | (np.abs(a - b) <= RTOL * scale)


def compare_csv(out: Path, ref: Path) -> list[str]:
    h_out, d_out = read_csv(out)
    h_ref, d_ref = read_csv(ref)
    if h_out != h_ref:
        return [f"{out.name}: header {h_out} != reference {h_ref}"]
    if d_out.shape != d_ref.shape:
        return [f"{out.name}: {d_out.shape[0]} rows, reference has {d_ref.shape[0]}"]
    bad = ~_close(d_out, d_ref)
    if np.any(bad):
        r, c = np.argwhere(bad)[0]
        return [f"{out.name}: {int(bad.sum())} values differ from the reference beyond "
                f"{RTOL:g}, first at row {r} column {h_out[c]}: "
                f"{float(d_out[r, c])!r} vs {float(d_ref[r, c])!r}"]
    return []


def _compare_json(a, b, where: str) -> list[str]:
    if isinstance(a, dict) and isinstance(b, dict):
        if set(a) - UNCOMPARED_SIDECAR_KEYS != set(b) - UNCOMPARED_SIDECAR_KEYS:
            return [f"{where}: keys {sorted(a)} != reference {sorted(b)}"]
        return [p for k in sorted(set(a) - UNCOMPARED_SIDECAR_KEYS)
                for p in _compare_json(a[k], b[k], f"{where}.{k}")]
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return [f"{where}: length {len(a)} != reference {len(b)}"]
        if a and all(isinstance(v, (int, float)) for v in a + b):
            ok = _close(np.array(a, dtype=float), np.array(b, dtype=float))
            return [] if np.all(ok) else [f"{where}: values differ from the reference"]
        return [p for i, (x, y) in enumerate(zip(a, b))
                for p in _compare_json(x, y, f"{where}[{i}]")]
    if isinstance(a, float) or isinstance(b, float):
        ok = (isinstance(a, (int, float)) and isinstance(b, (int, float))
              and (a == b or (math.isnan(a) and math.isnan(b))
                   or abs(a - b) <= RTOL * max(abs(a), abs(b))))
        return [] if ok else [f"{where}: {a!r} != reference {b!r}"]
    return [] if a == b else [f"{where}: {a!r} != reference {b!r}"]


def compare_reference(workload: str, label: str, out_dir: Path) -> list[str]:
    ref = REFERENCE_DIR / workload
    problems = compare_csv(out_dir / f"{label}.csv", ref / f"{label}.csv.gz")
    sidecar = json.loads((out_dir / f"{label}.json").read_text())
    ref_sidecar = json.loads((ref / f"{label}.json").read_text())
    return problems + _compare_json(sidecar, ref_sidecar, f"{label}.json")


def _nondecreasing(v: np.ndarray) -> bool:
    slack = RTOL * np.max(np.abs(v), initial=0.0)
    return bool(np.all(np.diff(v) >= -slack))


def _ordered(*cols: np.ndarray) -> bool:
    slack = RTOL * max(np.max(np.abs(c), initial=0.0) for c in cols)
    return all(bool(np.all(hi - lo >= -slack)) for lo, hi in zip(cols, cols[1:]))


def invariants(label: str, out_dir: Path, shape: dict) -> list[str]:
    """Properties every seed's outputs must have."""
    header, d = read_csv(out_dir / f"{label}.csv")
    col = {name: d[:, j] for j, name in enumerate(header)}
    problems = []

    def need(ok: bool, what: str):
        if not ok:
            problems.append(f"{label}.csv: {what}")

    need(bool(np.all(np.isfinite(d))), "non-finite values")
    need(d.shape[0] > 0, "no rows")
    if label == "survival":
        s = col["s_hat"]
        need(bool(np.all((s >= 0) & (s <= 1))), "s_hat outside [0, 1]")
        need(_nondecreasing(-s), "s_hat increases")
    elif label in ("mean", "bands"):
        need(d.shape[0] == shape["G"], f"{d.shape[0]} rows, expected G={shape['G']}")
        need(_nondecreasing(col["mu"]), "mu decreases in u")
        if label == "mean":
            need(_ordered(col["ci_lo"], col["mu"], col["ci_hi"]), "not ci_lo <= mu <= ci_hi")
        else:
            need(_ordered(col["band_lo"], col["ci_lo"], col["mu"], col["ci_hi"], col["band_hi"]),
                 "not band_lo <= ci_lo <= mu <= ci_hi <= band_hi")
    elif label == "dist":
        p = col["p_hat"]
        need(_ordered(np.zeros_like(p), p, np.ones_like(p)), "p_hat outside [0, 1]")
        need(_nondecreasing(p), "p_hat decreases in m")
    elif label == "quantile":
        need(d.shape[0] == shape["G"], f"{d.shape[0]} rows, expected G={shape['G']}")
    elif label in ("rate", "rate_cv"):
        need(_ordered(np.zeros_like(col["r_hat"]), col["r_hat"]), "negative r_hat")
    elif label == "forward_mean":
        need(_nondecreasing(col["mu_y"]), "forward mean decreases")
    elif label == "study":
        need(d.shape[0] == shape["G"], f"{d.shape[0]} rows, expected {shape['G']}")
        c = col["coverage"]
        need(bool(np.all((c >= 0) & (c <= 1))), "coverage outside [0, 1]")
        config = json.loads((out_dir / "study.json").read_text())["config"]
        need(config["replicates_failed"] <= 0.01 * config["reps"],
             f"{config['replicates_failed']} of {config['reps']} replicates failed (> 1%)")
    return problems
