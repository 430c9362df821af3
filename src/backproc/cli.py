"""Command-line interface.

Every subcommand writes a CSV (column order stable, fully described by the
header row) plus a JSON sidecar recording the command, its configuration, the
seed, the cohort size and the estimand window, so outputs are regenerable.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

import click
import numpy as np

from . import backward, dist as dist_mod, forward, rate as rate_mod
# the package root re-exports the bands() function under the same name, which
# shadows the submodule as a package attribute; import it by module path
from .bands import band_critical_values
from .bands import bands as bands_fn
from .io import IngestError, ingest, write_rows
from .model import CohortValidationError, EstimandWindow
from .simulate import SimConfig, run_study
from .survival import EmptyRiskSetError, product_limit

_ESTIMATOR_ERRORS = (
    CohortValidationError,
    IngestError,
    EmptyRiskSetError,
    backward.DegenerateWindowError,
    ValueError,
    RuntimeError,
    OSError,
)


def _sidecar(out: Path, command: str, config: dict, seed, n, window) -> None:
    payload = {
        "command": command,
        "config": config,
        "config_hash": hashlib.sha256(
            json.dumps(config, sort_keys=True).encode()
        ).hexdigest(),
        "seed": seed,
        "n": n,
        "window": window,
    }
    out.with_suffix(".json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _run(command, fn):
    try:
        fn()
    except _ESTIMATOR_ERRORS as exc:
        raise click.ClickException(str(exc)) from exc


def data_options(f):
    f = click.option("--subjects", "subjects_path", required=True, type=click.Path(exists=True),
                     help="subjects.csv (id,w,x,delta)")(f)
    f = click.option("--events", "events_path", required=True, type=click.Path(exists=True),
                     help="events.csv (id,time,mark)")(f)
    return f


def window_options(f):
    f = click.option("--t1", required=True, type=float, help="lower failure-time bound")(f)
    f = click.option("--t2", required=True, type=float, help="upper failure-time bound")(f)
    f = click.option("--tau0", required=True, type=float, help="backward horizon")(f)
    return f


def _parse_grid(grid_str, default):
    """The sorted --grid values, or the command's default grid, default()."""
    if grid_str:
        return np.array(sorted(float(v) for v in grid_str.split(",")))
    return default()


@click.group()
def main():
    """Estimation of stochastic processes counted backward from failure events,
    from left-truncated right-censored follow-up data."""


@main.command("survival")
@data_options
@click.option("--out", required=True, type=click.Path(), help="output CSV path")
def survival_cmd(subjects_path, events_path, out):
    """Product-limit survival curve export: (t, s_hat, risk_fraction, cum_hazard)."""

    def go():
        cohort = ingest(subjects_path, events_path)
        curve = product_limit(cohort)
        rows = [
            {
                "t": float(t),
                "s_hat": float(s),
                "risk_fraction": float(r),
                "cum_hazard": float(ch),
            }
            for t, s, r, ch in zip(
                curve.event_times, curve.s_left, curve.risk_fraction, curve.cum_hazard
            )
        ]
        write_rows(out, ["t", "s_hat", "risk_fraction", "cum_hazard"], rows)
        _sidecar(Path(out), "survival", {}, None, cohort.n, None)

    _run("survival", go)


@main.command("mean")
@data_options
@window_options
@click.option("--grid", "grid_str", default=None, help="comma-separated backward times")
@click.option("--alpha", default=0.05, show_default=True, type=float)
@click.option("--out", required=True, type=click.Path())
def mean_cmd(subjects_path, events_path, t1, t2, tau0, grid_str, alpha, out):
    """Backward mean curve with pointwise confidence intervals."""

    def go():
        cohort = ingest(subjects_path, events_path)
        window = EstimandWindow(t1=t1, t2=t2, tau0=tau0)
        grid = _parse_grid(grid_str, lambda: backward.default_grid(cohort, window))
        curve = backward.backward_curve(cohort, window, grid)
        lo, hi = backward.pointwise_ci(curve, level=1 - alpha)
        se = curve.sigma / np.sqrt(curve.n)
        rows = [
            {"u": float(u), "mu": float(m), "se": float(s), "ci_lo": float(a), "ci_hi": float(b)}
            for u, m, s, a, b in zip(curve.grid, curve.mu, se, lo, hi)
        ]
        write_rows(out, ["u", "mu", "se", "ci_lo", "ci_hi"], rows)
        _sidecar(
            Path(out), "mean", {"alpha": alpha, "grid": [float(u) for u in grid]},
            None, cohort.n, {"t1": t1, "t2": t2, "tau0": tau0},
        )

    _run("mean", go)


@main.command("bands")
@data_options
@window_options
@click.option("--grid", "grid_str", default=None, help="comma-separated backward times")
@click.option("--alpha", default=0.05, show_default=True, type=float)
@click.option("--band-reps", default=1000, show_default=True, type=int)
@click.option("--seed", default=0, show_default=True, type=int)
@click.option("--band-kind", type=click.Choice(["plain", "log"]), default="plain",
              show_default=True)
@click.option("--out", required=True, type=click.Path())
def bands_cmd(subjects_path, events_path, t1, t2, tau0, grid_str, alpha, band_reps, seed,
              band_kind, out):
    """Backward mean curve with simultaneous multiplier-bootstrap bands."""

    def go():
        cohort = ingest(subjects_path, events_path)
        window = EstimandWindow(t1=t1, t2=t2, tau0=tau0)
        grid = _parse_grid(grid_str, lambda: backward.default_grid(cohort, window))
        curve = backward.backward_curve(cohort, window, grid)
        lo, hi = backward.pointwise_ci(curve, level=1 - alpha)
        b, b_star = band_critical_values(
            cohort, window, grid, m=band_reps, alpha=alpha, seed=seed, fit=curve
        )
        result = bands_fn(curve, b_star, kind=band_kind)
        se = curve.sigma / np.sqrt(curve.n)
        rows = [
            {
                "u": float(u), "mu": float(m), "se": float(s),
                "ci_lo": float(a), "ci_hi": float(bb),
                "band_lo": float(bl), "band_hi": float(bh),
            }
            for u, m, s, a, bb, bl, bh in zip(
                curve.grid, curve.mu, se, lo, hi, result.band_lo, result.band_hi
            )
        ]
        write_rows(out, ["u", "mu", "se", "ci_lo", "ci_hi", "band_lo", "band_hi"], rows)
        _sidecar(
            Path(out), "bands",
            {
                "alpha": alpha, "band_reps": band_reps, "band_kind": band_kind,
                "grid": [float(u) for u in grid],
                "critical_value": result.critical_value,
                "critical_value_constant_width": b,
            },
            seed, cohort.n, {"t1": t1, "t2": t2, "tau0": tau0},
        )

    _run("bands", go)


@main.command("dist")
@data_options
@window_options
@click.option("--u", "u_val", required=True, type=float, help="backward time")
@click.option("--t", "t_val", default=None, type=float,
              help="failure-time bound of the joint CDF (default: just below t2)")
@click.option("--out", required=True, type=click.Path())
def dist_cmd(subjects_path, events_path, t1, t2, tau0, u_val, t_val, out):
    """Joint CDF of (V(u), T): (m, p_hat) at every observed backward value."""

    def go():
        cohort = ingest(subjects_path, events_path)
        window = EstimandWindow(t1=t1, t2=t2, tau0=tau0)
        t_eff = t_val if t_val is not None else float(np.nextafter(t2, -np.inf))
        ms, ps = dist_mod.joint_cdf_slice(cohort, window, t_eff, u_val)
        rows = [{"m": float(m), "p_hat": float(p)} for m, p in zip(ms, ps)]
        write_rows(out, ["m", "p_hat"], rows)
        _sidecar(Path(out), "dist", {"u": u_val, "t": t_eff}, None, cohort.n,
                 {"t1": t1, "t2": t2, "tau0": tau0})

    _run("dist", go)


@main.command("quantile")
@data_options
@window_options
@click.option("--grid", "grid_str", default=None, help="comma-separated backward times")
@click.option("--q", "q_list", multiple=True, type=float, default=(0.25, 0.5, 0.75),
              show_default=True)
@click.option("--out", required=True, type=click.Path())
def quantile_cmd(subjects_path, events_path, t1, t2, tau0, grid_str, q_list, out):
    """Weighted percentile curves: (u, q, m_hat) for each requested q."""

    def go():
        cohort = ingest(subjects_path, events_path)
        window = EstimandWindow(t1=t1, t2=t2, tau0=tau0)
        grid = _parse_grid(grid_str, lambda: backward.default_grid(cohort, window))
        m_hat = dist_mod.percentile_curve(cohort, window, q_list, grid)
        rows = [
            {"u": float(u), "q": float(q), "m_hat": float(m)}
            for q, row in zip(q_list, m_hat)
            for u, m in zip(grid, row)
        ]
        write_rows(out, ["u", "q", "m_hat"], rows)
        _sidecar(Path(out), "quantile", {"q": list(q_list), "grid": [float(u) for u in grid]},
                 None, cohort.n, {"t1": t1, "t2": t2, "tau0": tau0})

    _run("quantile", go)


@main.command("rate")
@data_options
@window_options
@click.option("--grid", "grid_str", default=None, help="comma-separated backward times")
@click.option("--kernel", type=click.Choice(sorted(rate_mod.KERNELS)), default="epanechnikov",
              show_default=True)
@click.option("--bandwidth", default=None, type=float, help="fixed bandwidth")
@click.option("--bandwidth-grid", default=None,
              help="comma-separated candidate bandwidths for cross-validation")
@click.option("--out", required=True, type=click.Path())
def rate_cmd(subjects_path, events_path, t1, t2, tau0, grid_str, kernel, bandwidth,
             bandwidth_grid, out):
    """Kernel-smoothed backward rate curve: (u, r_hat, h_used)."""

    def go():
        if (bandwidth is None) == (bandwidth_grid is None):
            raise click.ClickException("provide exactly one of --bandwidth / --bandwidth-grid")
        cohort = ingest(subjects_path, events_path)
        window = EstimandWindow(t1=t1, t2=t2, tau0=tau0)
        engine = backward.WindowEngine(cohort, window)
        if bandwidth is not None:
            h = bandwidth
        else:
            candidates = [float(v) for v in bandwidth_grid.split(",")]
            h = rate_mod.select_bandwidth(cohort, window, kernel, candidates, engine=engine)
        spec = rate_mod.KernelSpec(kernel=kernel, bandwidth=h)
        grid = _parse_grid(grid_str, lambda: np.linspace(0.0, tau0, 101))
        values = rate_mod.backward_rate(cohort, window, grid, spec, engine=engine)
        rows = [
            {"u": float(u), "r_hat": float(r), "h_used": float(h)}
            for u, r in zip(grid, values)
        ]
        write_rows(out, ["u", "r_hat", "h_used"], rows)
        _sidecar(Path(out), "rate", {"kernel": kernel, "bandwidth": h}, None, cohort.n,
                 {"t1": t1, "t2": t2, "tau0": tau0})

    _run("rate", go)


@main.command("forward-mean")
@data_options
@click.option("--out", required=True, type=click.Path())
def forward_mean_cmd(subjects_path, events_path, out):
    """Forward mean curve: (t, mu_y) at every observed event time."""

    def go():
        cohort = ingest(subjects_path, events_path)
        times, values = forward.forward_mean_curve(cohort)
        rows = [{"t": float(t), "mu_y": float(v)} for t, v in zip(times, values)]
        write_rows(out, ["t", "mu_y"], rows)
        _sidecar(Path(out), "forward-mean", {}, None, cohort.n, None)

    _run("forward-mean", go)


@main.group("simulate")
def simulate_group():
    """Monte Carlo study commands."""


@simulate_group.command("table1")
@click.option("--n", default=400, show_default=True, type=int)
@click.option("--reps", default=2000, show_default=True, type=int)
@click.option("--band-reps", default=1000, show_default=True, type=int)
@click.option("--alpha", default=0.05, show_default=True, type=float)
@click.option("--seed", default=0, show_default=True, type=int)
@click.option("--oracle-n", default=1_000_000, show_default=True, type=int)
@click.option("--out", required=True, type=click.Path())
def table1_cmd(n, reps, band_reps, alpha, seed, oracle_n, out):
    """Replication study over the built-in generative model; per-u report CSV."""

    def go():
        config = SimConfig(
            n=n, reps=reps, band_reps=band_reps, alpha=alpha, seed=seed, oracle_n=oracle_n
        )
        report = run_study(config)
        write_rows(
            out,
            [
                "u", "truth", "truth_mc_se", "naive_incident", "naive_prevalent",
                "estimate", "sse", "see", "coverage",
            ],
            report.rows(),
        )
        _sidecar(
            Path(out), "simulate table1",
            {
                **dataclasses.asdict(config),
                "band_coverage": report.band_coverage,
                "replicates_used": report.replicates_used,
                "replicates_failed": report.replicates_failed,
            },
            seed, n, {"t1": config.tau0, "t2": config.tau1, "tau0": config.tau0},
        )
        click.echo(f"band coverage: {report.band_coverage:.4f} "
                   f"({report.replicates_used} replicates, {report.replicates_failed} failed)")

    _run("simulate table1", go)


if __name__ == "__main__":
    main()
