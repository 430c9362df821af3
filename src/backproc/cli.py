"""Command-line interface.

Every subcommand writes a CSV (column order stable, fully described by the
header row) plus a JSON sidecar recording the command, its configuration, the
seed, the cohort size and the estimand window, so outputs are regenerable.
A domain error ends any command as ``Error: <message>`` with exit status 1;
any other exception is a bug and keeps its traceback.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
from pathlib import Path

import click
import numpy as np

from . import backward, dist as dist_mod, forward, rate as rate_mod
# the package root re-exports the bands() function under the same name, which
# shadows the submodule as a package attribute; import it by module path
from .bands import band_critical_values, pointwise_ci
from .bands import bands as bands_fn
from .io import IngestError, ingest, write_rows
from .model import CohortValidationError, EstimandWindow, InputContractError
from .simulate import SimConfig, run_study
from .survival import EmptyRiskSetError, product_limit

# the errors of input that the estimand or the file contract rejects; any
# other exception is a bug and keeps its traceback
DOMAIN_ERRORS = (InputContractError, CohortValidationError, IngestError, EmptyRiskSetError,
                 backward.DegenerateWindowError, OSError)


class _Group(click.Group):
    def invoke(self, ctx):
        """Run the subcommand; a domain error ends it as ``Error: <message>``."""
        try:
            return super().invoke(ctx)
        except DOMAIN_ERRORS as exc:
            raise click.ClickException(str(exc)) from exc


def _sidecar(out) -> Path:
    return Path(out).with_suffix(".json")


def _write(out, command: str, columns: dict, config: dict, seed, n, window) -> None:
    """Write the columns as the CSV ``out`` and the JSON sidecar beside it."""
    write_rows(out, columns)
    payload = {
        "command": command,
        "config": config,
        "config_hash": hashlib.sha256(
            json.dumps(config, sort_keys=True).encode()
        ).hexdigest(),
        "seed": seed,
        "n": n,
        "window": None if window is None else dataclasses.asdict(window),
    }
    _sidecar(out).write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )


def data_options(f):
    """--subjects and --events; the command is passed the ingested ``cohort``.
    An --out whose CSV or sidecar is one of the inputs is rejected before
    either is read."""

    @click.option("--subjects", "subjects_path", required=True, type=click.Path(exists=True),
                  help="subjects.csv (id,w,x,delta)")
    @click.option("--events", "events_path", required=True, type=click.Path(exists=True),
                  help="events.csv (id,time,mark)")
    @functools.wraps(f)
    def with_cohort(subjects_path, events_path, **kwargs):
        inputs = {Path(subjects_path).resolve(), Path(events_path).resolve()}
        out = kwargs["out"]
        for path in (Path(out), _sidecar(out)):
            if path.resolve() in inputs:
                raise click.BadParameter(f"{out!r} would overwrite the input file {str(path)!r}",
                                         param_hint="'--out'")
        return f(cohort=ingest(subjects_path, events_path), **kwargs)

    return with_cohort


def window_options(f):
    """--t1, --t2 and --tau0; the command is passed their ``window``."""

    @click.option("--t1", required=True, type=float, help="lower failure-time bound")
    @click.option("--t2", required=True, type=float, help="upper failure-time bound")
    @click.option("--tau0", required=True, type=float, help="backward horizon")
    @functools.wraps(f)
    def with_window(t1, t2, tau0, **kwargs):
        return f(window=EstimandWindow(t1=t1, t2=t2, tau0=tau0), **kwargs)

    return with_window


def _check_alpha(ctx, param, value):
    if not (0 < value < 1):  # NaN fails too
        raise click.BadParameter(f"must be in (0, 1), got {value}")
    return value


alpha_option = click.option("--alpha", default=0.05, show_default=True, type=float,
                            callback=_check_alpha)
band_reps_option = click.option("--band-reps", default=1000, show_default=True,
                                type=click.IntRange(min=1))


def _check_out(ctx, param, value):
    if _sidecar(value) == Path(value):
        raise click.BadParameter(f"{value!r} would be overwritten by its own JSON sidecar; "
                                 "give the CSV another suffix")
    return value


out_option = click.option("--out", required=True, type=click.Path(), callback=_check_out,
                          help="output CSV path; the JSON sidecar goes beside it")


def _parse_floats(ctx, param, value):
    """A comma-separated list of numbers, in the order given (None if unset),
    parsed before any input is read."""
    if value is None:
        return None
    try:
        return [float(v) for v in value.split(",")]
    except ValueError:
        raise click.BadParameter(f"expected comma-separated numbers, got {value!r}") from None


grid_option = click.option("--grid", default=None, callback=_parse_floats,
                           help="comma-separated backward times")


def _sorted_grid(grid, default):
    """The sorted --grid values, or the command's default grid, default()."""
    return default() if grid is None else np.array(sorted(grid))


def _mean_columns(curve, alpha) -> dict:
    lo, hi = pointwise_ci(curve, level=1 - alpha)
    return {"u": curve.grid, "mu": curve.mu, "se": curve.sigma / np.sqrt(curve.n),
            "ci_lo": lo, "ci_hi": hi}


@click.group(cls=_Group)
def main():
    """Estimation of stochastic processes counted backward from failure events,
    from left-truncated right-censored follow-up data."""


@main.command("survival")
@data_options
@out_option
def survival_cmd(cohort, out):
    """Product-limit survival curve export: (t, s_hat, risk_fraction, cum_hazard)."""
    curve = product_limit(cohort)
    columns = {"t": curve.event_times, "s_hat": curve.s_left,
               "risk_fraction": curve.risk_fraction, "cum_hazard": curve.cum_hazard}
    _write(out, "survival", columns, {}, None, cohort.n, None)


@main.command("mean")
@data_options
@window_options
@grid_option
@alpha_option
@out_option
def mean_cmd(cohort, window, grid, alpha, out):
    """Backward mean curve with pointwise confidence intervals."""
    grid = _sorted_grid(grid, lambda: backward.default_grid(cohort, window))
    curve = backward.backward_curve(cohort, window, grid)
    _write(out, "mean", _mean_columns(curve, alpha), {"alpha": alpha, "grid": grid.tolist()},
           None, cohort.n, window)


@main.command("bands")
@data_options
@window_options
@grid_option
@alpha_option
@band_reps_option
@click.option("--seed", default=0, show_default=True, type=click.IntRange(min=0))
@click.option("--band-kind", type=click.Choice(["plain", "log"]), default="plain",
              show_default=True)
@out_option
def bands_cmd(cohort, window, grid, alpha, band_reps, seed, band_kind, out):
    """Backward mean curve with simultaneous multiplier-bootstrap bands."""
    grid = _sorted_grid(grid, lambda: backward.default_grid(cohort, window))
    fit = band_critical_values(cohort, window, grid, m=band_reps, alpha=alpha, seed=seed)
    if np.isnan(fit.b_star):
        raise click.ClickException("sigma_hat is zero at every grid point; b_star undefined")
    columns = _mean_columns(fit.curve, alpha)
    result = bands_fn(fit.curve, fit.b_star, kind=band_kind)
    config = {
        "alpha": alpha, "band_reps": band_reps, "band_kind": band_kind,
        "grid": grid.tolist(),
        "critical_value": result.critical_value,
        "critical_value_constant_width": fit.b,
    }
    _write(out, "bands", {**columns, "band_lo": result.band_lo, "band_hi": result.band_hi},
           config, seed, cohort.n, window)


@main.command("dist")
@data_options
@window_options
@click.option("--u", "u_val", required=True, type=float, help="backward time")
@click.option("--t", "t_val", default=None, type=float,
              help="failure-time bound of the joint CDF (default: just below t2)")
@out_option
def dist_cmd(cohort, window, u_val, t_val, out):
    """Joint CDF of (V(u), T): (m, p_hat) at every observed backward value."""
    t_eff = t_val if t_val is not None else float(np.nextafter(window.t2, -np.inf))
    ms, ps = dist_mod.joint_cdf_slice(cohort, window, t_eff, u_val)
    _write(out, "dist", {"m": ms, "p_hat": ps}, {"u": u_val, "t": t_eff}, None, cohort.n,
           window)


@main.command("quantile")
@data_options
@window_options
@grid_option
@click.option("--q", "q_list", multiple=True, type=float, default=(0.25, 0.5, 0.75),
              show_default=True)
@out_option
def quantile_cmd(cohort, window, grid, q_list, out):
    """Weighted percentile curves: (u, q, m_hat) for each requested q."""
    grid = _sorted_grid(grid, lambda: backward.default_grid(cohort, window))
    m_hat = dist_mod.percentile_curve(cohort, window, q_list, grid)
    columns = {"u": np.tile(grid, len(q_list)), "q": np.repeat(q_list, grid.size),
               "m_hat": m_hat.ravel()}
    _write(out, "quantile", columns, {"q": list(q_list), "grid": grid.tolist()}, None,
           cohort.n, window)


@main.command("rate")
@data_options
@window_options
@grid_option
@click.option("--kernel", type=click.Choice(sorted(rate_mod.KERNELS)), default="epanechnikov",
              show_default=True)
@click.option("--bandwidth", default=None, type=float, help="fixed bandwidth")
@click.option("--bandwidth-grid", default=None, callback=_parse_floats,
              help="comma-separated candidate bandwidths for cross-validation")
@out_option
def rate_cmd(cohort, window, grid, kernel, bandwidth, bandwidth_grid, out):
    """Kernel-smoothed backward rate curve: (u, r_hat, h_used)."""
    if (bandwidth is None) == (bandwidth_grid is None):
        raise click.ClickException("provide exactly one of --bandwidth / --bandwidth-grid")
    h = bandwidth
    if h is None:
        h = rate_mod.select_bandwidth(cohort, window, kernel, bandwidth_grid)
    spec = rate_mod.KernelSpec(kernel=kernel, bandwidth=h)
    grid = _sorted_grid(grid, lambda: np.linspace(0.0, window.tau0, 101))
    values = rate_mod.backward_rate(cohort, window, grid, spec)
    _write(out, "rate", {"u": grid, "r_hat": values, "h_used": np.full(grid.size, h)},
           {"kernel": kernel, "bandwidth": h}, None, cohort.n, window)


@main.command("forward-mean")
@data_options
@out_option
def forward_mean_cmd(cohort, out):
    """Forward mean curve: (t, mu_y) at every observed event time."""
    times, values = forward.forward_mean_curve(cohort)
    _write(out, "forward-mean", {"t": times, "mu_y": values}, {}, None, cohort.n, None)


@main.group("simulate")
def simulate_group():
    """Monte Carlo study commands."""


@simulate_group.command("table1")
@click.option("--n", default=SimConfig.n, show_default=True, type=int)
@click.option("--reps", default=SimConfig.reps, show_default=True, type=int)
@band_reps_option
@alpha_option
@click.option("--seed", default=SimConfig.seed, show_default=True, type=click.IntRange(min=0))
@click.option("--oracle-n", default=SimConfig.oracle_n, show_default=True, type=int)
@out_option
def table1_cmd(out, **options):
    """Replication study over the built-in generative model; per-u report CSV."""
    config = SimConfig(**options)
    report = run_study(config)
    summary = {
        "band_coverage": report.band_coverage,
        "replicates_used": report.replicates_used,
        "replicates_failed": report.replicates_failed,
    }
    _write(out, "simulate table1", report.columns(), {**dataclasses.asdict(config), **summary},
           config.seed, config.n, config.window())
    click.echo(f"band coverage: {report.band_coverage:.4f} "
               f"({report.replicates_used} replicates, {report.replicates_failed} failed)")


if __name__ == "__main__":
    main()
