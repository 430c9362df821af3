import json

import pytest
from click.testing import CliRunner

from backproc import write_cohort
from backproc.cli import main

from conftest import random_cohort


@pytest.fixture
def data_files(tmp_path):
    cohort = random_cohort(10, n=50)
    sp = tmp_path / "subjects.csv"
    ep = tmp_path / "events.csv"
    write_cohort(cohort, sp, ep)
    return str(sp), str(ep)


def run(args):
    return CliRunner().invoke(main, args, catch_exceptions=False)


WINDOW = ["--t1", "1", "--t2", "8", "--tau0", "1"]


def data_args(data_files):
    sp, ep = data_files
    return ["--subjects", sp, "--events", ep]


class TestSubcommands:
    def test_survival(self, data_files, tmp_path):
        out = tmp_path / "surv.csv"
        res = run(["survival", *data_args(data_files), "--out", str(out)])
        assert res.exit_code == 0
        header = out.read_text().splitlines()[0]
        assert header == "t,s_hat,risk_fraction,cum_hazard"
        sidecar = json.loads(out.with_suffix(".json").read_text())
        assert sidecar["command"] == "survival" and sidecar["n"] == 52

    def test_mean(self, data_files, tmp_path):
        out = tmp_path / "mean.csv"
        res = run(["mean", *data_args(data_files), *WINDOW, "--out", str(out)])
        assert res.exit_code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "u,mu,se,ci_lo,ci_hi"
        assert len(lines) > 2

    def test_bands_and_quantile_and_dist(self, data_files, tmp_path):
        for cmd, extra, header in [
            ("bands", ["--seed", "4", "--band-reps", "200"],
             "u,mu,se,ci_lo,ci_hi,band_lo,band_hi"),
            ("quantile", ["--q", "0.5"], "u,q,m_hat"),
            ("dist", ["--u", "1.0"], "m,p_hat"),
        ]:
            out = tmp_path / f"{cmd}.csv"
            res = run([cmd, *data_args(data_files), *WINDOW, *extra, "--out", str(out)])
            assert res.exit_code == 0, res.output
            assert out.read_text().splitlines()[0] == header

    def test_rate_requires_exactly_one_bandwidth_source(self, data_files, tmp_path):
        out = tmp_path / "rate.csv"
        res = CliRunner().invoke(
            main, ["rate", *data_args(data_files), *WINDOW, "--out", str(out)]
        )
        assert res.exit_code != 0
        assert "exactly one" in res.output
        res = run(
            ["rate", *data_args(data_files), *WINDOW, "--bandwidth", "0.2", "--out", str(out)]
        )
        assert res.exit_code == 0
        assert out.read_text().splitlines()[0] == "u,r_hat,h_used"

    @pytest.mark.parametrize("grid, expected", [
        (None, [k / 100 for k in range(101)]),
        ("1,0.1,0.5", [0.1, 0.5, 1.0]),
    ])
    def test_rate_grid_default_and_sorted(self, data_files, tmp_path, grid, expected):
        out = tmp_path / "rate.csv"
        extra = [] if grid is None else ["--grid", grid]
        res = run(["rate", *data_args(data_files), *WINDOW, "--bandwidth", "0.2", *extra,
                   "--out", str(out)])
        assert res.exit_code == 0, res.output
        us = [float(line.split(",")[0]) for line in out.read_text().splitlines()[1:]]
        assert us == pytest.approx(expected, abs=1e-15)

    def test_forward_mean(self, data_files, tmp_path):
        out = tmp_path / "fwd.csv"
        res = run(["forward-mean", *data_args(data_files), "--out", str(out)])
        assert res.exit_code == 0
        assert out.read_text().splitlines()[0] == "t,mu_y"

    def test_simulate_table1_smoke(self, tmp_path):
        out = tmp_path / "t1.csv"
        res = run(
            ["simulate", "table1", "--n", "80", "--reps", "12", "--band-reps", "50",
             "--oracle-n", "50000", "--seed", "1", "--out", str(out)]
        )
        assert res.exit_code == 0, res.output
        lines = out.read_text().splitlines()
        assert lines[0].startswith("u,truth,")
        assert len(lines) == 11
        sidecar = json.loads(out.with_suffix(".json").read_text())
        assert "band_coverage" in sidecar["config"]


class TestErrorsAndDeterminism:
    def test_estimator_error_becomes_clean_exit(self, data_files, tmp_path):
        out = tmp_path / "mean.csv"
        res = CliRunner().invoke(
            main,
            ["mean", *data_args(data_files), "--t1", "7.9", "--t2", "8", "--tau0", "1",
             "--out", str(out)],
        )
        assert res.exit_code != 0
        assert "Error" in res.output

    def test_ingest_error_is_reported(self, tmp_path):
        sp = tmp_path / "s.csv"
        ep = tmp_path / "e.csv"
        sp.write_text("id,w,x\nA,0,1\n")
        ep.write_text("id,time,mark\n")
        out = tmp_path / "o.csv"
        res = CliRunner().invoke(
            main, ["survival", "--subjects", str(sp), "--events", str(ep), "--out", str(out)]
        )
        assert res.exit_code != 0
        assert "header" in res.output

    def test_seeded_bands_byte_identical(self, data_files, tmp_path):
        outs = []
        for name in ("b1.csv", "b2.csv"):
            out = tmp_path / name
            res = run(
                ["bands", *data_args(data_files), *WINDOW, "--seed", "11",
                 "--band-reps", "300", "--out", str(out)]
            )
            assert res.exit_code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
