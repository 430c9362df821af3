import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from backproc import cli, write_cohort
from backproc.backward import WindowEngine
from backproc.cli import main

from conftest import lone_failure_cohort, random_cohort


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

    def test_bands_where_sigma_is_zero_everywhere_is_a_clean_error(self, data_files, tmp_path):
        out = tmp_path / "bands.csv"
        res = CliRunner().invoke(main, ["bands", *data_args(data_files), *WINDOW,
                                        "--grid", "0", "--band-reps", "50", "--out", str(out)])
        assert res.exit_code == 1
        assert "Error: sigma_hat is zero at every grid point" in res.output
        assert not out.exists()

    def test_bands_with_one_subject_in_the_window_is_a_clean_error(self, tmp_path):
        # sigma_hat is zero in exact arithmetic there, not rounding noise
        sp, ep, out = tmp_path / "subjects.csv", tmp_path / "events.csv", tmp_path / "b.csv"
        write_cohort(lone_failure_cohort(), sp, ep)
        res = CliRunner().invoke(main, ["bands", "--subjects", str(sp), "--events", str(ep),
                                        *WINDOW, "--grid", "0.5,1.0", "--band-reps", "1000",
                                        "--seed", "1", "--out", str(out)])
        assert res.exit_code == 1
        assert "Error: sigma_hat is zero at every grid point; b_star undefined" in res.output
        assert not out.exists()

    @pytest.mark.parametrize("exc", [
        ValueError("operands could not be broadcast together with shapes (3,) (4,)"),
        IndexError("index 4 is out of bounds for axis 0 with size 4"),
    ], ids=["ValueError", "IndexError"])
    def test_a_fault_in_an_estimator_keeps_its_traceback(self, data_files, tmp_path,
                                                         monkeypatch, exc):
        # numpy's own errors are bugs, not input errors: the command re-raises
        # them instead of ending with a clean "Error:" line
        def psi_matrix(self, v):
            raise exc

        monkeypatch.setattr(WindowEngine, "psi_matrix", psi_matrix)
        out = tmp_path / "mean.csv"
        res = CliRunner().invoke(main, ["mean", *data_args(data_files), *WINDOW,
                                        "--out", str(out)])
        assert res.exception is exc
        assert "Error:" not in res.output
        assert not out.exists()

    def test_a_fault_under_the_simulate_group_keeps_its_traceback(self, tmp_path, monkeypatch):
        exc = RuntimeError("generator raised StopIteration")

        def run_study(config):
            raise exc

        monkeypatch.setattr(cli, "run_study", run_study)
        res = CliRunner().invoke(main, ["simulate", "table1", "--reps", "2",
                                        "--out", str(tmp_path / "t1.csv")])
        assert res.exception is exc
        assert "Error:" not in res.output

    def test_table1_needs_two_replicates(self, tmp_path):
        out = tmp_path / "t1.csv"
        res = CliRunner().invoke(
            main, ["simulate", "table1", "--n", "100", "--reps", "1", "--band-reps", "50",
                   "--oracle-n", "1000", "--out", str(out)]
        )
        assert res.exit_code != 0
        assert "reps must be at least 2" in res.output
        assert not out.exists()

    def test_table1_oracle_without_draws_in_window(self, tmp_path):
        # the one oracle draw of seed 26 fails before tau0: there is no truth
        out = tmp_path / "t1.csv"
        res = CliRunner().invoke(
            main, ["simulate", "table1", "--n", "50", "--reps", "4", "--band-reps", "10",
                   "--oracle-n", "1", "--seed", "26", "--out", str(out)]
        )
        assert res.exit_code == 1
        assert "Error: no oracle draw" in res.output
        assert not out.exists()

    @pytest.mark.parametrize("cmd", ["mean", "bands", "simulate table1"])
    @pytest.mark.parametrize("alpha", ["1.5", "0"])
    def test_bad_alpha_names_the_flag(self, data_files, tmp_path, cmd, alpha):
        out = tmp_path / "o.csv"
        inputs = [] if cmd.startswith("simulate") else [*data_args(data_files), *WINDOW]
        res = CliRunner().invoke(
            main, [*cmd.split(), *inputs, "--alpha", alpha, "--out", str(out)]
        )
        assert res.exit_code != 0
        assert "--alpha" in res.output and alpha in res.output
        assert "level" not in res.output
        assert not out.exists()

    @pytest.mark.parametrize("cmd", ["bands", "simulate table1"])
    @pytest.mark.parametrize("reps", ["0", "-3"])
    def test_bad_band_reps_names_the_flag(self, data_files, tmp_path, cmd, reps):
        out = tmp_path / "o.csv"
        inputs = [] if cmd.startswith("simulate") else [*data_args(data_files), *WINDOW]
        res = CliRunner().invoke(
            main, [*cmd.split(), *inputs, "--band-reps", reps, "--out", str(out)]
        )
        assert res.exit_code != 0
        assert "Invalid value for '--band-reps'" in res.output and reps in res.output
        assert "replicate" not in res.output
        assert not out.exists()

    @pytest.mark.parametrize("cmd", [
        ["mean", "--grid"], ["bands", "--grid"], ["quantile", "--grid"],
        ["rate", "--bandwidth", "0.2", "--grid"], ["rate", "--bandwidth-grid"],
    ], ids=["mean", "bands", "quantile", "rate", "rate-cv"])
    @pytest.mark.parametrize("value", ["0.1,,0.5", "0.1,x", ""])
    def test_bad_number_list_fails_before_reading_inputs(self, data_files, tmp_path,
                                                         monkeypatch, cmd, value):
        read = []
        monkeypatch.setattr("backproc.cli.ingest", lambda *args: read.append(args))
        out = tmp_path / "o.csv"
        res = CliRunner().invoke(main, [cmd[0], *data_args(data_files), *WINDOW, *cmd[1:],
                                        value, "--out", str(out)])
        assert res.exit_code != 0
        assert f"Invalid value for '{cmd[-1]}'" in res.output and repr(value) in res.output
        assert "could not convert" not in res.output
        assert read == [] and not out.exists()

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


DATA = ["--subjects", "--events"]
WINDOW_OPTS = ["--t1", "--t2", "--tau0"]
# every option each command had before its options were shared through
# data_options and window_options
OPTIONS = {
    "survival": [*DATA, "--out"],
    "mean": [*DATA, *WINDOW_OPTS, "--grid", "--alpha", "--out"],
    "bands": [*DATA, *WINDOW_OPTS, "--grid", "--alpha", "--band-reps", "--seed",
              "--band-kind", "--out"],
    "dist": [*DATA, *WINDOW_OPTS, "--u", "--t", "--out"],
    "quantile": [*DATA, *WINDOW_OPTS, "--grid", "--q", "--out"],
    "rate": [*DATA, *WINDOW_OPTS, "--grid", "--kernel", "--bandwidth", "--bandwidth-grid",
             "--out"],
    "forward-mean": [*DATA, "--out"],
    "simulate table1": ["--n", "--reps", "--band-reps", "--alpha", "--seed", "--oracle-n",
                        "--out"],
    "simulate": ["table1"],
}


# the arguments besides the data and --out that each data command needs
DATA_COMMANDS = {
    "survival": [],
    "mean": WINDOW,
    "bands": [*WINDOW, "--band-reps", "50"],
    "dist": [*WINDOW, "--u", "0.5"],
    "quantile": WINDOW,
    "rate": [*WINDOW, "--bandwidth", "0.2"],
    "forward-mean": [],
}


class TestErrorBoundary:
    @pytest.fixture
    def censored_files(self, tmp_path):
        sp = tmp_path / "s.csv"
        ep = tmp_path / "e.csv"
        sp.write_text("id,w,x,delta\nA,0,2.0,0\nB,0,3.0,0\nC,0.5,4.0,0\n")
        ep.write_text("id,time,mark\nA,1.5,5.0\nB,2.5,1.0\nC,1.0,2.0\n")
        return str(sp), str(ep)

    @pytest.mark.parametrize("cmd", sorted(DATA_COMMANDS))
    def test_all_censored_cohort_is_a_clean_error(self, censored_files, tmp_path, cmd):
        out = tmp_path / "o.csv"
        res = CliRunner().invoke(
            main, [cmd, *data_args(censored_files), *DATA_COMMANDS[cmd], "--out", str(out)]
        )
        assert res.exit_code == 1
        assert "Error:" in res.output and "Traceback" not in res.output
        assert res.exception is None or isinstance(res.exception, SystemExit)
        assert not out.exists() and not out.with_suffix(".json").exists()

    @pytest.mark.parametrize("cmd", [*sorted(DATA_COMMANDS), "simulate table1"])
    def test_out_that_is_its_own_sidecar_fails_before_reading_inputs(
            self, data_files, tmp_path, monkeypatch, cmd):
        # the sidecar goes to --out with its suffix replaced by .json, which
        # would overwrite the CSV
        read = []
        monkeypatch.setattr("backproc.cli.ingest", lambda *args: read.append(args))
        out = tmp_path / "res.json"
        if cmd.startswith("simulate"):
            inputs = ["--n", "50", "--reps", "4", "--band-reps", "10", "--oracle-n", "1000"]
        else:
            inputs = [*data_args(data_files), *DATA_COMMANDS[cmd]]
        res = CliRunner().invoke(main, [*cmd.split(), *inputs, "--out", str(out)])
        assert res.exit_code == 2, res.output
        assert "Invalid value for '--out'" in res.output
        assert read == [] and not out.exists()

    @pytest.mark.parametrize("cmd", ["bands", "simulate table1"])
    def test_negative_seed_is_a_usage_error(self, data_files, tmp_path, cmd):
        out = tmp_path / "o.csv"
        if cmd.startswith("simulate"):
            inputs = ["--n", "50", "--reps", "4", "--band-reps", "10", "--oracle-n", "1000"]
        else:
            inputs = [*data_args(data_files), *DATA_COMMANDS[cmd]]
        res = CliRunner().invoke(main, [*cmd.split(), *inputs, "--seed", "-1",
                                        "--out", str(out)])
        assert res.exit_code == 2, res.output
        assert "Invalid value for '--seed'" in res.output
        assert not out.exists()

    @pytest.mark.parametrize("how", ["same path", "sidecar", "via .."])
    @pytest.mark.parametrize("name", ["subjects", "events"])
    @pytest.mark.parametrize("cmd", sorted(DATA_COMMANDS))
    def test_out_that_would_overwrite_an_input_fails_before_reading_it(
            self, data_files, tmp_path, monkeypatch, cmd, name, how):
        # an --out ending .csv has an input named .json as its sidecar
        suffix = ".json" if how == "sidecar" else ".csv"
        inputs = {}
        for key, path in zip(("subjects", "events"), data_files):
            inputs[key] = tmp_path / "in" / f"{key}{suffix}"
            inputs[key].parent.mkdir(exist_ok=True)
            inputs[key].write_bytes(Path(path).read_bytes())
        before = {key: path.read_bytes() for key, path in inputs.items()}
        out = {"same path": inputs[name], "sidecar": inputs[name].with_suffix(".csv"),
               "via ..": tmp_path / "in" / ".." / "in" / inputs[name].name}[how]
        read = []
        ingest = cli.ingest
        monkeypatch.setattr(cli, "ingest", lambda *args: read.append(args) or ingest(*args))
        args = ["--subjects", str(inputs["subjects"]), "--events", str(inputs["events"])]
        res = CliRunner().invoke(main, [cmd, *args, *DATA_COMMANDS[cmd], "--out", str(out)])
        assert res.exit_code == 2, res.output
        assert "Invalid value for '--out'" in res.output
        assert read == []
        assert {key: path.read_bytes() for key, path in inputs.items()} == before

    @pytest.mark.parametrize("cmd", sorted(OPTIONS))
    def test_help_exits_zero_and_lists_every_option(self, cmd):
        # --help raises click's Exit, a RuntimeError, inside the group's
        # invoke: the group catches only the domain errors, so Exit passes
        # and is not turned into "Error: 0"
        res = CliRunner().invoke(main, [*cmd.split(), "--help"])
        assert res.exit_code == 0, res.output
        assert "Error" not in res.output
        for name in OPTIONS[cmd]:
            assert name in res.output.split(), name
