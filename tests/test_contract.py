"""The input contract of the public arguments: a NaN backward time u,
failure time t, threshold m or horizon tau0 raises InputContractError, and
so does a value outside the range where the argument has one. The reader
of the number checks that range from the interval its caller passes (the
forward mean's t in [0, inf], the shift's tau0 in (0, inf), a level q in
(0, 1)), and the checks against a window keep their own (u in [0, tau0],
the joint CDF's t in [t1, t2)). A number or a 0-d array is a one-point
grid of u; a grid with more than one axis, a u that numpy cannot read as
numbers and more than one u where the argument is one backward time raise
InputContractError, and so do a t, m, q or tau0 that is text or a list
where one number is due, a count that is not an integer and a negative
seed. A bool, text or bytes ("0.05", b"1", True, np.True_) is no number,
backward time, count or seed, alone or in a sequence: in place of any of
them it raises InputContractError naming the argument. In a cohort's delta
or ptr column each of them, and a float, is refused by the cohort's
validation, and so is an integer too large for int64; the study's flag
shift_prevalent takes only a bool.

The sweep below calls every public callable with each of NaN, +-inf, -1, 0,
the text "abc" and an empty value in place of each argument in turn (an
argument that names a choice, such as a kernel, also gets a list, a dict,
None and a number), and the estimators on drawn edge cohorts: each call
either raises one of the errors that the CLI reports as ``Error:`` or
returns without a warning."""

import dataclasses
import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings

import backproc
from backproc import (
    Cohort,
    CohortValidationError,
    EstimandWindow,
    InputContractError,
    KernelSpec,
    ProcessEvent,
    SimConfig,
    SubjectRecord,
    apply_prevalent_shift,
    backward_curve,
    backward_mean,
    backward_rate,
    band_critical_values,
    bands,
    covariance,
    default_grid,
    estimating_fn,
    forward_mean,
    forward_mean_curve,
    generate_cohort,
    ingest,
    joint_cdf,
    joint_cdf_slice,
    naive_estimators,
    pearson_correlation,
    percentile,
    percentile_curve,
    pointwise_ci,
    product_limit,
    run_study,
    select_bandwidth,
    survival_at,
    true_mean_oracle,
    validate_cohort,
    weighted_sample,
    write_cohort,
)
from backproc.cli import DOMAIN_ERRORS
from backproc.survival import risk_at

from conftest import NON_IDS
from reference import edge_cases

NAN = math.nan
WINDOW = SimConfig().window()  # [t1, t2) = [1, 20), tau0 = 1
U_BAD = [NAN, -1.0, 5.0]
T_BAD = [NAN, 0.5, 20.0]
ONE_BAD = ["abc", [1.0, 2.0]]  # text, and a list where one number is due
Q_BAD = [NAN, 0.0, 1.0, *ONE_BAD, [0.25, 0.5]]  # the last two levels in (0, 1)
SPEC = KernelSpec(kernel="epanechnikov", bandwidth=0.2)

CALLS = {
    "backward_mean.u": (lambda c, x: backward_mean(c, WINDOW, x), U_BAD),
    "covariance.u": (lambda c, x: covariance(c, WINDOW, x, 0.5), U_BAD),
    "covariance.v": (lambda c, x: covariance(c, WINDOW, 0.5, x), U_BAD),
    "weighted_sample.u": (lambda c, x: weighted_sample(c, WINDOW, x), U_BAD),
    "naive_estimators.u": (lambda c, x: naive_estimators(c, WINDOW, x), U_BAD),
    "percentile.q": (lambda c, x: percentile(c, WINDOW, x, 0.5), Q_BAD),
    "percentile.u": (lambda c, x: percentile(c, WINDOW, 0.5, x), U_BAD),
    "percentile_curve.qs": (lambda c, x: percentile_curve(c, WINDOW, x, [0.5]),
                            [[NAN], "abc", [[0.5]]]),
    "pearson_correlation.u": (lambda c, x: pearson_correlation(c, WINDOW, x), U_BAD),
    "backward_rate.u": (lambda c, x: backward_rate(c, WINDOW, x, SPEC), U_BAD),
    "joint_cdf_slice.t": (lambda c, x: joint_cdf_slice(c, WINDOW, x, 0.5), T_BAD + ONE_BAD),
    "joint_cdf_slice.u": (lambda c, x: joint_cdf_slice(c, WINDOW, 5.0, x), U_BAD),
    "joint_cdf.m": (lambda c, x: joint_cdf(c, WINDOW, x, 5.0, 0.5), [NAN, *ONE_BAD]),
    "joint_cdf.t": (lambda c, x: joint_cdf(c, WINDOW, 10.0, x, 0.5), T_BAD + ONE_BAD),
    "joint_cdf.u": (lambda c, x: joint_cdf(c, WINDOW, 10.0, 5.0, x), U_BAD),
    "estimating_fn.q": (lambda c, x: estimating_fn(c, WINDOW, x, 10.0, 0.5), Q_BAD),
    "estimating_fn.m": (lambda c, x: estimating_fn(c, WINDOW, 0.5, x, 0.5), [NAN, *ONE_BAD]),
    "estimating_fn.u": (lambda c, x: estimating_fn(c, WINDOW, 0.5, 10.0, x), U_BAD),
    "forward_mean.t": (lambda c, x: forward_mean(c, x), [NAN, -1.0, *ONE_BAD]),
    "survival_at.t": (lambda c, x: survival_at(product_limit(c), x), [NAN, None, "abc"]),
    "risk_at.t": (lambda c, x: risk_at(c, x), [NAN, "abc"]),
    "apply_prevalent_shift.tau0": (lambda c, x: apply_prevalent_shift(c, x),
                                   [NAN, math.inf, 0.0, -1.0, *ONE_BAD]),
}


@pytest.fixture(scope="module")
def cohort():
    return generate_cohort(SimConfig(n=400), 12345)


@pytest.mark.parametrize("name, value", [
    pytest.param(name, value, id=f"{name}={value}")
    for name, (_, values) in CALLS.items() for value in values
])
def test_bad_scalar_raises(cohort, name, value):
    call, _ = CALLS[name]
    with pytest.raises(InputContractError):
        call(cohort, value)


# a grid is one axis of u; a 2-D one is rejected before numpy broadcasts it
GRID_CALLS = {
    "backward_curve": lambda c, g: backward_curve(c, WINDOW, g),
    "band_critical_values": lambda c, g: band_critical_values(c, WINDOW, g, m=10, seed=0),
    "percentile_curve": lambda c, g: percentile_curve(c, WINDOW, [0.5], g),
    "backward_rate": lambda c, g: backward_rate(c, WINDOW, g, SPEC),
}


@pytest.mark.parametrize("name", GRID_CALLS)
def test_two_dimensional_grid_raises(cohort, name):
    with pytest.raises(InputContractError, match=r"1-D grid, got shape \(1, 2\)"):
        GRID_CALLS[name](cohort, [[0.1, 0.2]])


# every grid is read by EstimandWindow.check_u: a number or a 0-d array is a
# one-point grid, and what numpy cannot read as numbers is an input error
ONE_POINT_CALLS = {
    **GRID_CALLS,
    "Cohort.backward_matrix": lambda c, g: c.backward_matrix(WINDOW, g),
}


def _arrays(result) -> list:
    """The fields of a result as arrays, nested results field by field."""
    if dataclasses.is_dataclass(result):
        return [a for f in dataclasses.fields(result) for a in _arrays(getattr(result, f.name))]
    return [np.atleast_1d(result)]


@pytest.mark.parametrize("u", [0.5, np.array(0.5)], ids=["number", "0-d array"])
@pytest.mark.parametrize("name", ONE_POINT_CALLS)
def test_a_number_is_a_one_point_grid(cohort, name, u):
    got, want = ONE_POINT_CALLS[name](cohort, u), ONE_POINT_CALLS[name](cohort, [0.5])
    for a, b in zip(_arrays(got), _arrays(want), strict=True):
        assert a.dtype == b.dtype and np.array_equal(a, b, equal_nan=True), (a, b)


# the vectorised readers give a Python float at a number or a 0-d array
def test_a_vectorised_reader_at_a_number_is_a_float(cohort):
    curve = product_limit(cohort)
    for u in (0.5, np.array(0.5)):
        for name, got in (("survival_at", survival_at(curve, u)), ("risk_at", risk_at(cohort, u)),
                          ("backward_rate", backward_rate(cohort, WINDOW, u, SPEC))):
            assert type(got) is float, (name, u, got)


@pytest.mark.parametrize("name", ONE_POINT_CALLS)
def test_a_grid_of_text_raises(cohort, name):
    with pytest.raises(InputContractError, match="1-D grid, got 'abc'"):
        ONE_POINT_CALLS[name](cohort, "abc")


# a single-u argument takes exactly one backward time; backward_rate takes a grid
SINGLE_U = [name for name in CALLS
            if name.endswith((".u", ".v")) and not name.startswith("backward_rate.")]


@pytest.mark.parametrize("value", [[0.5, 1.0], "abc"], ids=["two values", "text"])
@pytest.mark.parametrize("name", SINGLE_U)
def test_a_single_u_takes_one_number(cohort, name, value):
    call, _ = CALLS[name]
    with pytest.raises(InputContractError):
        call(cohort, value)


# what numpy would read as a number but the estimand does not: text, bytes
# and a bool, Python's or numpy's
NON_NUMBERS = ["0.05", b"1", True, np.True_]

# a count that is not an integer (a bool included) raises InputContractError
# naming it, before numpy sees it
COUNTS = {
    "n": (lambda c, x: SimConfig(n=x), [400.5, *NON_NUMBERS]),
    "reps": (lambda c, x: SimConfig(reps=x), [2.5, *NON_NUMBERS]),
    "band_reps": (lambda c, x: SimConfig(band_reps=x), [10.5, *NON_NUMBERS]),
    "oracle_n": (lambda c, x: SimConfig(oracle_n=x), [1000.5, *NON_NUMBERS]),
    "seed": (lambda c, x: SimConfig(seed=x), [1.5, *NON_NUMBERS]),
    "m": (lambda c, x: band_critical_values(c, WINDOW, [0.5], m=x, seed=0),
          [10.5, *NON_NUMBERS]),
}


@pytest.mark.parametrize("name, value", [
    pytest.param(name, value, id=f"{name}={value!r}")
    for name, (_, values) in COUNTS.items() for value in values
])
def test_non_integer_count_raises(cohort, name, value):
    call, _ = COUNTS[name]
    with pytest.raises(InputContractError, match=f"^{name} must be an integer"):
        call(cohort, value)


@pytest.mark.parametrize("seed", [-1, np.int64(-5)])
def test_negative_seed_raises(seed):
    with pytest.raises(InputContractError, match="^seed must be nonnegative"):
        SimConfig(seed=seed)


# a seed that np.random.default_rng refuses is an input error, not numpy's,
# and so is a bool, text or bytes, alone or among integer seeds, that it
# would take
SEEDED = {
    "band_critical_values": lambda c, s: band_critical_values(c, WINDOW, [0.5], m=10, seed=s),
    "generate_cohort": lambda c, s: generate_cohort(SimConfig(n=60), s),
    "true_mean_oracle": lambda c, s: true_mean_oracle(SimConfig(oracle_n=1000), s),
}


@pytest.mark.parametrize("seed", [NAN, math.inf, -1, *NON_NUMBERS, [0, True]])
@pytest.mark.parametrize("name", SEEDED)
def test_seed_that_numpy_refuses_raises(cohort, name, seed):
    with pytest.raises(InputContractError, match="^seed must be a nonnegative integer"):
        SEEDED[name](cohort, seed)


def test_a_sequence_of_integer_seeds_is_a_seed():
    config = SimConfig(n=60)
    got = generate_cohort(config, [12345, np.int64(1)])
    want = generate_cohort(config, np.random.default_rng([12345, 1]))
    assert np.array_equal(got.x, want.x) and np.array_equal(got.mark, want.mark)


# a kernel name that is not a string is an unknown kernel, hashable or not
@pytest.mark.parametrize("kernel", [["box"], {"box": "box"}], ids=["list", "dict"])
def test_unhashable_kernel_raises(cohort, kernel):
    with pytest.raises(InputContractError, match="^unknown kernel"):
        KernelSpec(kernel=kernel)
    with pytest.raises(InputContractError, match="^unknown kernel"):
        select_bandwidth(cohort, WINDOW, kernel, [0.1, 0.2])


def test_no_quantile_level_raises(cohort):
    with pytest.raises(InputContractError, match="qs must hold at least one q"):
        percentile_curve(cohort, WINDOW, [], [0.5])


def test_numpy_integer_counts_are_accepted(cohort):
    config = SimConfig(n=np.int64(400), reps=np.int64(2), band_reps=np.int64(10),
                       oracle_n=np.int64(1000))
    assert config.oracle_n == 1000
    # each count is stored as an int, so the configuration is plain JSON
    assert all(type(getattr(config, name)) is int
               for name in ("n", "reps", "band_reps", "oracle_n", "seed"))
    json.dumps(dataclasses.asdict(SimConfig(n=np.int64(60))))
    assert true_mean_oracle(config)[0].shape == (len(config.u_grid),)
    fit = band_critical_values(cohort, WINDOW, [0.5], m=np.int64(10), seed=0)
    assert math.isfinite(fit.b_star)


def test_the_study_config_holds_plain_values():
    # the grid as the checked tuple of floats and the flag as a bool, so that
    # the configuration hashes and is plain JSON
    config = SimConfig(u_grid=np.array([0.5, 1]), shift_prevalent=np.True_)
    assert config.u_grid == (0.5, 1.0) and all(type(u) is float for u in config.u_grid)
    assert config.shift_prevalent is True
    hash(config)
    json.dumps(dataclasses.asdict(config))
    assert SimConfig(u_grid=[0.5]).u_grid == (0.5,) and SimConfig(u_grid=0.5).u_grid == (0.5,)


# ------------------------------------------------------------------ the sweep

BAD = (NAN, math.inf, -math.inf, -1, 0)
TEXT = "abc"  # numpy reads it char by char where a sequence is due
SMALL = SimConfig(n=60, reps=2, band_reps=10, oracle_n=1000)


# the arguments that name one of a fixed set of choices
CHOICES = {"kernel", "kind"}


def bad_values(param, valid) -> list:
    """The values of the sweep for the argument ``param`` whose valid value
    is ``valid``: an empty string for a string (a path or a name), and also
    that name in a list and in a dict, None and a number for a choice; the
    empty sequence, text and the sequence with its first entry replaced for
    a sequence of numbers; and the bad numbers and text for a number. No
    value for an argument that is not swept (a cohort, window, curve or
    config)."""
    number = (int, float)
    if isinstance(valid, str):
        return ["", [valid], {valid: valid}, None, 3] if param in CHOICES else [""]
    if isinstance(valid, (list, tuple)) and valid and all(isinstance(v, number) for v in valid):
        return [type(valid)(), TEXT, *(type(valid)([v, *valid[1:]]) for v in BAD)]
    return [*BAD, TEXT] if isinstance(valid, number) else []


@pytest.fixture(scope="module")
def sweep_inputs(tmp_path_factory):
    """The valid objects that each swept call is built from."""
    cohort = generate_cohort(SMALL, 12345)
    files = tmp_path_factory.mktemp("sweep")
    subjects, events = str(files / "subjects.csv"), str(files / "events.csv")
    write_cohort(cohort, subjects, events)
    return {
        "cohort": cohort,
        "curve": backward_curve(cohort, WINDOW, [0.5, 1.0]),
        "survival": product_limit(cohort),
        "subjects": subjects,
        "events": events,
        "out": (str(files / "out_subjects.csv"), str(files / "out_events.csv")),
    }


def _process_event(**fields):
    return validate_cohort([SubjectRecord("a", 0.0, 2.0, 1, (ProcessEvent(**fields),))])


# every name of backproc.__all__ that takes an argument to sweep: the
# callable, and its valid keyword arguments from the sweep inputs
SWEEP = {
    "Cohort": lambda s: (Cohort.from_columns, dict(
        ids=["a", "b"], w=[0.0, 0.5], x=[2.0, 3.0], delta=[1, 0], ptr=[0, 1, 2],
        time=[1.0, 2.0], mark=[1.0, 1.0])),
    "EstimandWindow": lambda s: (EstimandWindow, dict(t1=1.0, t2=20.0, tau0=1.0)),
    "KernelSpec": lambda s: (KernelSpec, dict(kernel="epanechnikov", bandwidth=0.2)),
    "ProcessEvent": lambda s: (_process_event, dict(time=1.0, mark=1.0)),
    "SimConfig": lambda s: (lambda **kw: run_study(SimConfig(**kw)),
                            dataclasses.asdict(SMALL)),
    "SubjectRecord": lambda s: (lambda **kw: validate_cohort([SubjectRecord(**kw)]),
                                dict(id="a", w=0.0, x=2.0, delta=1)),
    "apply_prevalent_shift": lambda s: (apply_prevalent_shift,
                                        dict(cohort=s["cohort"], tau0=1.0)),
    "backward_curve": lambda s: (backward_curve,
                                 dict(cohort=s["cohort"], window=WINDOW, grid=[0.5, 1.0])),
    "backward_mean": lambda s: (backward_mean, dict(cohort=s["cohort"], window=WINDOW, u=0.5)),
    "backward_rate": lambda s: (backward_rate,
                                dict(cohort=s["cohort"], window=WINDOW, u=0.5, spec=SPEC)),
    "band_critical_values": lambda s: (band_critical_values, dict(
        cohort=s["cohort"], window=WINDOW, grid=[0.5, 1.0], m=10, alpha=0.05, seed=0)),
    "bands": lambda s: (bands, dict(curve=s["curve"], critical_value=2.0, kind="plain")),
    "covariance": lambda s: (covariance,
                             dict(cohort=s["cohort"], window=WINDOW, u=0.5, v=1.0)),
    "estimating_fn": lambda s: (estimating_fn,
                                dict(cohort=s["cohort"], window=WINDOW, q=0.5, m=10.0, u=0.5)),
    "forward_mean": lambda s: (forward_mean, dict(cohort=s["cohort"], t=2.0)),
    "generate_cohort": lambda s: (generate_cohort, dict(config=SMALL, seed=0)),
    "ingest": lambda s: (ingest, dict(subjects_path=s["subjects"], events_path=s["events"])),
    "joint_cdf": lambda s: (joint_cdf,
                            dict(cohort=s["cohort"], window=WINDOW, m=10.0, t=5.0, u=0.5)),
    "joint_cdf_slice": lambda s: (joint_cdf_slice,
                                  dict(cohort=s["cohort"], window=WINDOW, t=5.0, u=0.5)),
    "naive_estimators": lambda s: (naive_estimators,
                                   dict(cohort=s["cohort"], window=WINDOW, u=0.5)),
    "pearson_correlation": lambda s: (pearson_correlation,
                                      dict(cohort=s["cohort"], window=WINDOW, u=0.5)),
    "percentile": lambda s: (percentile,
                             dict(cohort=s["cohort"], window=WINDOW, q=0.5, u=0.5)),
    "percentile_curve": lambda s: (percentile_curve, dict(
        cohort=s["cohort"], window=WINDOW, qs=[0.25, 0.5], grid=[0.5, 1.0])),
    "pointwise_ci": lambda s: (pointwise_ci, dict(curve=s["curve"], level=0.95, kind="plain")),
    "select_bandwidth": lambda s: (select_bandwidth, dict(
        cohort=s["cohort"], window=WINDOW, kernel="epanechnikov", candidates=[0.1, 0.2])),
    "survival_at": lambda s: (survival_at, dict(curve=s["survival"], t=2.0)),
    "true_mean_oracle": lambda s: (true_mean_oracle, dict(config=SMALL, seed=0)),
    "weighted_sample": lambda s: (weighted_sample,
                                  dict(cohort=s["cohort"], window=WINDOW, u=0.5)),
    "write_cohort": lambda s: (write_cohort, dict(
        cohort=s["cohort"], subjects_path=s["out"][0], events_path=s["out"][1])),
}

# the names of backproc.__all__ with no argument of their own to sweep
NOT_SWEPT = {
    **dict.fromkeys(["BackwardCurve", "BandFit", "BandResult", "StudyReport", "SurvivalCurve",
                     "WeightedSample"], "a result, built only by the estimators"),
    **dict.fromkeys(["CohortValidationError", "DegenerateWindowError", "EmptyRiskSetError",
                     "IngestError", "InputContractError"], "an error type"),
    **dict.fromkeys(["default_grid", "forward_mean_curve", "product_limit", "validate_cohort"],
                    "takes only a cohort and a window, or records: swept on edge cohorts "
                    "and through SubjectRecord and ProcessEvent"),
    "run_study": "takes only a SimConfig, whose every field the SimConfig row sweeps",
}


def test_sweep_covers_every_public_name():
    assert set(SWEEP) | set(NOT_SWEPT) == set(backproc.__all__)
    assert not set(SWEEP) & set(NOT_SWEPT)


def _outcome(call, kwargs):
    """None if the call returns without a warning or raises a domain error,
    else what it did instead."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            call(**kwargs)
    except DOMAIN_ERRORS:
        return None
    except Exception as exc:  # noqa: BLE001 - any other exception is the finding
        return f"{type(exc).__name__}: {exc}"
    return None


@pytest.mark.parametrize("name", sorted(SWEEP))
def test_valid_call_returns(sweep_inputs, name):
    # the sweep starts from a call that works, so each error it sees is the
    # swept argument's
    call, kwargs = SWEEP[name](sweep_inputs)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        call(**kwargs)


@pytest.mark.parametrize("name", sorted(SWEEP))
def test_each_bad_argument_is_a_domain_error_or_a_result(sweep_inputs, name):
    call, valid = SWEEP[name](sweep_inputs)
    found = []
    for param, value in valid.items():
        for bad in bad_values(param, value):
            outcome = _outcome(call, {**valid, param: bad})
            if outcome is not None:
                found.append(f"{param}={bad!r}: {outcome}")
    assert not found, "\n".join(found)


# the message of a backward time (a u, v or grid) names u; the indicator
# and offset columns of a cohort are not numbers but cohort data, which the
# cohort's validation reads (test_a_cohort_column_holds_only_integers)
NAMED = {"u": "u", "v": "u", "grid": "u"}
COHORT_DATA = {"delta": "subject 'a': delta must be 0 or 1, got ",
               "ptr": "inconsistent cohort column shapes$"}
# what is no flag, though Python reads its truth value
NON_FLAGS = ["no", 1, None, NAN]


def non_number_values(valid) -> list:
    """The values that the sweep gives an argument whose valid value is
    ``valid`` in place of a number or a flag: each of NON_FLAGS for a bool
    (shift_prevalent), each of NON_NUMBERS for a number, and for a sequence
    of numbers each alone and in place of its first entry; no value for any
    other argument."""
    number = (int, float)
    if isinstance(valid, bool):
        return NON_FLAGS
    if isinstance(valid, number):
        return NON_NUMBERS
    if isinstance(valid, (list, tuple)) and valid and all(isinstance(v, number) for v in valid):
        return [*NON_NUMBERS, *(type(valid)([bad, *valid[1:]]) for bad in NON_NUMBERS)]
    return []


@pytest.mark.parametrize("name", sorted(SWEEP))
def test_each_non_number_is_refused_naming_the_argument(sweep_inputs, name):
    call, valid = SWEEP[name](sweep_inputs)
    found = []
    for param, value in valid.items():
        for bad in non_number_values(value) if param not in COHORT_DATA else []:
            try:
                call(**{**valid, param: bad})
                found.append(f"{param}={bad!r}: returned")
            except InputContractError as exc:
                if not re.match(rf"{NAMED.get(param, param)}\b", str(exc)):
                    found.append(f"{param}={bad!r}: {exc}")
    assert not found, "\n".join(found)


# numpy reads a bool in place of a 1 among integers as the integer 1; in a
# cohort's delta or ptr, each non-number and a float there is refused by the
# cohort's validation with the message it gives any bad entry of the column
@pytest.mark.parametrize("bad", [*NON_NUMBERS, 1.0], ids=repr)
@pytest.mark.parametrize("param", COHORT_DATA)
def test_a_cohort_column_holds_only_integers(sweep_inputs, param, bad):
    call, valid = SWEEP["Cohort"](sweep_inputs)
    column = list(valid[param])
    column[column.index(1)] = bad
    with pytest.raises(CohortValidationError, match=f"^{COHORT_DATA[param]}"):
        call(**{**valid, param: column})


# a list of Python ints is read as one column, and an integer too large for
# int64 there still reaches the cohort's validation, which names it
def test_a_huge_integer_delta_is_refused_by_the_validation(sweep_inputs):
    call, valid = SWEEP["Cohort"](sweep_inputs)
    message = f"subject 'a': delta must be 0 or 1, got {2 ** 70}"
    with pytest.raises(CohortValidationError, match=f"^{message}$"):
        call(**{**valid, "delta": [2 ** 70, 0]})


# in a cohort's ids column, each value that is no id is refused, naming the
# subject by its index
@pytest.mark.parametrize("bad", NON_IDS, ids=repr)
def test_a_cohort_id_is_a_non_empty_string(sweep_inputs, bad):
    call, valid = SWEEP["Cohort"](sweep_inputs)
    message = f"subject 1: id must be a non-empty string, got {bad!r}"
    with pytest.raises(CohortValidationError, match=f"^{re.escape(message)}$") as err:
        call(**{**valid, "ids": [valid["ids"][0], bad]})
    assert err.value.subject == 1


def _edge_calls(cohort, window, grid):
    u = float(grid[0])
    return {
        "product_limit": lambda: product_limit(cohort),
        "forward_mean_curve": lambda: forward_mean_curve(cohort),
        "apply_prevalent_shift": lambda: apply_prevalent_shift(cohort, window.tau0),
        "default_grid": lambda: default_grid(cohort, window),
        "band_critical_values": lambda: band_critical_values(cohort, window, grid, m=10, seed=0),
        "covariance": lambda: covariance(cohort, window, u, window.tau0),
        "percentile_curve": lambda: percentile_curve(cohort, window, [0.25, 0.5], grid),
        "joint_cdf_slice": lambda: joint_cdf_slice(cohort, window, window.t1, u),
        "estimating_fn": lambda: estimating_fn(cohort, window, 0.5, 1.0, u),
        "pearson_correlation": lambda: pearson_correlation(cohort, window, u),
        "naive_estimators": lambda: naive_estimators(cohort, window, u),
        "backward_rate": lambda: backward_rate(cohort, window, grid, SPEC),
        "select_bandwidth": lambda: select_bandwidth(cohort, window, "box", [0.1, 0.5]),
    }


@settings(max_examples=40, deadline=None)
@given(case=edge_cases())
def test_edge_cohorts_give_a_domain_error_or_a_result(case):
    found = [f"{name}: {outcome}" for name, call in _edge_calls(*case).items()
             if (outcome := _outcome(call, {})) is not None]
    assert not found, "\n".join(found)
