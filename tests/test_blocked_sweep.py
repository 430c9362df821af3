"""The column-blocked sweep and the event-ordered percentile sweep against
dense references on the whole grid.

The reference (``reference.dense_reference``) builds the K x G backward
values and psi at once; the blocked sweep must give the same mu, sigma, b
and b_star for any block width and grid order and the same V column by
column. ``percentile_curve`` must give the percentiles of the whole K x G
sort bit for bit (``reference.dense_percentiles``), ties and zero marks
included. Neither holds a K x G or m x G array.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import backproc.backward as backward_mod
from backproc import (
    SimConfig,
    band_critical_values,
    backward_curve,
    default_grid,
    generate_cohort,
    percentile_curve,
)
from backproc.backward import WindowEngine

from conftest import random_cohort
from reference import dense_percentiles, dense_reference, edge_cases

SEEDS = [0, 3, 5, 8, 12, 21, 33, 47]
M = 200
QS = [0.1, 0.25, 0.5, 0.75, 0.9]


def assert_matches_reference(cohort, window, grid, seed=1):
    mu, sigma, b, b_star = dense_reference(cohort, window, grid, M, seed)
    fit = band_critical_values(cohort, window, grid, m=M, seed=seed)
    curve = backward_curve(cohort, window, grid)
    for got in (fit.curve, curve):
        assert np.max(np.abs(got.mu - mu)) <= 1e-12 * np.max(np.abs(mu))
        assert np.max(np.abs(got.sigma - sigma)) <= 1e-12 * np.max(sigma)
    assert fit.b == pytest.approx(b, rel=1e-12)
    assert fit.b_star == pytest.approx(b_star, rel=1e-12)


def tied_unsorted(grid, seed):
    """The grid shuffled, with some of its points repeated."""
    rng = np.random.default_rng(seed)
    return rng.permutation(np.concatenate([grid, grid[::3]]))


@pytest.fixture(params=["1-column", "3-column", "7-column"])
def narrow_blocks(request, monkeypatch):
    width = int(request.param.split("-")[0])
    monkeypatch.setattr(backward_mod, "_block_width", lambda rows, cells: width)
    return width


@pytest.mark.parametrize("seed", SEEDS)
def test_lossless_grid_matches_dense_reference(seed, property_window):
    cohort = random_cohort(seed)
    assert_matches_reference(cohort, property_window, default_grid(cohort, property_window))


@pytest.mark.parametrize("seed", SEEDS[:4])
def test_unsorted_grid_with_ties_matches_dense_reference(seed, property_window):
    cohort = random_cohort(seed)
    grid = tied_unsorted(default_grid(cohort, property_window), seed)
    assert_matches_reference(cohort, property_window, grid)
    # tied grid points get equal estimates
    curve = backward_curve(cohort, property_window, grid)
    for u in grid[::3]:
        assert np.unique(curve.mu[grid == u]).size == 1


@pytest.mark.parametrize("seed", SEEDS[:3])
def test_narrow_blocks_match_dense_reference(seed, narrow_blocks, property_window):
    cohort = random_cohort(seed)
    grid = default_grid(cohort, property_window)
    assert_matches_reference(cohort, property_window, grid)
    assert_matches_reference(cohort, property_window, tied_unsorted(grid, seed))


@pytest.mark.parametrize("kind, seed", [
    *((kind, seed) for kind in ("lossless", "unsorted", "tied") for seed in (0, 12)),
    ("n=400", 12345),
])
def test_mu_and_sigma_do_not_depend_on_the_block_width(kind, seed, monkeypatch,
                                                      property_window):
    # mu and psi come from sums over the subjects of each grid column, so
    # the columns a block holds do not change them; b and b_star come from
    # g @ psi, a matrix product whose summation order may follow the width
    if kind == "n=400":
        config = SimConfig(n=400)
        cohort, window = generate_cohort(config, seed), config.window()
    else:
        cohort, window = random_cohort(seed), property_window
    grid = default_grid(cohort, window)
    if kind == "unsorted":
        grid = np.random.default_rng(seed).permutation(grid)
    elif kind == "tied":
        grid = tied_unsorted(grid, seed)
    results = {}
    for width in (grid.size, 1, 2, 3, 5, 7, 8, 9, 13):
        monkeypatch.setattr(backward_mod, "_block_width", lambda rows, cells: width)
        results[width] = (backward_curve(cohort, window, grid),
                          band_critical_values(cohort, window, grid, m=M, seed=1))
    whole, whole_fit = results.pop(grid.size)
    for width, (curve, fit) in results.items():
        for got in (curve, fit.curve):
            assert np.array_equal(got.mu, whole.mu), width
            assert np.array_equal(got.sigma, whole.sigma), width
        assert fit.b == pytest.approx(whole_fit.b, rel=1e-12)
        assert fit.b_star == pytest.approx(whole_fit.b_star, rel=1e-12)


def test_default_budget_of_one_cell_gives_one_column_blocks(monkeypatch, property_window):
    monkeypatch.setattr(backward_mod, "_SWEEP_CELLS", 1)
    cohort = random_cohort(5)
    grid = default_grid(cohort, property_window)
    width = backward_mod._block_width(cohort.in_window(property_window).size, 0)
    assert all(cols.size == 1 for cols, _ in cohort.backward_blocks(property_window, grid, width))
    assert_matches_reference(cohort, property_window, grid)


@pytest.mark.parametrize("width", [1, 2, 3, 7, 1000])
@pytest.mark.parametrize("seed", [0, 12, 33])
def test_backward_blocks_equal_backward_matrix(seed, width, property_window):
    cohort = random_cohort(seed)
    for grid in (default_grid(cohort, property_window),
                 tied_unsorted(default_grid(cohort, property_window), seed)):
        dense = cohort.backward_matrix(property_window, grid)
        seen = []
        for cols, v in cohort.backward_blocks(property_window, grid, width):
            assert cols.size <= width
            assert np.all(np.diff(grid[cols]) >= 0)
            assert np.array_equal(v, dense[:, cols])
            seen.append(cols)
        assert np.array_equal(np.sort(np.concatenate(seen)), np.arange(grid.size))


@pytest.mark.parametrize("seed", SEEDS[:4])
def test_percentile_curve_unchanged(seed, property_window):
    cohort = random_cohort(seed)
    grid = tied_unsorted(default_grid(cohort, property_window), seed)
    expected = dense_percentiles(cohort, property_window, QS, grid)
    assert np.array_equal(percentile_curve(cohort, property_window, QS, grid), expected)


EXTREME_QS = [1e-9, 1 - 1e-9]
QUANTILES = st.lists(st.sampled_from([*EXTREME_QS, 0.1, 0.25, 1 / 3, 0.5, 0.75, 0.9]),
                     min_size=1, max_size=4)


@settings(max_examples=200, deadline=None)
@given(case=edge_cases(), qs=QUANTILES)
def test_percentiles_rise_with_u(case, qs):
    # F_u(y) = sum_i w_i I(V_i(u) <= y) can only fall as u grows
    cohort, window, _ = case
    grid = default_grid(cohort, window)
    assert np.all(np.diff(percentile_curve(cohort, window, qs, grid), axis=1) >= 0)


@settings(max_examples=200, deadline=None)
@given(case=edge_cases(), qs=QUANTILES)
def test_sweep_equals_the_dense_sort_at_ties(case, qs):
    # unsorted grids with tied points; zero marks and shared offsets
    cohort, window, grid = case
    expected = dense_percentiles(cohort, window, qs, grid)
    assert np.array_equal(percentile_curve(cohort, window, qs, grid), expected)


@pytest.mark.parametrize("seed", SEEDS[:4])
def test_extreme_q_gives_an_observed_value(seed, property_window):
    cohort = random_cohort(seed)
    grid = tied_unsorted(default_grid(cohort, property_window), seed)
    got = percentile_curve(cohort, property_window, EXTREME_QS, grid)
    v = WindowEngine(cohort, property_window).v_matrix(grid)
    for j in range(grid.size):
        assert set(got[:, j]) <= set(v[:, j])
    assert np.array_equal(got, dense_percentiles(cohort, property_window, EXTREME_QS, grid))


def test_curve_is_the_bootstrap_without_replicates():
    # at n=2000 the bootstrap of m=1000 replicates sweeps wider blocks than
    # the curve; the curve must not depend on the width
    config = SimConfig(n=2000)
    cohort = generate_cohort(config, 12345)
    window = config.window()
    grid = default_grid(cohort, window)
    eng = WindowEngine(cohort, window)
    k = eng.in_window.size
    assert backward_mod._block_width(max(1000, k), 1000 * k // 8) > \
        backward_mod._block_width(k, 0)
    curve, sup_w, sup_t = eng.bootstrap(grid, np.empty((0, k)))
    assert sup_w.shape == sup_t.shape == (0,)
    expected = eng.curve(grid)
    fit = band_critical_values(cohort, window, grid, m=1000, seed=0)
    for got in (curve, fit.curve):
        assert np.array_equal(got.mu, expected.mu)
        assert np.array_equal(got.sigma, expected.sigma)


def test_lossless_grid_memory_stays_below_the_dense_arrays():
    # K x G is about 54 MB here; the sweep holds blocks and the (m, K) draw
    config = SimConfig(n=2000)
    cohort = generate_cohort(config, 12345)
    window = config.window()
    grid = default_grid(cohort, window)
    k = cohort.in_window(window).size
    assert 8 * k * grid.size > 50e6
    calls = {
        "backward_curve": lambda: backward_curve(cohort, window, grid),
        "band_critical_values": lambda: band_critical_values(cohort, window, grid, seed=0),
        "percentile_curve": lambda: percentile_curve(cohort, window, [0.25, 0.5, 0.75], grid),
    }
    for name, call in calls.items():
        tracemalloc.start()
        try:
            call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20, f"{name} peaked at {peak / 2**20:.1f} MiB"
