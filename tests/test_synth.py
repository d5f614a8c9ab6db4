import io
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from innoreg import synth
from innoreg.panel import (DescriptiveStats, PanelError, VariableStats,
                           correlation_matrix, descriptive_stats)
from innoreg.synth import _solve_moments, nearest_psd, synthesize_panel

SMALL_STATS = (
    "name,count,mean,sd,min,max\n"
    "A,40,1.0,0.5,0.0,3.0\n"
    "B,40,10.0,2.0,4.0,18.0\n"
    "C,40,-1.0,1.0,-5.0,2.0\n"
)


def small_stats():
    return DescriptiveStats.from_csv(io.StringIO(SMALL_STATS))


def small_corr():
    return np.array([[1.0, 0.4, -0.2],
                     [0.4, 1.0, 0.1],
                     [-0.2, 0.1, 1.0]])


def test_nearest_psd_leaves_psd_alone():
    c = small_corr()
    np.testing.assert_allclose(nearest_psd(c), c, atol=1e-12)


def test_nearest_psd_repairs_indefinite():
    c = np.array([[1.0, 0.9, -0.9],
                  [0.9, 1.0, 0.9],
                  [-0.9, 0.9, 1.0]])  # negative eigenvalue
    fixed = nearest_psd(c)
    assert np.linalg.eigvalsh(fixed).min() >= 0
    np.testing.assert_allclose(np.diag(fixed), 1.0, atol=1e-12)


def test_moments_and_bounds_small():
    panel = synthesize_panel(small_stats(), small_corr(), seed=1, regions=10, years=4)
    got = descriptive_stats(panel)
    for nm in ("A", "B", "C"):
        st, tg = got.get(nm), small_stats().get(nm)
        assert st.mean == pytest.approx(tg.mean, rel=0.02, abs=1e-9)
        assert st.sd == pytest.approx(tg.sd, rel=0.02)
        assert st.min >= tg.min - 1e-9 and st.max <= tg.max + 1e-9
    assert panel.regions[0] == "R01" and panel.years[0] == 2001
    assert panel.n_obs == 40


def test_same_seed_bitwise_identical():
    a = synthesize_panel(small_stats(), small_corr(), seed=5, regions=8, years=5)
    b = synthesize_panel(small_stats(), small_corr(), seed=5, regions=8, years=5)
    assert a.to_csv() == b.to_csv()
    c = synthesize_panel(small_stats(), small_corr(), seed=6, regions=8, years=5)
    assert a.to_csv() != c.to_csv()


def test_identity_target_gives_near_zero_cross_correlation():
    eye = np.eye(3)
    panel = synthesize_panel(small_stats(), eye, seed=3, regions=12, years=6)
    got = correlation_matrix(panel, ["A", "B", "C"])
    off = got[~np.eye(3, dtype=bool)]
    assert np.abs(off).max() < 0.08


def test_corr_names_realignment():
    stats = small_stats()
    corr = small_corr()
    direct = synthesize_panel(stats, corr, seed=9, regions=8, years=5)
    # permute the matrix and hand over the permuted order
    perm = [2, 0, 1]  # C, A, B
    shuffled = corr[np.ix_(perm, perm)]
    renamed = synthesize_panel(stats, shuffled, seed=9, regions=8, years=5,
                               corr_names=["C", "A", "B"])
    assert direct.to_csv() == renamed.to_csv()
    with pytest.raises(PanelError, match="corr_names"):
        synthesize_panel(stats, shuffled, seed=9, corr_names=["C", "A", "X"])


def test_constant_variable_handled():
    text = SMALL_STATS + "K,40,7.0,0.0,7.0,7.0\n"
    stats = DescriptiveStats.from_csv(io.StringIO(text))
    corr = np.eye(4)
    panel = synthesize_panel(stats, corr, seed=2, regions=8, years=5)
    np.testing.assert_array_equal(panel.matrix("K"), np.full((8, 5), 7.0))
    assert panel.meta["constant_variables"] == ["K"]


def test_validation_errors():
    stats = small_stats()
    with pytest.raises(PanelError, match="shape"):
        synthesize_panel(stats, np.eye(2), seed=0)
    lop = small_corr()
    lop[0, 1] = 0.3  # symmetry broken
    with pytest.raises(PanelError, match="symmetric"):
        synthesize_panel(stats, lop, seed=0)
    diag = small_corr()
    diag[1, 1] = 0.9
    with pytest.raises(PanelError, match="diagonal"):
        synthesize_panel(stats, diag, seed=0)
    four = DescriptiveStats.from_csv(io.StringIO(
        SMALL_STATS + "D,40,0.0,1.0,-4.0,4.0\n"))
    with pytest.raises(PanelError, match="observations"):
        synthesize_panel(four, np.eye(4), seed=0, regions=2, years=2)
    with pytest.raises(PanelError, match="no variables in stats"):
        synthesize_panel(DescriptiveStats(variables={}), np.empty((0, 0)), seed=0)
    # a DescriptiveStats built in code refuses a mean below the minimum, as from_csv does
    bad = {**stats.variables, "B": VariableStats(count=40, mean=10.0, sd=2.0, min=11.0,
                                                 max=18.0)}
    with pytest.raises(PanelError, match="inconsistent stats for 'B'"):
        synthesize_panel(DescriptiveStats(variables=bad), small_corr(), seed=0)


@pytest.mark.parametrize("regions, years", [(1, 9), (13, 1), (0, 0)])
def test_too_small_grid_rejected_before_any_draw(regions, years, monkeypatch):
    def solve(*args, **kwargs):
        raise AssertionError("drew a sample for a grid too small to hold it")
    monkeypatch.setattr(synth, "_solve_moments", solve)
    with pytest.raises(PanelError, match="panel requires at least 2 regions and 2 years"):
        synthesize_panel(small_stats(), small_corr(), seed=0, regions=regions, years=years)


def test_unrepairable_correlation_rejected():
    c = np.array([[1.0, 0.99, -0.99],
                  [0.99, 1.0, 0.99],
                  [-0.99, 0.99, 1.0]])
    with pytest.raises(PanelError, match=r"repairable within 0\.1 \(needed 0\.4900\)"):
        synthesize_panel(small_stats(), c, seed=0, regions=10, years=4)


def test_bundled_targets_roundtrip(synthetic_panel, bundled_stats, bundled_corr):
    names, corr = bundled_corr
    meta = synthetic_panel.meta
    assert meta["seed"] == 42
    assert meta["n_obs"] == 117
    assert meta["psd_repair_max_abs"] < 0.01  # published matrix is slightly non-PSD

    got = correlation_matrix(synthetic_panel, list(names))
    iu = np.triu_indices(len(names), k=1)
    err = np.abs(got - corr)[iu]
    # tolerance measured on the bundled targets at seeds 42, 7 and 1 (at most
    # 0.106 and 0.0055): extreme skew/clipping caps what any bounded marginal
    # can reproduce
    assert err.max() <= 0.12
    assert err.mean() <= 0.01
    assert meta["corr_max_abs_error"] == pytest.approx(err.max(), abs=1e-12)

    stats = descriptive_stats(synthetic_panel)
    for nm in names:
        st, tg = stats.get(nm), bundled_stats.get(nm)
        assert st.mean == pytest.approx(tg.mean, rel=0.02, abs=1e-9)
        assert st.sd == pytest.approx(tg.sd, rel=0.02)
        assert st.min >= tg.min - 1e-9 and st.max <= tg.max + 1e-9


def assert_exact_moments(panel, stats, rtol=1e-9):
    for nm in stats.names():
        col, tg = panel.matrix(nm).ravel(), stats.get(nm)
        assert abs(col.mean() - tg.mean) <= rtol * abs(tg.mean), nm
        assert abs(col.std(ddof=1) - tg.sd) <= rtol * tg.sd, nm
        assert tg.min <= col.min() and col.max() <= tg.max, nm


@pytest.mark.parametrize("seed", [7, 42, 1])
def test_bundled_targets_exact_moments(seed, bundled_stats, bundled_corr):
    # seed 7 ended 2.3% off on RDPERS under the old rescale-and-clip loop
    names, corr = bundled_corr
    panel = synthesize_panel(bundled_stats, corr, seed=seed, corr_names=names)
    assert_exact_moments(panel, bundled_stats)
    meta = panel.meta
    assert meta["moment_max_rel_error"] <= 1e-12
    assert meta["moment_solve_max_iterations"] >= 1
    # README's maxima and mean, with 1e-3 of slack for BLAS rounding; no row
    # order gets below the floor
    assert meta["corr_max_abs_error"] <= {7: 0.0803, 42: 0.1055, 1: 0.0488}[seed] + 1e-3
    assert meta["corr_error_floor"] - 1e-12 <= meta["corr_max_abs_error"]
    assert meta["corr_mean_abs_error"] <= 0.0054 + 1e-3
    assert synthesize_panel(bundled_stats, corr, seed=seed,
                            corr_names=names).to_csv() == panel.to_csv()


def test_one_psd_repair_and_one_moment_solve(bundled_stats, bundled_corr, monkeypatch):
    calls = Counter()
    for name in ("nearest_psd", "_solve_moments"):
        def counted(*args, _real=getattr(synth, name), _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(synth, name, counted)
    names, corr = bundled_corr
    synth.synthesize_panel(bundled_stats, corr, seed=42, corr_names=names)
    assert calls == {"nearest_psd": 1, "_solve_moments": 1}


def test_bundled_error_is_stable_under_rounding_level_rescaling(
        synthetic_panel, bundled_stats, bundled_corr, monkeypatch):
    # the damped calibration loop gave 0.1428-0.1497 under these rescalings
    names, corr = bundled_corr
    real = synth._exact_corr_normals
    for j in (1, 4, 11):
        monkeypatch.setattr(synth, "_exact_corr_normals",
                            lambda *args, j=j: real(*args) * (1.0 + j * 1e-15))
        panel = synth.synthesize_panel(bundled_stats, corr, seed=42, corr_names=names)
        assert abs(panel.meta["corr_max_abs_error"]
                   - synthetic_panel.meta["corr_max_abs_error"]) < 1e-3


def test_larger_panel_reaches_its_floor_without_n_squared_memory(bundled_stats,
                                                                 bundled_corr):
    # n = 1000: one n × n float table takes 8 MB, and a swap moves C by
    # O(1/n), so single swaps alone need far more than the 40 sweeps here
    names, corr = bundled_corr
    tracemalloc.start()
    try:
        panel = synthesize_panel(bundled_stats, corr, seed=42, corr_names=names,
                                 regions=40, years=25)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6
    meta = panel.meta
    assert meta["n_obs"] == 1000
    assert meta["corr_max_abs_error"] <= meta["corr_error_floor"] + 0.005
    assert_exact_moments(panel, bundled_stats)


def test_unreachable_target_ends_on_its_floor():
    # right- and left-skewed marginals: sorting both columns together gives
    # the largest correlation they allow, below the 0.99 asked for
    stats = DescriptiveStats.from_csv(io.StringIO(
        "name,count,mean,sd,min,max\nA,40,0.6,0.8,0,5\nB,40,4.4,0.8,0,5\n"))
    panel = synthesize_panel(stats, np.array([[1.0, 0.99], [0.99, 1.0]]), seed=4,
                             regions=8, years=5)
    meta = panel.meta
    assert meta["corr_infeasible_pairs"] == 1 and meta["corr_error_floor"] > 0.05
    assert meta["corr_max_abs_error"] == pytest.approx(meta["corr_error_floor"], abs=1e-12)


@st.composite
def hard_targets(draw):
    """1–4 variables on [0, hi], mean anywhere inside, sd up to 0.97 of the cap."""
    k = draw(st.integers(1, 4))
    regions, years = draw(st.integers(3, 6)), draw(st.integers(3, 6))  # n = 9..36
    variables = {}
    for j in range(k):
        hi = draw(st.floats(0.5, 1000.0))
        m = draw(st.floats(0.02, 0.98)) * hi
        sd = draw(st.floats(0.001, 0.97)) * math.sqrt(m * (hi - m))
        variables[f"V{j}"] = VariableStats(regions * years, m, sd, 0.0, hi)
    if draw(st.booleans()):
        corr = np.eye(k)
    else:
        a = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=k * k,
                                   max_size=k * k))).reshape(k, k)
        c = a @ a.T + 1e-3 * np.eye(k)
        d = np.sqrt(np.diag(c))
        corr = c / np.outer(d, d)
        corr = (corr + corr.T) / 2.0
        np.fill_diagonal(corr, 1.0)
    return DescriptiveStats(variables), corr, regions, years, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=150, deadline=None)
@given(hard_targets())
def test_hard_marginals_exact_or_named_error(case):
    stats, corr, regions, years, seed = case
    run = lambda: synthesize_panel(stats, corr, seed=seed, regions=regions, years=years)
    try:
        panel = run()
    except PanelError as exc:
        assert any(repr(nm) in str(exc) for nm in stats.names()), str(exc)
        return
    assert_exact_moments(panel, stats)
    assert run().to_csv() == panel.to_csv()


@settings(max_examples=100, deadline=None)
@given(hard_targets(), st.integers(-900, 1010))
def test_hard_targets_times_a_power_of_two_give_that_multiple_of_the_panel(case, j):
    # the moments are solved on targets scaled by a power of two, so 2**j
    # times the targets is 2**j times the panel, bit for bit, near either
    # float limit
    stats, corr, regions, years, seed = case
    scaled = DescriptiveStats({nm: VariableStats(v.count, math.ldexp(v.mean, j),
                                                 math.ldexp(v.sd, j), v.min,
                                                 math.ldexp(v.max, j))
                               for nm, v in stats.variables.items()})
    run = lambda targets: synthesize_panel(targets, corr, seed=seed, regions=regions,
                                           years=years)
    named = lambda exc: [nm for nm in stats.names() if repr(nm) in str(exc)]
    try:
        panel = run(stats)
    except PanelError as exc:
        with pytest.raises(PanelError) as scaled_exc:
            run(scaled)
        assert named(scaled_exc.value) == named(exc)
        return
    got = run(scaled)
    assert got.meta == panel.meta
    for nm in stats.names():
        np.testing.assert_array_equal(got.matrix(nm), np.ldexp(panel.matrix(nm), j))


def test_moment_solve_failures_name_the_variable(monkeypatch):
    # population sd cap 0.357 admits 0.346; nine points with mean 0.15 reach 0.339
    text = "name,count,mean,sd,min,max\nA,9,0.5,0.2,0,1\nB,9,0.15,0.346,0,1\n"
    stats = DescriptiveStats.from_csv(io.StringIO(text))
    with pytest.raises(PanelError, match="'B' unattainable with 9 observations"):
        synthesize_panel(stats, np.eye(2), seed=0, regions=3, years=3)
    x = np.random.default_rng(0).standard_normal((9, 2))
    m, s, lo, hi = np.array([0.5, 0.15]), np.array([0.2, 0.3]), np.zeros(2), np.ones(2)
    with monkeypatch.context() as patch:
        patch.setattr(synth, "_MAX_STEPS", 1)
        with pytest.raises(PanelError, match="'A' not solved: relative residual"):
            _solve_moments(["A", "B"], x, m, s, lo, hi)
    y, err, steps = _solve_moments(["A", "B"], x, m, s, lo, hi)
    assert err.max() <= 1e-12 and 1 < steps < 200
    np.testing.assert_allclose(y.mean(axis=0), m, rtol=1e-12)
    np.testing.assert_allclose(y.std(axis=0, ddof=1), s, rtol=1e-12)


@pytest.mark.parametrize("sd", [1e-5, 1e-8])
def test_a_mean_large_against_the_sd_is_solved_to_float_resolution(sd):
    # nine cells near 5 are each rounded by up to 4.4e-16, so their sample sd
    # cannot be held to 1e-12 relative to an sd of 1e-5 or 1e-8
    stats = DescriptiveStats({"A": VariableStats(9, 5.0, sd, 0.0, 10.0)})
    panel = synthesize_panel(stats, np.eye(1), seed=42, regions=3, years=3)
    col = panel.matrix("A").ravel()
    resolution = 2 * np.finfo(float).eps * 5.0  # c = min(10, 5 + sd·√8)
    assert abs(col.mean() - 5.0) <= max(1e-12 * 5.0, resolution)
    assert abs(col.std(ddof=1) - sd) <= resolution
    assert panel.meta["moment_max_rel_error"] <= resolution / sd


@pytest.mark.parametrize("ratio", [1e10, 1e11])
def test_a_clipped_sample_far_from_zero_is_solved_to_float_resolution(ratio):
    # a mean held to 1e-12 of 1 may sit 0.01 sd or more off target, so the sd
    # solve measures D about the sample mean, as the final check does
    m, s = 1.0, 1.0 / ratio
    targets = [np.array([v]) for v in (m, s, m - 1.5 * s, m + 2 * s)]
    for seed in range(5):
        x = synth._exact_corr_normals(np.random.default_rng(seed), 117, 1)
        y, _, _ = _solve_moments(["A"], x, *targets)
        assert abs(y.std(ddof=1) - s) <= 2 * np.finfo(float).eps * (m + 2 * s)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sample_sd_above_the_population_cap_is_matched(seed):
    # a clipped normal with mean 0.45 on [0, 1] has sd below 0.497, while
    # nine points with that mean reach 0.522
    stats = DescriptiveStats.from_csv(io.StringIO(
        "name,count,mean,sd,min,max\nA,9,0.45,0.5,0,1\nB,9,3,1,0,10\n"))
    panel = synthesize_panel(stats, np.eye(2), seed=seed, regions=3, years=3)
    assert_exact_moments(panel, stats)
