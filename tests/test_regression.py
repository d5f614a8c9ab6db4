import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import innoreg.regression as reg
from innoreg.regression import (CollinearityError, Interaction,
                                RegressionSpec, Regressor, elasticity,
                                format_decomposition_table, format_suite_grid,
                                orthogonalize, pooled_ols, robust_covariance,
                                run_model_suite, significance_stars,
                                variance_decomposition, vif)
from innoreg.panel import PanelError

from conftest import build_panel, exact_corr_design


def rand_panel(rng, names, r=6, t=8, missing=None):
    data = {nm: rng.normal(size=(r, t)) for nm in names}
    if missing:
        for nm, cells in missing.items():
            for cell in cells:
                data[nm][cell] = np.nan
    return build_panel(data)


def test_significance_stars_cutoffs():
    assert significance_stars(1.0) == ""
    assert significance_stars(1.644) == ""
    assert significance_stars(1.645) == "*"
    assert significance_stars(-1.97) == "**"
    assert significance_stars(2.575) == "**"  # just under the 1% cutoff
    assert significance_stars(2.576) == "***"


def test_labels_and_spec_validation():
    assert Regressor("X").label == "X"
    assert Regressor("X", lag=2).label == "X_L2"
    assert Interaction("A", "B", lag1=1).label == "A_L1*B"
    with pytest.raises(PanelError, match="duplicate"):
        RegressionSpec(dependent="Y", regressors=[{"name": "X"}, {"name": "X"}])
    spec = RegressionSpec.from_dict({
        "label": "m1", "dependent": "Y",
        "regressors": [{"name": "X", "lag": 1}],
        "interactions": [{"x1": "A", "x2": "B"}]})
    assert spec.regressors[0] == Regressor("X", lag=1)
    assert spec.interactions[0].mode == "mutual"


@pytest.mark.parametrize("regressors, column", [
    ([{"name": "X"}, {"name": "X"}], "X"),
    ([{"name": "X", "lag": 1}, {"name": "X_L1"}], "X_L1"),
    ([{"name": "const"}], "const"),
], ids=["one-name-twice", "lag-label-beside-its-name", "named-const"])
def test_duplicate_design_columns_are_refused_by_name(regressors, column):
    # a regressor named const would be fitted beside the intercept, its label twice
    match = f"^spec 'm': duplicate design column '{column}'$"
    with pytest.raises(PanelError, match=match):
        RegressionSpec.from_dict({"label": "m", "dependent": "Y", "regressors": regressors})
    with pytest.raises(PanelError, match=match):
        RegressionSpec(dependent="Y", regressors=regressors, label="m")


def test_ols_matches_lstsq():
    rng = np.random.default_rng(31)
    p = rand_panel(rng, ["Y", "X1", "X2"])
    res = pooled_ols(p, RegressionSpec(dependent="Y",
                                       regressors=[{"name": "X1"}, {"name": "X2"}]))
    X = np.column_stack([np.ones(48), p.column("X1"), p.column("X2")])
    ref, *_ = np.linalg.lstsq(X, p.column("Y"), rcond=None)
    np.testing.assert_allclose(res.beta, ref, atol=1e-10)
    assert res.names == ["const", "X1", "X2"]
    assert res.n == 48 and res.k == 3


def test_ols_exact_recovery_without_noise():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(5, 9))
    y = 2.0 + 3.0 * x
    p = build_panel({"Y": y, "X": x})
    res = pooled_ols(p, RegressionSpec(dependent="Y", regressors=[{"name": "X"}]))
    assert res.coefficient("const") == pytest.approx(2.0, abs=1e-10)
    assert res.coefficient("X") == pytest.approx(3.0, abs=1e-10)
    assert res.r_squared == pytest.approx(1.0, abs=1e-12)


def test_listwise_deletion_reports_achieved_n():
    rng = np.random.default_rng(9)
    p = rand_panel(rng, ["Y", "X"], missing={"X": [(0, 0), (1, 3)]})
    res = pooled_ols(p, RegressionSpec(dependent="Y", regressors=[{"name": "X"}]))
    assert res.n == 46


def test_lagged_regressor_drops_first_years():
    rng = np.random.default_rng(10)
    p = rand_panel(rng, ["Y", "X"], r=4, t=6)
    res = pooled_ols(p, RegressionSpec(dependent="Y",
                                       regressors=[{"name": "X", "lag": 2}]))
    assert res.n == 4 * 4
    assert res.names == ["const", "X_L2"]


def test_collinearity_is_reported():
    rng = np.random.default_rng(13)
    x = rng.normal(size=(5, 8))
    p = build_panel({"Y": rng.normal(size=(5, 8)), "A": x, "B": 2 * x})
    with pytest.raises(CollinearityError):
        pooled_ols(p, RegressionSpec(dependent="Y",
                                     regressors=[{"name": "A"}, {"name": "B"}]))


def test_a_spec_without_complete_rows_is_a_panel_error():
    rng = np.random.default_rng(19)
    p = rand_panel(rng, ["Y", "X"], r=2, t=3, missing={"Y": [(0, 0), (0, 1), (0, 2)],
                                                       "X": [(1, 0), (1, 1), (1, 2)]})
    with pytest.raises(PanelError, match="spec 'm' has no complete observations"):
        pooled_ols(p, RegressionSpec(dependent="Y", regressors=[{"name": "X"}], label="m"))


def test_fit_needs_more_rows_than_columns():
    p = rand_panel(np.random.default_rng(23), ["Y", "A", "B", "C"], r=2, t=2)
    spec = RegressionSpec(dependent="Y", regressors=[{"name": n} for n in "ABC"])
    with pytest.raises(PanelError, match="need N > k; got N=4, k=4"):
        pooled_ols(p, spec)


def test_small_coefficients_keep_their_digits():
    # Y = X b exactly in doubles, so b is the least-squares solution. A regressor
    # with mean 1e4 and a range of 18 leaves the intercept ill-determined; the
    # fit must still return every coefficient, the 2^-10 one too, to 1e-9
    b = np.array([3.0, 2.0, -0.5, 2.0 ** -10])
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        x = {"A": 50.0 + rng.integers(-9, 10, (5, 8)), "B": 1e4 + rng.integers(-9, 10, (5, 8)),
             "C": rng.integers(-9, 10, (5, 8)).astype(float)}
        y = b[0] + b[1] * x["A"] + b[2] * x["B"] + b[3] * x["C"]
        res = pooled_ols(build_panel({"Y": y, **x}), RegressionSpec(
            dependent="Y", regressors=[{"name": n} for n in "ABC"]))
        worst = max(worst, float(np.max(np.abs(res.beta - b) / np.abs(b))))
    assert worst < 1e-9


def test_intercept_only_fit_has_no_f_statistic():
    p = rand_panel(np.random.default_rng(29), ["Y"])
    res = pooled_ols(p, RegressionSpec(dependent="Y"))
    assert res.names == ["const"] and res.k == 1
    assert res.coefficient("const") == pytest.approx(p.column("Y").mean(), abs=1e-12)
    assert math.isnan(res.f_stat) and math.isnan(res.f_pvalue)


def test_robust_covariance_variants():
    rng = np.random.default_rng(17)
    n, k = 60, 3
    X = np.column_stack([np.ones(n), rng.normal(size=(n, k - 1))])
    e = rng.normal(size=n) * (1 + np.abs(X[:, 1]))  # heteroskedastic
    xtx_inv = np.linalg.inv(X.T @ X)
    meat0 = X.T @ np.diag(e ** 2) @ X
    hc0 = xtx_inv @ meat0 @ xtx_inv
    np.testing.assert_allclose(robust_covariance(X, e, "HC0"), hc0, atol=1e-12)
    np.testing.assert_allclose(robust_covariance(X, e, "HC1"),
                               hc0 * n / (n - k), atol=1e-12)
    h = np.einsum("ij,ij->i", X @ xtx_inv, X)
    for hc, power in (("HC2", 1), ("HC3", 2)):
        meat = X.T @ np.diag(e ** 2 / (1 - h) ** power) @ X
        np.testing.assert_allclose(robust_covariance(X, e, hc),
                                   xtx_inv @ meat @ xtx_inv, atol=1e-10)
    with pytest.raises(ValueError):
        robust_covariance(X, e, "HC9")


def test_vif_equicorrelated_closed_form():
    rng = np.random.default_rng(23)
    target = np.full((3, 3), 0.5)
    np.fill_diagonal(target, 1.0)
    X = exact_corr_design(rng, 117, target)
    values, avg = vif(X, ["a", "b", "c"])
    for v in values.values():
        assert v == pytest.approx(1.5, abs=1e-8)
    assert avg == pytest.approx(1.5, abs=1e-8)


def test_vif_orthogonal_design_is_one():
    rng = np.random.default_rng(29)
    X = exact_corr_design(rng, 80, np.eye(4))
    values, avg = vif(X)
    for v in values.values():
        assert v == pytest.approx(1.0, abs=1e-8)
    assert avg == pytest.approx(1.0, abs=1e-8)


def test_vif_matches_auxiliary_regressions():
    rng = np.random.default_rng(37)
    X = rng.normal(size=(50, 4))
    X[:, 3] = X[:, 0] * 0.8 + rng.normal(size=50) * 0.3
    values, _ = vif(X)
    for j, nm in enumerate(values):
        others = np.delete(X, j, axis=1)
        a = np.column_stack([np.ones(50), others])
        coef, *_ = np.linalg.lstsq(a, X[:, j], rcond=None)
        resid = X[:, j] - a @ coef
        r2 = 1 - resid @ resid / np.sum((X[:, j] - X[:, j].mean()) ** 2)
        assert values[nm] == pytest.approx(1 / (1 - r2), rel=1e-8)


def test_vif_perfect_collinearity_sentinel():
    rng = np.random.default_rng(41)
    base = rng.normal(size=50)
    X = np.column_stack([base, 2 * base, rng.normal(size=50)])
    with pytest.warns(UserWarning, match="inf"):
        values, avg = vif(X)
    assert math.isinf(values["x0"]) and math.isinf(values["x1"])
    assert math.isinf(avg)
    with pytest.raises(PanelError):
        vif(np.column_stack([base, np.ones(50)]))
    with pytest.raises(PanelError):
        vif(base[:, None])


def test_orthogonalize_mutual_residuals():
    rng = np.random.default_rng(43)
    target = np.array([[1.0, 0.9], [0.9, 1.0]])
    X = exact_corr_design(rng, 117, target)
    a, b = orthogonalize(X[:, 0], X[:, 1])
    # each residual is orthogonal to the *other original* series
    assert abs(np.corrcoef(a, X[:, 1])[0, 1]) < 1e-9
    assert abs(np.corrcoef(b, X[:, 0])[0, 1]) < 1e-9
    assert abs(a.mean()) < 1e-12 and abs(b.mean()) < 1e-12


def test_orthogonalize_residualize_second_keeps_first():
    rng = np.random.default_rng(47)
    x1 = rng.normal(size=60)
    x2 = 0.7 * x1 + rng.normal(size=60)
    a, b = orthogonalize(x1, x2, mode="residualize-second")
    np.testing.assert_array_equal(a, x1)  # first series passes through
    assert abs(np.corrcoef(x1, b)[0, 1]) < 1e-9
    assert abs(np.corrcoef(a, b)[0, 1]) < 1e-9  # the pair itself decorrelates
    with pytest.raises(PanelError):
        orthogonalize(x1, x2, mode="bogus")
    with pytest.raises(PanelError):
        orthogonalize(x1, np.ones(60))
    with pytest.raises(PanelError):
        orthogonalize(x1, x2[:-1])


@pytest.mark.parametrize("cell", [np.nan, np.inf])
def test_orthogonalize_rejects_non_finite_input(cell):
    x = np.array([1.0, 2.0, 4.0, 7.0])
    with pytest.raises(PanelError, match="must be finite"):
        orthogonalize(np.array([cell, 2.0, 3.0, 5.0]), x)
    with pytest.raises(PanelError, match="must be finite"):
        orthogonalize(x, np.array([1.0, cell, 3.0, 5.0]), mode="residualize-second")


def test_orthogonalize_already_orthogonal_pair():
    rng = np.random.default_rng(73)
    X = exact_corr_design(rng, 40, np.eye(2))
    a, b = orthogonalize(X[:, 0], X[:, 1])
    # zero sample correlation: mutual mode degenerates to centering
    np.testing.assert_allclose(a, X[:, 0] - X[:, 0].mean(), atol=1e-10)
    np.testing.assert_allclose(b, X[:, 1] - X[:, 1].mean(), atol=1e-10)


def test_identical_pair_zeroes_out_and_breaks_downstream():
    rng = np.random.default_rng(79)
    x = rng.normal(size=(4, 6))
    a, b = orthogonalize(x.ravel(), x.ravel())
    np.testing.assert_allclose(a, 0.0, atol=1e-10)
    np.testing.assert_allclose(b, 0.0, atol=1e-10)
    p = build_panel({"Y": rng.normal(size=(4, 6)), "A": x, "B": x.copy()})
    with pytest.raises(CollinearityError):
        pooled_ols(p, RegressionSpec(dependent="Y", regressors=[{"name": "A"}],
                                     interactions=[{"x1": "A", "x2": "B"}]))


def test_residuals_orthogonal_to_design():
    rng = np.random.default_rng(83)
    p = rand_panel(rng, ["Y", "X1", "X2"])
    res = pooled_ols(p, RegressionSpec(dependent="Y",
                                       regressors=[{"name": "X1"}, {"name": "X2"}]))
    X = np.column_stack([np.ones(48), p.column("X1"), p.column("X2")])
    e = p.column("Y") - X @ res.beta
    assert np.abs(X.T @ e).max() / np.abs(p.column("Y")).sum() < 1e-8


@st.composite
def full_rank_panels(draw):
    """Y and 1-3 regressors on 3-6 regions x 3-6 years, design of full rank."""
    k, r, t = draw(st.integers(1, 3)), draw(st.integers(3, 6)), draw(st.integers(3, 6))
    # six decimals keep the covariances clear of subnormal numbers
    cells = draw(arrays(float, (k + 1, r, t),
                        elements=st.floats(-100.0, 100.0).map(lambda v: round(v, 6))))
    design = np.column_stack([np.ones(r * t), cells[1:].reshape(k, -1).T])
    assume(np.linalg.cond(design) < 1e2)
    return build_panel({"Y": cells[0], **{f"X{j}": cells[j] for j in range(1, k + 1)}})


@settings(max_examples=60, deadline=None)
@given(full_rank_panels(), st.sampled_from(["HC0", "HC1", "HC2", "HC3"]))
def test_covariances_symmetric_psd(p, hc):
    spec = RegressionSpec(dependent="Y", regressors=[{"name": nm} for nm in p.variables[1:]])
    res = pooled_ols(p, spec, hc=hc)
    for cov in (res.cov_classical, res.cov_robust):
        np.testing.assert_array_equal(cov, cov.T)
        # a Gram matrix G'G: a true zero eigenvalue (a leverage-1 cell) rounds
        # below 0 by at most about n·k·eps of the largest entry
        assert np.linalg.eigvalsh(cov).min() >= -1e-12 * np.abs(cov).max()
    assert np.all(np.isfinite(res.se_robust)) and np.all(np.isfinite(res.se_classical))


def test_covariances_symmetric_psd_fixed_panel():
    rng = np.random.default_rng(89)
    p = rand_panel(rng, ["Y", "X1", "X2"])
    res = pooled_ols(p, RegressionSpec(dependent="Y",
                                       regressors=[{"name": "X1"}, {"name": "X2"}]))
    for cov in (res.cov_classical, res.cov_robust):
        np.testing.assert_allclose(cov, cov.T, atol=1e-14)
        assert np.linalg.eigvalsh(cov).min() > -1e-12


@pytest.mark.parametrize("hc", ["HC0", "HC1", "HC2", "HC3"])
def test_leverage_one_cell_gets_a_finite_robust_se(hc):
    # the lone 0 in X1 has leverage 1, so its residual and the intercept's
    # robust variance are 0 in exact arithmetic; a sandwich formed as the
    # product (X'X)^-1 M (X'X)^-1 can round that below 0 and give a NaN se
    p = build_panel({"Y": np.array([[1.0, 3, 3], [3, 3, 3], [3, 3, 3]]),
                     "X1": np.array([[3.0, 0, 3], [3, 3, 3], [3, 3, 3]])})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = pooled_ols(p, RegressionSpec(dependent="Y", regressors=[{"name": "X1"}]),
                         hc=hc)
    assert res.names[0] == "const" and 0.0 <= res.se_robust[0] < 1e-6
    assert np.all(np.isfinite(res.se_robust))


@pytest.mark.parametrize("hc", ["HC2", "HC3"])
def test_leverage_one_cell_rounding_residual_gets_weight_0(hc):
    # the design above, with a rounding-level residual on its leverage-1 cell
    # (the second observation, the lone 0 in X1): 1 - h sits at the 1e-12
    # floor, so dividing by it would turn 4.4e-16 into an HC3 se near 4e-4
    X = np.column_stack([np.ones(9), [3.0, 0, 3, 3, 3, 3, 3, 3, 3]])
    e = np.array([-1.75, 4.4e-16, 0.25, 0.25, 0.25, 0.25, 0.25, 0.25, 0.25])
    cov = robust_covariance(X, e, hc)
    assert np.all(np.isfinite(cov)) and 0.0 <= np.sqrt(cov[0, 0]) < 1e-6


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1),
       st.one_of(st.floats(1e-3, 1e3), st.floats(-1e3, -1e-3)))
@example(97, 7.0)
def test_elasticity_invariant_to_regressor_rescaling(seed, scale):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(6, 8)) + 3.0
    y = 1.0 + 0.5 * x + 0.1 * rng.normal(size=(6, 8))
    spec = RegressionSpec(dependent="Y", regressors=[{"name": "X"}])
    r1 = pooled_ols(build_panel({"Y": y, "X": x}), spec)
    r2 = pooled_ols(build_panel({"Y": y, "X": scale * x}), spec)
    e1 = elasticity(r1.coefficient("X"), x.mean(), y.mean())
    e2 = elasticity(r2.coefficient("X"), (scale * x).mean(), y.mean())
    assert e1 == pytest.approx(e2, rel=1e-10)


@settings(max_examples=40, deadline=None)
@given(st.permutations(range(5)))
def test_coefficients_invariant_to_region_order(perm):
    rng = np.random.default_rng(101)
    x = rng.normal(size=(5, 7))
    y = 0.3 + 1.2 * x + rng.normal(size=(5, 7))
    spec = RegressionSpec(dependent="Y", regressors=[{"name": "X"}])
    base = pooled_ols(build_panel({"Y": y, "X": x},
                                  regions=tuple("abcde")), spec)
    shuffled = pooled_ols(build_panel({"Y": y[perm], "X": x[perm]},
                                      regions=tuple("abcde"[i] for i in perm)), spec)
    np.testing.assert_allclose(shuffled.beta, base.beta, atol=1e-8)
    np.testing.assert_allclose(shuffled.se_robust, base.se_robust, atol=1e-8)


def test_interaction_spec_orthogonalizes_but_keeps_mains():
    rng = np.random.default_rng(53)
    a = rng.normal(size=(6, 8))
    b = 0.8 * a + 0.2 * rng.normal(size=(6, 8))
    y = a + b + rng.normal(size=(6, 8))
    p = build_panel({"Y": y, "A": a, "B": b})
    res = pooled_ols(p, RegressionSpec(
        dependent="Y",
        regressors=[{"name": "A"}, {"name": "B"}],
        interactions=[{"x1": "A", "x2": "B"}]))
    assert res.names == ["const", "A", "B", "A*B"]
    # the interaction column is the product of residualized series, so it is
    # the one place collinearity must not explode (the raw mains stay correlated)
    assert res.vif["A*B"] < 2.0
    # mains enter unmodified: same fit as lstsq on the raw columns + product
    ra, rb = orthogonalize(p.column("A"), p.column("B"))
    X = np.column_stack([np.ones(48), p.column("A"), p.column("B"), ra * rb])
    ref, *_ = np.linalg.lstsq(X, p.column("Y"), rcond=None)
    np.testing.assert_allclose(res.beta, ref, atol=1e-10)


def test_variance_decomposition_shares_and_f():
    rng = np.random.default_rng(59)
    r_n, t_n = 13, 9
    region_fx = rng.normal(size=(r_n, 1)) * 3.0
    noise = rng.normal(size=(r_n, t_n)) * 0.5
    m = region_fx + noise
    p = build_panel({"X": m})
    d = variance_decomposition(p, "X")
    assert d.share_region + d.share_time + d.share_residual == pytest.approx(
        1.0, abs=1e-12)
    assert d.systematic == pytest.approx(1.0 - d.share_residual, abs=1e-12)
    assert d.share_region > 0.8
    assert d.p_region < 1e-6
    assert (d.df_region, d.df_time, d.df_residual) == (12, 8, 96)
    # independent oracle
    grand = m.mean()
    ssr = t_n * np.sum((m.mean(axis=1) - grand) ** 2)
    sst_ = r_n * np.sum((m.mean(axis=0) - grand) ** 2)
    sse = np.sum((m - grand) ** 2) - ssr - sst_
    f_region = (ssr / 12) / (sse / 96)
    assert d.f_region == pytest.approx(f_region, rel=1e-10)


def test_variance_decomposition_region_constant_direction():
    # pure region differences, no time structure at all
    m = np.tile(np.array([[1.0], [2.0], [5.0]]), (1, 4))
    p = build_panel({"X": m})
    d = variance_decomposition(p, "X")
    assert d.f_time == 0.0
    assert d.p_time == pytest.approx(1.0)
    assert math.isinf(d.f_region) and d.p_region == pytest.approx(0.0)
    assert d.share_region == pytest.approx(1.0)


def test_variance_decomposition_guards():
    p = build_panel({"X": np.ones((3, 3))})
    with pytest.raises(PanelError, match="constant"):
        variance_decomposition(p, "X")
    m = np.arange(9, dtype=float).reshape(3, 3)
    m[0, 0] = np.nan
    q = build_panel({"X": m})
    with pytest.raises(PanelError, match="missing"):
        variance_decomposition(q, "X")


@pytest.mark.parametrize("d2", [1, 2, 5, 30, 117, 1000, 9000])
def test_f_tail_matches_the_closed_form_at_two_numerator_df(d2):
    # at d1 = 2, P(F > f) = (1 + 2 f / d2)^(-d2 / 2)
    for f in (1e-3, 0.05, 0.5, 1.0, 2.0, 7.0, 31.0, 100.0):
        assert reg._f_sf(2, d2, f) == pytest.approx((1 + 2 * f / d2) ** (-d2 / 2), rel=1e-11)


def test_f_tail_matches_mpmath():
    mpmath = pytest.importorskip("mpmath")
    grid = [(d1, d2, f) for d1 in (1, 2, 3, 5, 12, 32, 40)
            for d2 in (1, 2, 7, 30, 117, 1000, 4657, 9000)
            for f in (1e-3, 0.05, 0.5, 1.0, 1.3, 2.0, 7.0, 31.0, 55.1, 100.0)]
    with mpmath.workdps(30):
        for d1, d2, f in grid:
            x = mpmath.mpf(d2) / (d2 + mpmath.mpf(d1) * mpmath.mpf(f))
            want = mpmath.betainc(mpmath.mpf(d2) / 2, mpmath.mpf(d1) / 2, 0, x,
                                  regularized=True)
            got = reg._f_sf(d1, d2, f)
            assert abs(got - float(want)) <= 2e-12, (d1, d2, f)
            if want >= mpmath.mpf("1e-250"):  # relative, where a double holds it
                assert abs(got - want) <= 1e-11 * want, (d1, d2, f)


def test_f_tail_edge_cases():
    assert reg._f_sf(3, 10, 0.0) == 1.0 and reg._f_sf(3, 10, -1.0) == 1.0
    assert reg._f_sf(3, 10, math.inf) == 0.0
    assert math.isnan(reg._f_sf(3, 10, math.nan))
    # d1 f / d2 past the double range at either end is the limit, not an error
    assert reg._f_sf(40, 10, 1e307) == 0.0 and reg._f_sf(1, 9000, 5e-324) == 1.0


def test_elasticity():
    assert elasticity(2.0, 3.0, 4.0) == pytest.approx(1.5)
    with pytest.raises(PanelError):
        elasticity(1.0, 1.0, 0.0)


def test_an_unknown_hc_raises_before_any_fit(monkeypatch):
    p = build_panel({"Y": np.arange(12.0).reshape(3, 4), "X": np.ones((3, 4))})
    good = RegressionSpec("Y", (Regressor("X"),), label="good")
    bad = RegressionSpec("Y", (Regressor("NOPE"),), label="bad")
    # the variant is checked before the design: the unknown variable goes unseen
    with pytest.raises(ValueError, match="^unknown robust variant 'HC5'$"):
        pooled_ols(p, bad, hc="hc5")

    def no_fit(*args, **kwargs):
        raise AssertionError("no spec is fitted under an unknown variant")
    monkeypatch.setattr(reg, "pooled_ols", no_fit)
    with pytest.raises(ValueError, match="^unknown robust variant 'HC5'$"):
        run_model_suite(p, [good, good], hc="HC5")


def test_run_model_suite_isolates_failures():
    rng = np.random.default_rng(61)
    p = rand_panel(rng, ["Y", "X"])
    specs = [
        RegressionSpec(label="ok", dependent="Y", regressors=[{"name": "X"}]),
        RegressionSpec(label="broken", dependent="Y",
                       regressors=[{"name": "NOPE"}]),
    ]
    entries = run_model_suite(p, specs)
    assert [e.label for e in entries] == ["ok", "broken"]
    assert entries[0].ok and not entries[1].ok
    assert "NOPE" in entries[1].error


def test_format_suite_grid_layout():
    rng = np.random.default_rng(67)
    p = rand_panel(rng, ["Y", "X", "Z"])
    specs = [
        RegressionSpec(label="1", dependent="Y", regressors=[{"name": "X"}]),
        RegressionSpec(label="2", dependent="Y",
                       regressors=[{"name": "X"}, {"name": "Z"}]),
        RegressionSpec(label="3", dependent="Y", regressors=[{"name": "MISS"}]),
    ]
    grid = format_suite_grid(run_model_suite(p, specs))
    lines = grid.splitlines()
    assert lines[0] == "| Variables | 1 | 2 | 3 |"
    body = "\n".join(lines)
    assert "| X |" in body and "| Z |" in body
    assert body.index("| X |") < body.index("| const |")
    assert "failed" in body
    for footer in ("| R2 |", "| F |", "| Avg VIF |", "| N |"):
        assert footer in body


def test_format_decomposition_table_layout():
    rng = np.random.default_rng(71)
    p = rand_panel(rng, ["X"])
    table = format_decomposition_table([variance_decomposition(p, "X")])
    head = table.splitlines()[0]
    for col in ("Variable", "BETWEEN-REGIONS/s2", "BETWEEN-TIME/s2",
                "RESIDUAL/s2", "SYSTEMATIC(MODEL)/s2", "F-REGION", "F-TIME"):
        assert col in head
    # shares have 4 decimals; F cells carry the p-value in parentheses
    cells = table.splitlines()[2].split(" | ")
    assert all(len(c.split(".")[1]) == 4 for c in cells[1:5])
    assert "(" in cells[5] and "(" in cells[6]


def test_one_factorization_per_fit_and_per_vif_block(monkeypatch):
    # one QR per fit (of [X y], n x (k + 1)) or VIF block (n x k), and an SVD
    # only of the k x k R of X
    calls = []

    def counting(name):
        real = getattr(np.linalg, name)

        def counted(a, *args, **kwargs):
            calls.append((name, np.shape(a)))
            return real(a, *args, **kwargs)
        return counted

    def forbidden(*args, **kwargs):
        raise AssertionError("second factorization path used")

    for name in ("qr", "svd"):
        monkeypatch.setattr(np.linalg, name, counting(name))
    for name in ("matrix_rank", "inv", "lstsq"):
        monkeypatch.setattr(np.linalg, name, forbidden)
    monkeypatch.setattr(np, "corrcoef", forbidden)
    rng = np.random.default_rng(103)
    p = rand_panel(rng, ["Y", "X1", "X2", "X3"])
    spec = RegressionSpec(dependent="Y", regressors=[
        {"name": "X1"}, {"name": "X2"}, {"name": "X3"}])
    for hc in ("HC0", "HC1", "HC2", "HC3"):
        calls.clear()
        res = pooled_ols(p, spec, hc=hc)
        # the design; its VIFs come from the same factorization
        assert calls == [("qr", (48, 5)), ("svd", (4, 4))]
        assert np.isfinite(res.se_robust).all() and res.avg_vif >= 1.0
    # an interaction adds a column, not a factorization (lstsq is forbidden)
    calls.clear()
    res = pooled_ols(p, RegressionSpec(
        dependent="Y", regressors=[{"name": "X1"}, {"name": "X2"}],
        interactions=[{"x1": "X1", "x2": "X3"}]))
    assert calls == [("qr", (48, 5)), ("svd", (4, 4))] and res.names[-1] == "X1*X3"
    calls.clear()
    robust_covariance(np.column_stack([np.ones(48), p.column("X1")]),
                      rng.normal(size=48), "HC3")
    assert calls == [("qr", (48, 2)), ("svd", (2, 2))]


def test_only_hc2_and_hc3_compute_leverages(monkeypatch):
    rng = np.random.default_rng(17)
    X = np.column_stack([np.ones(30), rng.normal(size=(30, 2))])
    e = rng.normal(size=30)
    want = {hc: robust_covariance(X, e, hc) for hc in ("HC0", "HC1")}

    def forbidden(*args, **kwargs):
        raise AssertionError("leverages computed for HC0 or HC1")
    monkeypatch.setattr(np, "einsum", forbidden)
    for hc, cov in want.items():
        assert robust_covariance(X, e, hc).tobytes() == cov.tobytes()


def test_vif_sentinel_keeps_the_free_column_finite():
    rng = np.random.default_rng(41)
    base = rng.normal(size=50)
    X = np.column_stack([base, 2 * base, rng.normal(size=50)])
    with pytest.warns(UserWarning, match="inf"):
        values, _ = vif(X)
    assert math.isinf(values["x0"]) and math.isinf(values["x1"])
    # auxiliary-regression oracle for x2 on an intercept and both others
    a = np.column_stack([np.ones(50), X[:, :2]])
    coef, *_ = np.linalg.lstsq(a, X[:, 2], rcond=None)
    resid = X[:, 2] - a @ coef
    r2 = 1 - resid @ resid / np.sum((X[:, 2] - X[:, 2].mean()) ** 2)
    assert values["x2"] == pytest.approx(1 / (1 - r2), rel=1e-8)


def test_vif_flags_only_the_dependent_set():
    # x3 = x0 - x1 exactly; x2 and x4 stay outside the dependency
    rng = np.random.default_rng(107)
    X = rng.normal(size=(60, 5))
    X[:, 3] = X[:, 0] - X[:, 1]
    with pytest.warns(UserWarning):
        values, avg = vif(X)
    assert [math.isinf(values[f"x{j}"]) for j in range(5)] == \
        [True, True, False, True, False]
    assert math.isinf(avg)


def test_robust_covariance_rejects_rank_deficient_design():
    rng = np.random.default_rng(109)
    x = rng.normal(size=30)
    X = np.column_stack([np.ones(30), x, 3 * x])
    with pytest.raises(CollinearityError, match="collinear columns"):
        robust_covariance(X, rng.normal(size=30))


def test_collinearity_error_names_the_dependent_set():
    rng = np.random.default_rng(113)
    x = rng.normal(size=(5, 8))
    p = build_panel({"Y": rng.normal(size=(5, 8)), "x": x, "z": rng.normal(size=(5, 8)),
                     "x2": 2 * x})
    spec = RegressionSpec(dependent="Y", regressors=[
        {"name": "x"}, {"name": "z"}, {"name": "x2"}])
    with pytest.raises(CollinearityError) as err:
        pooled_ols(p, spec)
    assert str(err.value) == "rank-deficient design; collinear columns ['x', 'x2']"
    # without names: plain column indices, the free column z (2) left out
    X = np.column_stack([np.ones(40), x.ravel(), p.column("z"), 2 * x.ravel()])
    with pytest.raises(CollinearityError) as err:
        robust_covariance(X, rng.normal(size=40))
    assert str(err.value) == "rank-deficient design; collinear columns [1, 3]"
    with pytest.raises(CollinearityError, match=r"columns \[0, 1\]$"):
        robust_covariance(np.zeros((40, 2)), rng.normal(size=40))  # rank 0


def test_collinear_set_is_read_at_the_columns_scale():
    # x and 1e9 x are one dependency: its null vector is (1, -1e-9) in raw
    # units, and only the columns' norms put both entries on one scale
    rng = np.random.default_rng(127)
    x = rng.normal(size=40)
    X = np.column_stack([np.ones(40), x, rng.normal(size=40), 1e9 * x])
    with pytest.raises(CollinearityError, match=r"columns \[1, 3\]$"):
        robust_covariance(X, rng.normal(size=40))


@pytest.mark.parametrize("spec, match", [
    ({"label": "m", "regressors": [{"name": "X"}]}, "without 'dependent'"),
    ({"label": "m", "dependent": "Y", "regressors": [{"name": "X", "lagg": 1}]},
     "unknown regressor key 'lagg'"),
    ({"label": "m", "dependent": "Y", "interactions": [{"x1": "A"}]},
     "interaction without 'x2'"),
    ({"label": "m", "dependent": "Y", "regresors": []}, "unknown spec key"),
    (["Y"], "JSON object"),
    ({"label": "m", "dependent": "Y", "regressors": None}, "JSON list"),
    ({"label": "m", "dependent": "Y", "regressors": [{"name": ["RDEXP"]}]},
     "spec 'm': regressor name must be a JSON string"),
    ({"label": ["x"], "dependent": "Y"}, "spec '': label must be a JSON string"),
    ({"label": "m", "dependent": 5}, "spec 'm': dependent must be a JSON string"),
    ({"label": "m", "dependent": "Y", "intercept": "no"},
     "spec 'm': unknown spec key 'intercept'"),
    ({"label": "m", "dependent": "Y", "intercept": 0}, "unknown spec key 'intercept'"),
    ({"label": "m", "dependent": "Y", "regressors": [{"name": "X", "lag": "1"}]},
     r"spec 'm': regressor lag must be a JSON integer >= 0"),
    ({"label": "m", "dependent": "Y", "regressors": [{"name": "X", "lag": -1}]},
     r"regressor lag must be a JSON integer >= 0"),
    ({"label": "m", "dependent": "Y", "regressors": [{"name": "X", "lag": True}]},
     r"regressor lag must be a JSON integer >= 0"),
    ({"label": "m", "dependent": "Y", "regressors": [{"name": "X", "lag": 1.0}]},
     r"regressor lag must be a JSON integer >= 0"),
    ({"label": "m", "dependent": "Y", "interactions": [{"x1": "A", "x2": "B", "lag2": -2}]},
     r"interaction lag2 must be a JSON integer >= 0"),
    ({"label": "m", "dependent": "Y", "interactions": [{"x1": "A", "x2": "B", "mode": "bogus"}]},
     "spec 'm': interaction mode must be 'mutual' or 'residualize-second'"),
    ({"label": "m", "dependent": "Y", "interactions": [{"x1": None, "x2": "B"}]},
     "interaction x1 must be a JSON string"),
    ({"label": "m", "dependent": "Y", "interactions": {}}, "interactions must be a JSON list"),
    ({"label": "m", "dependent": "Y", "regressors": ["X"]},
     "each regressor must be a JSON object"),
    ({"label": "m", "dependent": "Y", "regressors": [{"name": "X", "lag": 10**5000}]},
     r"^spec 'm': regressor lag must be a JSON integer >= 0 and < 2\*\*63$"),
    ({"label": "m", "dependent": "Y", "interactions": [{"x1": "A", "x2": "B", "lag1": 2**63}]},
     r"^spec 'm': interaction lag1 must be a JSON integer >= 0 and < 2\*\*63$"),
])
def test_spec_from_dict_rejects_bad_keys(spec, match):
    with pytest.raises(PanelError, match=match):
        RegressionSpec.from_dict(spec)


@pytest.mark.parametrize("key, item", [
    ("regressors", {"name": "X", "lagg": 1}), ("regressors", {"name": ["X"]}),
    ("regressors", {"name": "X", "lag": -1}), ("regressors", 5),
    ("interactions", {"x1": "A"}), ("interactions", {"x1": "A", "x2": "B", "mode": "bogus"}),
])
def test_spec_items_are_checked_alike_by_from_dict_and_the_constructor(key, item):
    with pytest.raises(PanelError) as parsed:
        RegressionSpec.from_dict({"label": "m", "dependent": "Y", key: [item]})
    with pytest.raises(PanelError) as built:
        RegressionSpec(dependent="Y", label="m", **{key: [item]})
    assert str(built.value) == str(parsed.value)


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=5), inner,
                                                                 max_size=3),
    max_leaves=6)
_VALID_SPEC = {"label": "m", "dependent": "Y",
               "regressors": [{"name": "X", "lag": 1}],
               "interactions": [{"x1": "A", "x2": "B", "lag1": 0, "lag2": 2, "mode": "mutual"}]}


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([(key,) for key in _VALID_SPEC]
                       + [("regressors", 0, key) for key in ("name", "lag")]
                       + [("interactions", 0, key)
                          for key in ("x1", "x2", "lag1", "lag2", "mode")]
                       + [("regressors", 0), ("interactions", 0)]),
       _JSON)
def test_spec_from_dict_returns_a_spec_or_raises_panel_error(path, value):
    """Any field of a valid spec, or an item of its lists, set to any JSON
    value gives a spec or a PanelError, never another exception."""
    spec = json.loads(json.dumps(_VALID_SPEC))
    parent = spec
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    try:
        out = RegressionSpec.from_dict(spec)
    except PanelError:
        return
    assert isinstance(out, RegressionSpec) and out.label == spec["label"]


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 4), st.booleans(),
       st.lists(st.floats(-3.0, 3.0), min_size=4, max_size=4),
       st.floats(0.0, 0.95))
def test_vifs_from_the_fit_match_vif_on_the_slope_block(seed, k, inter, log_means, rho):
    """With an intercept, pooled_ols reads the VIFs off its own QR;
    vif() on the slope block of the same design is the oracle."""
    rng = np.random.default_rng(seed)
    shared = rng.normal(size=(5, 7))
    data = {"Y": rng.normal(size=(5, 7))}
    for j in range(k):  # correlated columns, means up to 1e3 sd away from 0
        sd = 10.0 ** rng.uniform(-3, 3)
        z = np.sqrt(rho) * shared + np.sqrt(1 - rho) * rng.normal(size=(5, 7))
        data[f"X{j}"] = sd * (z + np.sign(log_means[j]) * 10.0 ** abs(log_means[j]))
    spec = RegressionSpec(dependent="Y",
                          regressors=[{"name": f"X{j}"} for j in range(k)],
                          interactions=[{"x1": "X0", "x2": "X1"}] if inter else [])
    p = build_panel(data)
    res = pooled_ols(p, spec)
    xy, names = reg._build_design(p, spec)
    want, avg = vif(xy[:, 1:-1], names[1:])
    assert list(res.vif) == list(want)
    np.testing.assert_allclose(list(res.vif.values()), list(want.values()), rtol=1e-9)
    assert res.avg_vif == pytest.approx(avg, rel=1e-9)


def _lstsq_resid(y, on):
    a = np.column_stack([np.ones_like(on), on])
    coef, *_ = np.linalg.lstsq(a, y, rcond=None)
    return y - a @ coef


@settings(max_examples=200, deadline=None)
@given(arrays(float, st.integers(3, 40), elements=st.floats(-1e3, 1e3)),
       st.floats(-5.0, 5.0), st.integers(0, 2**32 - 1),
       st.sampled_from(["mutual", "residualize-second"]))
def test_orthogonalize_matches_the_lstsq_residual(x1, slope, seed, mode):
    x2 = slope * x1 + np.random.default_rng(seed).uniform(-1e3, 1e3, x1.size)
    scale = max(np.abs(x1).max(), np.abs(x2).max())
    for x in (x1, x2):  # well away from a constant series
        assume(np.std(x) > 1e-3 * scale)
    a, b = orthogonalize(x1, x2, mode=mode)
    want_a = _lstsq_resid(x1, x2) if mode == "mutual" else x1
    np.testing.assert_allclose(a, want_a, rtol=0, atol=1e-10 * scale)
    np.testing.assert_allclose(b, _lstsq_resid(x2, x1), rtol=0, atol=1e-10 * scale)
    # an identical pair leaves no residual at all
    a, b = orthogonalize(x1, x1.copy(), mode=mode)
    assert not b.any() and (not a.any() if mode == "mutual" else (a == x1).all())
