import dataclasses
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from innoreg import game
from innoreg.game import (Equilibrium, MarketParams, equilibrium_at_royalty,
                          feasibility_region, royalty_profit_profile, spne,
                          verify_equilibrium)


# The model's equations, written out here as the oracle for game.py's private
# closed forms in r**2 space (_pi2, _reaction, _pi1, _q1_star, _q2_star).


def price(q1, q2, a):
    return a - (q1 + q2)


def follower_profit(r, q1, q2, a, c):
    return (price(q1, q2, a) - r * r - c) * q2


def leader_profit(r, q1, q2, a, c):
    return price(q1, q2, a) * q1 + r * r * q1 - c * q1


def reaction(q1, r, a, c):
    return (a - q1 - r * r - c) / 2


# The exact oracle: the game by backward induction from its primitives in
# Fraction arithmetic. Linear demand p = a - (q1 + q2), the shared cost c, and
# the royalty R = r^2 as game.py accounts it: the follower pays R on each unit
# it sells and the leader earns R on each unit it sells. Each stage objective
# is a quadratic, so its values at -1, 0 and 1 fix it.


def _quadratic(f):
    """Stationary point and second derivative of the quadratic ``f``."""
    lo, mid, hi = f(Fraction(-1)), f(Fraction(0)), f(Fraction(1))
    curvature = lo - 2 * mid + hi
    return -(hi - lo) / (2 * curvature), curvature


def _argmax(f):
    vertex, curvature = _quadratic(f)
    assert curvature < 0
    return vertex


def _exact_reaction(R, q1, a, c):
    return _argmax(lambda q2: (a - (q1 + q2)) * q2 - R * q2 - c * q2)


def _exact_pi1(R, q1, a, c):
    # the leader's profit against the follower's reaction
    return (a - (q1 + _exact_reaction(R, q1, a, c))) * q1 + R * q1 - c * q1


def _exact_q1_star(R, a, c):
    return _argmax(lambda q1: _exact_pi1(R, q1, a, c))


# small dyadic rationals: every float operation of the closed forms on them is
# exact, but for _radicand's division by 3, which IEEE rounds correctly
_dyadic = st.integers(-2 ** 12, 2 ** 12).map(lambda k: Fraction(k, 2 ** 6))


@settings(max_examples=200, deadline=None)
@given(a=_dyadic, c=_dyadic, R=_dyadic, q1=_dyadic)
@example(a=Fraction(1), c=Fraction(4), R=Fraction(1), q1=Fraction(0))
def test_closed_forms_equal_the_exact_backward_induction(a, c, R, q1):
    fa, fc, fR, fq1 = map(float, (a, c, R, q1))
    assert game._reaction(fR, fq1, fa, fc) == float(_exact_reaction(R, q1, a, c))
    assert game._pi1(fR, fq1, fa, fc) == float(_exact_pi1(R, q1, a, c))
    q1_star = _exact_q1_star(R, a, c)
    assert game._q1_star(fR, fa, fc) == float(q1_star)
    assert game._q2_star(fR, fa, fc) == float(_exact_reaction(R, q1_star, a, c))
    # the royalty stage: the reduced leader profit is convex in R, so its
    # stationary point, the radicand, is the leader's profit minimum, 0
    def reduced(x):
        return _exact_pi1(x, _exact_q1_star(x, a, c), a, c)
    radicand, curvature = _quadratic(reduced)
    assert curvature == Fraction(9, 4)
    assert game._radicand(fa, fc) == float(radicand)
    assert reduced(radicand) == 0 and _exact_q1_star(radicand, a, c) == 0


def test_market_params_validation():
    with pytest.raises(ValueError):
        MarketParams(a=0.0, c=1.0)
    with pytest.raises(ValueError):
        MarketParams(a=3.0, c=-1.0)
    with pytest.raises(ValueError):
        MarketParams(a=math.inf, c=1.0)
    p = MarketParams(a=10.0, c=1.0)
    assert p.a == 10.0 and p.c == 1.0
    # up to 2**500 every profit, of order max(a, c)**2, stays finite
    assert MarketParams(a=2.0 ** 500, c=2.0 ** 500).a == 2.0 ** 500
    with pytest.raises(ValueError, match=r"market parameter a=1e\+308 is above 2\*\*500"):
        MarketParams(a=1e308, c=1.0)
    with pytest.raises(ValueError, match=r"market parameter c=3\.27339e\+150 is above"):
        MarketParams(a=1.0, c=math.nextafter(2.0 ** 500, math.inf))


def test_inverse_demand_and_follower_profit():
    # (p - r^2 - c) * q2 = (10 - 3 - 2 - 1 - 1) * 2
    assert game._pi2(1.0, 3.0, 2.0, 10.0, 1.0) == pytest.approx(6.0)
    rng = np.random.default_rng(29)
    for a, c, r, q1, q2 in rng.uniform([1, 0.1, -2, 0, 0], [20, 5, 2, 8, 8], (50, 5)):
        assert game._pi2(r * r, q1, q2, a, c) == pytest.approx(
            follower_profit(r, q1, q2, a, c), rel=1e-12, abs=1e-12)
        eq = equilibrium_at_royalty(MarketParams(a=a, c=c), r)
        assert eq.price == price(eq.q1, eq.q2, a)


def test_follower_best_response_is_argmax():
    a, c = 8.0, 0.5
    rng = np.random.default_rng(11)
    for _ in range(20):
        q1 = rng.uniform(0, 4)
        r = rng.uniform(0, 1.2)
        br = game._reaction(r * r, q1, a, c)
        assert br == pytest.approx(reaction(q1, r, a, c), abs=1e-12)
        grid = np.linspace(br - 2, br + 2, 2001)
        profits = follower_profit(r, q1, grid, a, c)
        assert abs(grid[int(np.argmax(profits))] - br) < 2e-3


def test_leader_profit_matches_market_accounting():
    # the expanded reduced-form leader payoff == price*q1 + r^2*q1 - c*q1 once
    # the follower best-responds
    a, c = 10.0, 1.0
    rng = np.random.default_rng(3)
    for _ in range(50):
        q1 = rng.uniform(0, 5)
        r = rng.uniform(0, 1.5)
        q2 = reaction(q1, r, a, c)
        assert game._pi1(r * r, q1, a, c) == pytest.approx(
            leader_profit(r, q1, q2, a, c), abs=1e-12)


def test_stage_quantities_closed_form():
    assert game._q1_star(1.0, 10.0, 1.0) == pytest.approx((10 + 3 - 1) / 2)
    assert game._q2_star(1.0, 10.0, 1.0) == pytest.approx((10 - 5 - 1) / 4)
    # q1* maximizes the leader's payoff against the reaction, and q2* is the
    # reaction to it
    rng = np.random.default_rng(17)
    for a, c, r in rng.uniform([1, 0.1, -2], [20, 5, 2], (30, 3)):
        q1 = game._q1_star(r * r, a, c)
        grid = np.linspace(q1 - 2, q1 + 2, 4001)
        payoff = leader_profit(r, grid, reaction(grid, r, a, c), a, c)
        assert abs(grid[int(np.argmax(payoff))] - q1) < 2e-3
        assert game._q2_star(r * r, a, c) == pytest.approx(
            reaction(q1, r, a, c), rel=1e-12, abs=1e-12)


def test_worked_instance():
    p = MarketParams(a=10.0, c=1.0)
    eq = equilibrium_at_royalty(p, 1.0)
    assert eq.q1 == pytest.approx(6.0, abs=1e-12)
    assert eq.q2 == pytest.approx(1.0, abs=1e-12)
    assert eq.price == pytest.approx(3.0, abs=1e-12)
    assert eq.leader_payoff == pytest.approx(18.0, abs=1e-12)
    assert eq.follower_payoff == pytest.approx(1.0, abs=1e-12)
    assert eq.flags.all_ok()


def test_royalty_foc_form():
    # at a fixed q1 the reduced leader payoff moves in r as 3 r q1, the
    # derivative verify_equilibrium checks
    a, c, h = 6.0, 2.0, 1e-5
    p = MarketParams(a=a, c=c)
    for r in (0.0, 0.3, 1.1):
        q1 = game._q1_star(r * r, a, c)

        def payoff(rr):
            return leader_profit(rr, q1, reaction(q1, rr, a, c), a, c)
        fd = (payoff(r + h) - payoff(r - h)) / (2 * h)
        assert fd == pytest.approx(3 * r * q1, abs=1e-6)
        eq = equilibrium_at_royalty(p, r)
        assert verify_equilibrium(p, eq).gaps["foc_royalty"] < 1e-6


def test_spne_negative_radicand_never_throws():
    # a > c: the radicand (c - a) / 3 is negative, and nothing raises
    sol = spne(MarketParams(a=10.0, c=1.0))
    assert not sol.flags.r_real
    assert math.isnan(sol.r)
    assert sol.r_squared == pytest.approx((1.0 - 10.0) / 3)


def test_spne_royalty_real_branch():
    p = MarketParams(a=1.0, c=4.0)
    sol = spne(p)
    assert sol.flags.r_real
    assert sol.r == pytest.approx(1.0)
    assert sol.r_squared == pytest.approx(1.0)
    assert sol.leader_payoff == 0.0


def test_spne_degenerate_leader_quantity():
    rng = np.random.default_rng(99)
    for _ in range(30):
        a = rng.uniform(0.5, 4.0)
        c = a + rng.uniform(0.1, 5.0)  # c > a: royalty stays real
        eq = spne(MarketParams(a=a, c=c))
        assert abs(eq.q1) < 1e-12
        assert eq.q2 == pytest.approx(2 * (a - c) / 3, abs=1e-12)
        assert eq.flags.r_real
        assert not eq.flags.q2_nonneg  # negative output is reported, not hidden


def test_spne_flags_non_real_royalty():
    eq = spne(MarketParams(a=10.0, c=1.0))
    assert not eq.flags.r_real
    assert math.isnan(eq.r)
    assert eq.r_squared == pytest.approx(-3.0)
    # quantities still evaluated at the stationary radicand
    assert eq.q1 == pytest.approx(0.0, abs=1e-12)
    assert eq.q2 == pytest.approx(6.0)


def test_profit_profile_monotone_when_a_exceeds_c():
    p = MarketParams(a=9.0, c=2.0)
    profits = royalty_profit_profile(p, np.linspace(0.0, 2.0, 40))
    assert len(profits) == 40
    assert np.all(np.diff(profits) > 0)
    q1_0 = (9.0 - 2.0) / 2  # (a + 3 r^2 - c) / 2 at r = 0
    assert profits[0] == pytest.approx(
        leader_profit(0.0, q1_0, reaction(q1_0, 0.0, 9.0, 2.0), 9.0, 2.0))


@settings(max_examples=100, deadline=None)
@given(a=st.floats(0.01, 100.0), ratio=st.floats(1.0 + 1e-6, 10.0),
       delta=st.floats(1e-3, 0.5))
@example(a=1.0, ratio=4.0, delta=0.1)
def test_spne_royalty_is_the_leader_profit_minimum(a, ratio, delta):
    # with c > a the royalty r* is real, yet a royalty either side of it pays
    # the leader more; verify_equilibrium passes there all the same, as its
    # foc_royalty checks a derivative's formula, not that r is optimal
    p = MarketParams(a=a, c=a * ratio)
    eq = spne(p)
    low, at, high = royalty_profit_profile(p, [eq.r * (1 - delta), eq.r, eq.r * (1 + delta)])
    assert at < low and at < high
    assert verify_equilibrium(p, eq).all_ok()


@settings(max_examples=60, deadline=None)
@given(st.floats(0.1, 20.0), st.floats(0.1, 20.0), st.floats(-2.0, 2.0))
@example(10.0, 1.0, 1.0)
def test_verify_equilibrium_accepts_true_optimum(a, c, r):
    p = MarketParams(a=a, c=c)
    eq = equilibrium_at_royalty(p, r)
    rep = verify_equilibrium(p, eq)
    assert rep.all_ok()
    assert rep.gaps["foc_follower"] < 1e-8
    assert rep.gaps["argmax_leader"] < 1e-6
    assert rep.gaps["point_leader"] == 0.0


def test_verify_equilibrium_rejects_off_equilibrium_point():
    p = MarketParams(a=10.0, c=1.0)
    eq = equilibrium_at_royalty(p, 1.0)
    bad = Equilibrium(q1=eq.q1 + 0.5, q2=eq.q2, r=eq.r, r_squared=eq.r_squared,
                      price=eq.price, leader_payoff=eq.leader_payoff,
                      follower_payoff=eq.follower_payoff, flags=eq.flags)
    rep = verify_equilibrium(p, bad)
    assert not rep.all_ok()
    assert not rep.checks["point_leader"]
    assert rep.checks["argmax_leader"]  # the closed form itself is still right


def test_verify_equilibrium_rejects_off_equilibrium_follower_quantity():
    p = MarketParams(a=10.0, c=1.0)
    eq = equilibrium_at_royalty(p, 1.0)
    bad = Equilibrium(q1=eq.q1, q2=eq.q2 + 0.5, r=eq.r, r_squared=eq.r_squared,
                      price=eq.price, leader_payoff=eq.leader_payoff,
                      follower_payoff=eq.follower_payoff, flags=eq.flags)
    rep = verify_equilibrium(p, bad)
    assert [k for k, ok in rep.checks.items() if not ok] == ["point_follower"]
    assert rep.gaps["point_follower"] == pytest.approx(0.5)


def test_verify_equilibrium_verifies_a_market_of_size_1e12():
    # near q = 1e12 one ulp is 1.2e-4, so an absolute tolerance could not pass
    p = MarketParams(a=1e12, c=1.0)
    eq = equilibrium_at_royalty(p, 1.0)
    rep = verify_equilibrium(p, eq)
    scale = max(1.0, p.a, 1.0, abs(eq.q1), abs(eq.q2), eq.r_squared)
    assert rep.all_ok() and rep.tolerance == 1e-6 * scale
    assert rep.gaps["argmax_follower"] < 1e-6 * p.a
    assert rep.gaps["argmax_leader"] < 1e-6 * p.a


@pytest.mark.parametrize("a", [1.0, 1e3, 1e6, 1e16, 1e50, 1e100, 1e150])
def test_verify_equilibrium_is_scaled_to_the_market(a):
    # r = 1 keeps r^2 small; at r = sqrt(a) it is of the market's size
    p = MarketParams(a=a, c=1.0)
    for r in (1.0, math.sqrt(a)):
        eq = equilibrium_at_royalty(p, r)
        rep = verify_equilibrium(p, eq)
        scale = max(1.0, a, 1.0, abs(eq.q1), abs(eq.q2), eq.r_squared)
        assert rep.all_ok() and rep.tolerance == 1e-6 * scale
        for name in ("q1", "q2"):  # off the stage optimum by 1e-4 of the scale
            for sign in (1.0, -1.0):
                moved = dataclasses.replace(eq, **{name: getattr(eq, name)
                                                   + sign * 1e-4 * scale})
                assert not verify_equilibrium(p, moved).all_ok()


_up_to_the_bound = st.floats(0.0, 2.0 ** 500, exclude_min=True)


@settings(max_examples=300, deadline=None)
@given(a=_up_to_the_bound, c=_up_to_the_bound, rsq=st.floats(0.0, 2.0 ** 500),
       negative=st.booleans())
@example(a=5e16, c=1e16, rsq=1e16, negative=False)
@example(a=2.0 ** 500, c=2.0 ** 500, rsq=2.0 ** 500, negative=True)
@example(a=2.0 ** 500, c=5e-324, rsq=2.0 ** 500, negative=False)
@example(a=5e-324, c=2.0 ** 500, rsq=0.0, negative=False)
def test_exact_equilibria_verify_at_every_market_size_up_to_the_bound(a, c, rsq, negative):
    # a, c and r^2 up to 2**500: every output is finite and every check passes
    p = MarketParams(a=a, c=c)
    r = math.sqrt(rsq) * (-1.0 if negative else 1.0)
    for eq in (equilibrium_at_royalty(p, r), spne(p)):
        assert all(math.isfinite(v) for v in (eq.q1, eq.q2, eq.r_squared, eq.price,
                                              eq.leader_payoff, eq.follower_payoff))
        rep = verify_equilibrium(p, eq)
        assert rep.all_ok(), rep.gaps


_near_end = 1.0 - 1e-3


@settings(max_examples=300, deadline=None)
@given(scale=st.floats(0.0, 12.0).map(lambda e: 10.0 ** e),
       center=st.floats(-2.0, 2.0),
       vertex=st.one_of(st.floats(-1.0, 1.0), st.floats(_near_end, 1.0),
                        st.floats(-1.0, -_near_end)),
       curvature=st.floats(0.5, 2.0), peak=st.floats(-1.0, 1.0))
@example(scale=1e12, center=0.0, vertex=1.0, curvature=1.0, peak=1.0)
@example(scale=1.0, center=0.0, vertex=-1.0, curvature=2.0, peak=-1.0)
def test_refine_argmax_finds_the_vertex_of_a_concave_quadratic(scale, center, vertex,
                                                               curvature, peak):
    # the bracket is center +- 1 and the vertex a point in it, both in units
    # of the scale, as verify_equilibrium brackets each closed form by +- s
    mid, v = center * scale, (center + vertex) * scale
    top = peak * curvature * scale * scale  # a profit is of order s^2
    got = game._refine_argmax(lambda x: top - curvature * (x - v) ** 2, mid, scale)
    assert abs(got - v) <= 1e-7 * scale


def test_refine_argmax_of_a_profit_with_the_wrong_sign_is_a_bracket_end():
    # a convex objective rises towards the ends, so the follower's -pi2 drives
    # the search to one and the argmax check fails by about the whole scale
    p = MarketParams(a=10.0, c=1.0)
    eq = equilibrium_at_royalty(p, 1.0)
    scale, br = 10.0, eq.q2  # s = a; q2 is the follower's best response
    got = game._refine_argmax(lambda q2: -game._pi2(eq.r_squared, eq.q1, q2, p.a, p.c),
                              br, scale)
    assert min(abs(got - (br - scale)), abs(got - (br + scale))) <= 1e-10 * scale
    assert abs(got - br) > 1e-6 * scale


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_exact_equilibria_pass_at_500_seeded_points(seed):
    # the README promise: a, c in [0.1, 1000], r in [-5, 5]
    points = np.random.default_rng(seed).uniform([0.1, 0.1, -5], [1000, 1000, 5], (500, 3))
    failed = []
    for a, c, r in points:
        p = MarketParams(a=a, c=c)
        if not verify_equilibrium(p, equilibrium_at_royalty(p, r)).all_ok():
            failed.append((a, c, r))
    assert failed == []


def test_verification_report_is_one_gap_table():
    p = MarketParams(a=10.0, c=1.0)
    eq = equilibrium_at_royalty(p, 1.0)
    rep = verify_equilibrium(p, dataclasses.replace(eq, q2=eq.q2 + 0.5))
    assert [f.name for f in dataclasses.fields(rep)] == ["gaps", "tolerance"]
    assert list(rep.gaps) == ["foc_follower", "foc_leader", "foc_royalty",
                              "argmax_follower", "argmax_leader",
                              "point_follower", "point_leader"]
    assert rep.checks == {k: gap <= rep.tolerance for k, gap in rep.gaps.items()}
    assert not rep.all_ok()
    with pytest.raises(dataclasses.FrozenInstanceError):
        rep.tolerance = 1.0


def test_verify_equilibrium_non_finite_input():
    p = MarketParams(a=10.0, c=1.0)
    eq = equilibrium_at_royalty(p, 1.0)
    nan_eq = Equilibrium(q1=math.nan, q2=eq.q2, r=eq.r, r_squared=eq.r_squared,
                         price=eq.price, leader_payoff=eq.leader_payoff,
                         follower_payoff=eq.follower_payoff, flags=eq.flags)
    with pytest.raises(ValueError):
        verify_equilibrium(p, nan_eq)


def test_equilibrium_at_royalty_rejects_non_finite_r():
    p = MarketParams(a=10.0, c=1.0)
    with pytest.raises(ValueError):
        equilibrium_at_royalty(p, math.nan)


def test_equilibrium_at_royalty_refuses_a_royalty_above_2_to_the_250():
    p = MarketParams(a=10.0, c=1.0)
    assert equilibrium_at_royalty(p, -2.0 ** 250).r_squared == 2.0 ** 500
    for r in (1e200, -math.nextafter(2.0 ** 250, math.inf)):
        with pytest.raises(ValueError, match=re.escape(f"royalty r={r:g} is above 2**250")):
            equilibrium_at_royalty(p, r)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_royalty_profit_profile_refuses_the_first_royalty_out_of_bound():
    p = MarketParams(a=10.0, c=1.0)
    edge = [2.0 ** 250, -2.0 ** 250]
    assert royalty_profit_profile(p, edge) == [equilibrium_at_royalty(p, r).leader_payoff
                                               for r in edge]
    above = math.nextafter(2.0 ** 250, math.inf)
    for r_values, message in (([1.0, 1e200, math.nan], "royalty r=1e+200 is above 2**250"),
                              ([1.0, math.nan, 1e200], "royalty must be finite"),
                              ([-math.inf], "royalty must be finite"),
                              ([0.5, -above], f"royalty r={-above:g} is above 2**250")):
        with pytest.raises(ValueError, match=re.escape(message)):
            royalty_profit_profile(p, r_values)


def test_feasibility_region_flags():
    rows = feasibility_region([1.0, 4.0], [1.0, 2.0])
    assert len(rows) == 4
    by_key = {(row["a"], row["c"]): row for row in rows}
    assert by_key[(1.0, 2.0)]["r_real"] == 1
    assert by_key[(4.0, 1.0)]["r_real"] == 0
    for row in rows:
        for flag in ("r_real", "q1_nonneg", "q2_nonneg", "p_nonneg"):
            assert row[flag] in (0, 1)


def test_feasibility_region_matches_closed_form_flags_on_a_grid():
    # r^2 = (c - a) / 3 is real iff c >= a; the royalty FOC 3 r q1 = 0 pins
    # q1* = 0; q2* = 2 (a - c) / 3; the price (a + 2c) / 3
    vals = np.linspace(0.5, 12.0, 300)
    rows = feasibility_region(vals, vals)
    a = np.array([row["a"] for row in rows])
    c = np.array([row["c"] for row in rows])
    assert len(rows) == 300 * 300
    want = {
        "r_real": c >= a,
        "q1_nonneg": np.ones(a.shape, dtype=bool),
        "q2_nonneg": a >= c,
        "p_nonneg": a + 2.0 * c >= 0,
    }
    for flag, expected in want.items():
        got = np.array([row[flag] for row in rows], dtype=bool)
        assert np.array_equal(got, expected), (flag, int((got != expected).sum()))


def test_spne_is_feasible_only_on_the_diagonal():
    # the README promise: r is real iff c >= a, and q2 = 2 (a - c) / 3 >= 0
    # iff a >= c, so all four flags hold only where a = c
    vals = np.linspace(1.0, 10.0, 300)
    feasible = [(row["a"], row["c"]) for row in feasibility_region(vals, vals)
                if row["r_real"] and row["q1_nonneg"] and row["q2_nonneg"]
                and row["p_nonneg"]]
    assert feasible == [(v, v) for v in vals.tolist()]


def test_spne_leader_quantity_is_exactly_zero():
    # (a + 3 r^2 - c) / 2 rounds to +4e-16, -2e-16 and -1e-17 at the first three
    for a, c in ((2.9, 7.3), (7.3, 2.9), (0.7, 0.1), (5.0, 5.0)):
        eq = spne(MarketParams(a=a, c=c))
        assert eq.q1 == 0.0 and eq.flags.q1_nonneg
        assert eq.leader_payoff == 0.0
        assert eq.q2 == pytest.approx(2.0 * (a - c) / 3.0, rel=1e-12, abs=1e-15)


_market = st.floats(0.01, 50.0)


@settings(max_examples=60, deadline=None)
@given(st.lists(_market, min_size=1, max_size=8), st.lists(_market, min_size=1, max_size=8))
@example([1.0, 2.9, 5.0, 7.3], [1.0, 2.9, 5.0, 7.3])
def test_feasibility_region_equals_spne_at_every_point(a_values, c_values):
    rows = feasibility_region(a_values, c_values)
    assert [(row["a"], row["c"]) for row in rows] == [
        (a, c) for a in a_values for c in c_values]
    for row in rows:
        eq = spne(MarketParams(a=row["a"], c=row["c"]))
        assert eq.q1 == 0.0
        assert row == {"a": row["a"], "c": row["c"], "r_real": int(eq.flags.r_real),
                       "q1_nonneg": int(eq.flags.q1_nonneg),
                       "q2_nonneg": int(eq.flags.q2_nonneg),
                       "p_nonneg": int(eq.flags.price_nonneg)}


@pytest.mark.parametrize("a_values, c_values, message", [
    ([1.0, -1.0, math.nan], [1.0], "must be positive"),
    ([1.0, math.inf], [1.0, 0.0], "must be positive"),  # (1, 0) comes before (inf, 1)
    ([math.inf, 1.0], [1.0, 0.0], "must be finite"),
    ([1.0, 1e308, 1e200], [1.0, 0.0], "must be positive"),
    ([1.0, 1e308, 1e200], [1.0, 2.0], r"a=1e\+308 is above 2\*\*500"),
    ([1.0], [1.0, 2.0 ** 500, 4e150], r"c=4e\+150 is above 2\*\*500"),
])
def test_feasibility_region_rejects_the_first_invalid_market(a_values, c_values, message):
    with pytest.raises(ValueError, match=message):
        feasibility_region(a_values, c_values)
