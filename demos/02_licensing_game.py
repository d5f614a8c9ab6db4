"""Walkthrough: the patent-licensing Stackelberg duopoly.

Solves the quantity stages at a fixed royalty, cross-checks every closed form
against finite differences and direct optimization, then traces why the full
game degenerates: the leader's profit keeps rising in the royalty whenever
demand is strong enough to make production worthwhile, and the royalty the
backward induction returns, where c > a, is the leader's profit minimum.
"""

import numpy as np

from innoreg import (MarketParams, equilibrium_at_royalty, feasibility_region,
                     royalty_profit_profile, spne, verify_equilibrium)


def main():
    params = MarketParams(a=10.0, c=1.0)

    print("== fixed royalty r = 1 ==")
    eq = equilibrium_at_royalty(params, 1.0)
    print(f"  leader q1 {eq.q1:.4f}, follower q2 {eq.q2:.4f}, price {eq.price:.4f}")
    print(f"  payoffs: leader {eq.leader_payoff:.4f}, follower {eq.follower_payoff:.4f}")

    print("\n== independent verification ==")
    rep = verify_equilibrium(params, eq)
    for name, passed in rep.checks.items():
        print(f"  {name:<18} {'ok' if passed else 'FAIL'}")
    worst = max(rep.gaps[k] for k in ("foc_follower", "foc_leader", "foc_royalty"))
    print(f"  worst FOC gap {worst:.2e}")

    print("\n== leader profit is monotone in the royalty (a > c) ==")
    rs = np.linspace(0.0, 2.0, 9)
    profile = royalty_profit_profile(params, rs)
    for r, pi in zip(rs, profile):
        print(f"  r = {r:.2f}  q1* = {equilibrium_at_royalty(params, r).q1:6.3f}  "
              f"profit = {pi:8.3f}")
    print("  -> no interior royalty optimum exists on this side")

    print("\n== the stationary royalty r* = sqrt((c - a) / 3) needs c > a ==")
    eq1 = spne(params)
    print(f"  a=10, c=1: radicand {eq1.r_squared:.4f} < 0, royalty real: {eq1.flags.r_real}")
    weak = MarketParams(a=1.0, c=4.0)
    eq2 = spne(weak)
    print(f"  a=1, c=4: r* = {eq2.r:.4f} (real), but then q1* = {eq2.q1:.4f} and "
          f"q2* = {eq2.q2:.4f} (feasible: {eq2.flags.all_ok()})")
    near = royalty_profit_profile(weak, [0.9 * eq2.r, eq2.r, 1.1 * eq2.r])
    print("  leader profit at 0.9 r*, r*, 1.1 r*: " + ", ".join(f"{pi:.4f}" for pi in near))
    print(f"  -> r* is the leader's profit minimum, 0; verify all_ok: "
          f"{verify_equilibrium(weak, eq2).all_ok()},")
    print("     as foc_royalty checks the derivative's formula, not that r* is optimal")
    print("  under the textbook accounting, the licensor collecting R on each unit the")
    print("  licensee sells, R* = (a - c) / 2 and q2 = 0: the licensee is foreclosed")

    print("\n== feasibility over an (a, c) grid ==")
    rows = feasibility_region(np.linspace(1, 5, 5), np.linspace(1, 5, 5))
    feasible = sum(1 for row in rows
                   if row["r_real"] and row["q2_nonneg"] and row["p_nonneg"])
    print(f"  {feasible}/{len(rows)} grid points have a real royalty with "
          "non-negative follower output and price")
    print("  they are the diagonal a = c: r is real iff c >= a, and q2 >= 0 iff a >= c")


if __name__ == "__main__":
    main()
