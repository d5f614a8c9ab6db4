"""Walkthrough: the patent-licensing Stackelberg duopoly.

Solves the quantity stages at a fixed royalty, cross-checks every closed form
against finite differences and direct optimization, then traces why the full
game degenerates: the leader's profit keeps rising in the royalty whenever
demand is strong enough to make production worthwhile.
"""

import numpy as np

from innoreg import (MarketParams, equilibrium_at_royalty, feasibility_region,
                     optimal_royalty, royalty_profit_profile, spne,
                     verify_equilibrium)


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

    print("\n== the stationary royalty needs c > a ==")
    sol = optimal_royalty(params)
    print(f"  a=10, c=1: radicand {sol.radicand:.4f} < 0, royalty real: {sol.real}")
    weak = MarketParams(a=1.0, c=4.0)
    sol2 = optimal_royalty(weak)
    print(f"  a=1, c=4: r* = {sol2.value:.4f} (real)")
    eq2 = spne(weak)
    print(f"  but then q1* = {eq2.q1:.4f} and q2* = {eq2.q2:.4f} "
          f"(feasible: {eq2.flags.all_ok()})")

    print("\n== feasibility over an (a, c) grid ==")
    rows = feasibility_region(np.linspace(1, 5, 5), np.linspace(1, 5, 5))
    feasible = sum(1 for row in rows
                   if row["r_real"] and row["q2_nonneg"] and row["p_nonneg"])
    print(f"  {feasible}/{len(rows)} grid points have a real royalty with "
          "non-negative follower output and price")
    print("  every SPNE keeps q1* = 0, so full feasibility never obtains")


if __name__ == "__main__":
    main()
