"""Walkthrough: entropy-based diversity and specialization measures.

Builds a toy two-region employment table, computes the Theil index with its
related/unrelated split, and the Hoover specialization index, then shows the
decomposition identity holding on random employment counts.
"""

import math

import numpy as np

from innoreg import (hoover_index, indices_table, load_employment, theil_index,
                     variety_decomposition)

EMPLOYMENT = """\
region,year,industry,parent,employment
north,2001,food,manufacturing,40
north,2001,textiles,manufacturing,10
north,2001,retail,services,30
north,2001,finance,services,20
south,2001,food,manufacturing,25
south,2001,textiles,manufacturing,25
south,2001,retail,services,25
south,2001,finance,services,25
"""


def main():
    import io

    table = load_employment(io.StringIO(EMPLOYMENT))

    print("== per region-year indices ==")
    for row in indices_table(table):
        print(f"  {row['region']:<6} {row['year']}  theil {row['theil']:.4f}  "
              f"related {row['related']:.4f}  unrelated {row['unrelated']:.4f}  "
              f"hoover {row['hoover']:.2f}")

    # The south spreads employment evenly over 4 industries: theil = ln(4).
    south = table.employment("south", 2001)
    print(f"\nuniform 4-industry region: theil {theil_index(south):.6f} "
          f"vs ln(4) = {math.log(4):.6f}")

    # Decomposition identity: total diversity = between-sector + within-sector.
    dec = variety_decomposition(table.employment("north", 2001), table.parents)
    print(f"north:  {dec.theil:.6f} = {dec.unrelated:.6f} (unrelated) "
          f"+ {dec.related:.6f} (related)")

    # Hoover: how far regional shares sit from national shares (x100 display).
    hv = hoover_index(table.employment("north", 2001), table.national(2001))
    print(f"north hoover: {hv:.4f} raw, {100 * hv:.1f} display")

    print("\n== identity on random employment counts ==")
    rng = np.random.default_rng(7)
    parents = {f"i{k}": f"sector{k % 4}" for k in range(30)}
    worst = 0.0
    for _ in range(500):
        n = int(rng.integers(2, 30))
        w = rng.gamma(0.8, size=n)
        d = variety_decomposition({f"i{k}": float(w[k]) for k in range(n)}, parents)
        worst = max(worst, abs(d.theil - d.related - d.unrelated))
    print(f"max |theil - related - unrelated| over 500 draws: {worst:.2e}")


if __name__ == "__main__":
    main()
