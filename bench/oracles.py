"""Reference computations the benchmark checks innoreg's outputs against.

Every oracle here is written from the textbook definition with numpy only
and shares no code with innoreg, so a defect in the program cannot hide in
the check.
"""

from __future__ import annotations

import csv

import numpy as np


def read_wide_csv(path):
    """(regions, years, {name: R x T array}) from a wide panel CSV.

    Region order is the order of first appearance and years are sorted;
    empty cells are NaN.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        records = [row for row in reader if row]
    names = header[2:]
    regions = list(dict.fromkeys(row[0] for row in records))
    years = sorted({int(row[1]) for row in records})
    r_of = {r: i for i, r in enumerate(regions)}
    t_of = {y: j for j, y in enumerate(years)}
    data = {nm: np.full((len(regions), len(years)), np.nan) for nm in names}
    for row in records:
        i, j = r_of[row[0]], t_of[int(row[1])]
        for nm, cell in zip(names, row[2:]):
            if cell != "":
                data[nm][i, j] = float(cell)
    return regions, years, data


def lagged(mat, k):
    """R x T matrix shifted k years back within each region, NaN-padded."""
    if k == 0:
        return mat
    out = np.full_like(mat, np.nan)
    out[:, k:] = mat[:, :-k]
    return out


def ols_design(data, spec):
    """(y, X) of a spec without interactions after listwise deletion."""
    cols = [data[spec["dependent"]].ravel()]
    for reg in spec["regressors"]:
        cols.append(lagged(data[reg["name"]], reg.get("lag", 0)).ravel())
    stack = np.column_stack(cols)
    stack = stack[~np.isnan(stack).any(axis=1)]
    y, X = stack[:, 0], stack[:, 1:]
    if spec.get("intercept", True):
        X = np.column_stack([np.ones(len(y)), X])
    return y, X


def ols_reference(y, X, hc):
    """(beta, robust se) from lstsq and the HC0-HC3 sandwich family.

    MacKinnon & White (1985): the meat weights squared residuals by 1,
    n / (n - k) (applied to the whole matrix), 1 / (1 - h) or 1 / (1 - h)^2,
    with h the diagonal of the hat matrix.
    """
    n, k = X.shape
    beta = np.linalg.lstsq(X, y, rcond=None)[0]
    e = y - X @ beta
    bread = np.linalg.inv(X.T @ X)
    h = np.einsum("ij,jk,ik->i", X, bread, X)
    w = e * e
    if hc == 2:
        w = w / (1.0 - h)
    elif hc == 3:
        w = w / (1.0 - h) ** 2
    cov = bread @ (X.T * w) @ X @ bread
    if hc == 1:
        cov = cov * (n / (n - k))
    return beta, np.sqrt(np.diag(cov))


def entropy_indices(emp, parent_of, national, scale):
    """(theil, related, unrelated, hoover) of one region-year.

    emp and national are employment vectors over the same industries;
    parent_of gives each industry's sector index. Natural logs; zero shares
    contribute nothing (Frenken, Van Oort & Verburg 2007).
    """
    p = emp / emp.sum()
    pos = p > 0
    theil = -np.sum(p[pos] * np.log(p[pos]))
    sector = np.bincount(parent_of, weights=p)
    sp = sector > 0
    unrelated = -np.sum(sector[sp] * np.log(sector[sp]))
    related = np.sum(p[pos] * np.log(sector[parent_of[pos]] / p[pos]))
    hoover = 0.5 * np.abs(p - national / national.sum()).sum() * scale
    return theil, related, unrelated, hoover


def game_flags(a, c):
    """Closed-form SPNE feasibility flags on arrays of (a, c).

    The royalty stage gives r^2 = (c - a) / 3, so r is real iff c >= a; the
    leader's quantity vanishes identically, q2 = 2 (a - c) / 3 and the price
    is (a + 2c) / 3.
    """
    a = np.asarray(a, dtype=float)
    c = np.asarray(c, dtype=float)
    return {
        "r_real": (c >= a).astype(int),
        "q1_nonneg": np.ones(a.shape, dtype=int),
        "q2_nonneg": (a >= c).astype(int),
        "p_nonneg": ((a + 2.0 * c) / 3.0 >= 0).astype(int),
    }


def royalty_outcome(a, c, r):
    """(q1, q2, price) of the quantity stages at a fixed royalty r.

    The follower best-responds with q2 = (a - q1 - r^2 - c) / 2; the leader,
    anticipating it, sets q1 = (a + 3 r^2 - c) / 2; the price is a - q1 - q2.
    """
    q1 = (a + 3.0 * r * r - c) / 2.0
    q2 = (a - q1 - r * r - c) / 2.0
    return q1, q2, a - q1 - q2
