"""Deterministic synthetic panels matched to target moments and correlations.

The source microdata behind the bundled summary tables is unpublished, so
every downstream demonstration runs on synthetic panels instead, built in
two steps, each done once:

* the marginals: one normal draw, recoloured to the target correlation
  matrix (made PSD by eigenvalue clipping; the repair size lands in the
  panel metadata), goes through clip(loc + scale·x, min, max) per variable,
  with (loc, scale) solved on the draw so that the sample has exactly the
  target mean and sd (to 1e-12 relative, or to float resolution where that
  is coarser);
* the row order: a permutation of a column keeps its mean, sd, min and max,
  so the correlations are tuned by reordering alone. The solved columns
  start in the ranks of the recoloured draw (Iman & Conover 1982; clipping
  is monotone). Then each column in turn takes the ranks of a gradient step
  on the squared distance to the target correlations, which moves many
  rows at once, and the best pairwise swap within it (Vořechovský & Novák
  2009), which finishes small panels; either is kept only if it lowers the
  distance. Time and memory grow with n·log n, not n².

The marginals alone bound every pair's correlation (sort both columns the
same way or opposite ways), so the metadata reports how far the targets lie
beyond those bounds next to the achieved error.

Everything is a pure function of (stats, corr, seed): same seed, same bytes.
"""

from __future__ import annotations

import numpy as np

from .panel import DescriptiveStats, PanelError, RegionalPanel

__all__ = ["nearest_psd", "synthesize_panel"]

_SWAP_ROWS = 128  # rows whose pairs a swap step scores
_EIGEN_FLOOR = 1e-8  # the smallest eigenvalue nearest_psd leaves
_MAX_SWEEPS = 40  # cap on the row-order calibration sweeps
_REPAIR_LIMIT = 0.1  # largest elementwise PSD repair of a correlation target
_RTOL = 1e-12  # relative tolerance of the sample moments, where floats resolve it
_RESOLUTION = 2 * np.finfo(float).eps  # a moment's float resolution per unit of cell size
_MAX_STEPS = 1000  # cap on the moment solve's evaluations of the clipped sample


def nearest_psd(corr: np.ndarray) -> np.ndarray:
    """Positive-semidefinite correlation matrix by eigenvalue clipping.

    Symmetrizes, clips eigenvalues at ``_EIGEN_FLOOR`` (1e-8), and rescales
    back to a unit diagonal; a matrix whose eigenvalues are already at least
    that only gets a unit diagonal. The result is close to ``corr`` when the
    repair is small, but it is not the Frobenius-nearest correlation matrix
    (Higham 2002), which needs alternating projections.
    """
    sym = (np.asarray(corr, dtype=float) + np.asarray(corr, dtype=float).T) / 2.0
    w, v = np.linalg.eigh(sym)
    if w.min() >= _EIGEN_FLOOR:
        out = sym.copy()
    else:
        out = (v * np.clip(w, _EIGEN_FLOOR, None)) @ v.T
        d = np.sqrt(np.diag(out))
        out = out / np.outer(d, d)
        out = (out + out.T) / 2.0
    np.fill_diagonal(out, 1.0)
    return out


def _exact_corr_normals(rng, n, k):
    # centered, whitened, so the sample correlation of the recolored draw is
    # exactly the requested matrix
    z = rng.standard_normal((n, k))
    z -= z.mean(axis=0)
    cov = z.T @ z / (n - 1)
    return z @ np.linalg.inv(np.linalg.cholesky(cov)).T


def _check_sd_attainable(names, n, m, s, lo, hi, e):
    # the largest Σ(y − m)² of n points on [lo, hi] with mean m puts every
    # point at a bound but one, which takes up the fraction of the mean; the
    # targets come scaled by 2**-e, and a message gives them unscaled
    p = n * (m - lo) / (hi - lo)
    top = np.floor(p)
    cap = np.sqrt(((n - top - 1) * (m - lo) ** 2 + top * (hi - m) ** 2
                   + (lo + (p - top) * (hi - lo) - m) ** 2) / (n - 1))
    bad = np.flatnonzero(s >= cap)
    if bad.size:
        j = bad[0]
        m, s, lo, hi, cap = (np.ldexp(v, e) for v in (m, s, lo, hi, cap))
        raise PanelError(
            f"sd target {s[j]} for {names[j]!r} unattainable with {n} observations "
            f"on [{lo[j]}, {hi[j]}] with mean {m[j]} (at most {cap[j]})")


def _solve_moments(names, x, m, s, lo, hi):
    """Columns clip(loc + scale·x, lo, hi) with the target sample moments.

    Solves every column of the draw ``x`` (n × k) at once for a per-column
    (loc, scale) that gives sample mean ``m`` and sample sd ``s`` (ddof=1),
    starting from the unclipped map (loc, scale) = (m, s), which puts a
    column of sample mean 0 and sd 1 on target before clipping. Two facts
    make a nested, bracketed solve possible. For fixed scale the sample mean
    is a monotone piecewise-linear function of loc, with slope (number of
    unclipped points) / n. With loc solved, D = Σ(y − m)² is a monotone
    piecewise-linear function of t = scale², with slope Σ(x − x̄)² over the
    unclipped points. D is taken about the sample mean ȳ, as Σ(y − m)² −
    n(ȳ − m)², so the sd does not take up the mean's residual, up to
    1e-12·|m| and so not small against s where |m| ≫ s. Each level takes
    the Newton step of its current linear piece, the exact root when the
    clip pattern holds, if it falls inside its bracket, and bisects
    otherwise, so it cannot diverge.

    Returns ``(y, err, steps)``. ``err`` per column is the larger of
    |mean − m| / max(|m|, s) and |sd − s| / s; ``steps`` counts evaluations
    of the clipped sample, at most ``_MAX_STEPS``. Each moment must come
    within ``_RTOL`` (1e-12) relative, or within its float resolution
    ``_RESOLUTION``·c = 2·eps·c if that is larger. Here c = min(max(|lo|,
    |hi|), |m| + s·√(n − 1)) bounds every cell of a sample with these
    moments, as Σ(y − m)² = (n − 1)s². Rounding a cell moves it by up to
    eps·c/2, so the sample mean by as much and the sample sd by up to
    eps·c/2·√(n/(n − 1)) ≤ eps·c/√2; evaluating them adds about as much
    again, so 2·eps·c covers both. The floor decides only where c/s >
    1e-12 / (2·eps), about 2250. Raises PanelError naming a variable that
    misses its tolerance.
    """
    x = np.ascontiguousarray(x.T)  # one row per variable: fast row sums
    k, n = x.shape
    m, s, lo, hi = (np.reshape(v, (k, 1)) for v in (m, s, lo, hi))
    den = np.maximum(np.abs(m), s)
    c = np.minimum(np.maximum(-lo, hi), np.abs(m) + s * np.sqrt(n - 1))
    tol, sd_tol = (np.maximum(_RTOL * v, _RESOLUTION * c) for v in (den, s))  # absolute
    ss = (n - 1) * s * s  # target D
    ss_tol = ss * sd_tol / s
    xmin, xmax = x.min(axis=1, keepdims=True), x.max(axis=1, keepdims=True)
    steps = 0

    def fit_loc(scale, loc):
        # mean(a) = lo (every point at lo) and mean(b) = hi bracket the root
        nonlocal steps
        a, b = lo - scale * xmax, hi - scale * xmin
        sx = scale * x
        while True:
            steps += 1
            y = np.minimum(np.maximum(loc + sx, lo), hi)
            f = y.sum(axis=1, keepdims=True) / n - m
            done = np.abs(f) <= tol
            if done.all() or steps >= _MAX_STEPS:
                return loc, y, f
            below = f < 0
            a = np.where(below, loc, a)
            b = np.where(below, b, loc)
            nm = ((y > lo) & (y < hi)).sum(axis=1, keepdims=True)
            root = loc - f * n / np.maximum(nm, 1)
            ok = (nm > 0) & (a < root) & (root < b)
            loc = np.where(done, loc, np.where(ok, root, 0.5 * (a + b)))

    loc, t = m, s * s
    t_lo, t_hi = np.zeros_like(t), np.full_like(t, np.inf)
    while True:
        scale = np.sqrt(t)
        loc, y, f = fit_loc(scale, loc)
        d = y - m
        excess = (d * d).sum(axis=1, keepdims=True) - n * f * f - ss  # D − target
        done = np.abs(excess) <= ss_tol
        if done.all() or steps >= _MAX_STEPS:
            break
        below = excess < 0
        t_lo = np.where(below, t, t_lo)
        t_hi = np.where(below, t_hi, t)
        mid = (y > lo) & (y < hi)
        nm = mid.sum(axis=1, keepdims=True)
        xm = np.where(mid, x, 0.0)
        s1 = xm.sum(axis=1, keepdims=True)
        with np.errstate(divide="ignore", invalid="ignore"):  # nm = 0 or 1: bisect
            xbar = s1 / nm
            root = t - excess / ((xm * xm).sum(axis=1, keepdims=True) - s1 * xbar)
        ok = ~done & (nm > 1) & (t_lo < root) & (root < t_hi)
        t = np.where(ok, root, np.where(
            done, t, np.where(np.isinf(t_hi), 4.0 * t_lo, 0.5 * (t_lo + t_hi))))
        # on an unchanged clip pattern this loc keeps the mean at m
        loc = np.where(ok, loc + (scale - np.sqrt(t)) * xbar, loc)
    y = y.T
    mean_err = np.abs(y.mean(axis=0) - m.ravel())
    sd_err = np.abs(y.std(axis=0, ddof=1) - s.ravel())
    err = np.maximum(mean_err / den.ravel(), sd_err / s.ravel())
    bad = np.flatnonzero(~((mean_err <= tol.ravel()) & (sd_err <= sd_tol.ravel())))  # NaN too
    if bad.size:
        j = bad[0]
        raise PanelError(
            f"sample moments of {names[j]!r} not solved: relative residual "
            f"{err[j]:.3e} after {steps} steps")
    return y, err, steps


def _standardized(y):
    return (y - y.mean(axis=0)) / y.std(axis=0, ddof=1)


def _reorder_toward(y, target):
    """Reorder rows within the columns of ``y`` toward correlation ``target``.

    Visits the columns in turn, trying a rank step and then a swap on each,
    each kept only if it lowers F = Σ(C − T)², C being the sample
    correlation, until a sweep moves nothing or ``_MAX_SWEEPS`` sweeps are
    done. A step costs time in n·k + n·log n and memory in n·k. Works in
    place; returns the last sweep that moved rows, 0 if none did.
    """
    n, k = y.shape
    z = _standardized(y)
    c = z.T @ z / (n - 1)
    last = 0
    for sweep in range(1, _MAX_SWEEPS + 1):
        for j in range(k):
            for step in (_rank_step, _swap_step):
                d = c[j] - target[j]
                d[j] = 0.0
                move = step(z, j, d)
                if move is not None:  # rows of column j take the values of rows src
                    rows, src = move
                    y[rows, j], z[rows, j] = y[src, j], z[src, j]
                    c[j] = c[:, j] = z.T @ z[:, j] / (n - 1)
                    last = sweep
        if last < sweep:
            break
    return last


def _rank_step(z, j, d):
    """``(rows, src)`` giving column j the ranks of a gradient step, if that lowers F.

    With z the standardized columns and d row j of C − T with a zero at j,
    F falls fastest along −u, u = z·d. Column j takes the rank order of
    z_j − η·u for the first η of 1, 1/2, 1/4, 1/8 that lowers F. This moves
    many rows at once, which a large panel needs: a swap moves C by O(1/n).
    """
    n = len(z)
    zj, u = z[:, j], z @ d
    order = np.argsort(zj, kind="stable")
    for eta in (1.0, 0.5, 0.25, 0.125):
        pos = np.argsort(zj - eta * u, kind="stable")
        new = np.empty(n)
        new[pos] = zj[order]
        if np.array_equal(new, zj):
            return None
        dn = d + z.T @ (new - zj) / (n - 1)
        dn[j] = 0.0
        if dn @ dn < d @ d - 1e-12:
            return pos, order
    return None


def _swap_step(z, j, d):
    """``(rows, src)`` of the swap in column j that lowers F the most, if any.

    Swapping rows a and b of column j (Δz = z_bj − z_aj) changes F by

        4·Δz·(u_a − u_b)/(n−1) + 2·Δz²·(s_a + s_b − 2P_ab)/(n−1)²

    with u as in ``_rank_step`` and s_a + s_b − 2P_ab the squared distance
    of rows a and b without column j. One table scores every pair of the
    scored rows: all of them when n is at most ``_SWAP_ROWS``, else the
    ``_SWAP_ROWS``/2 with the lowest and the ``_SWAP_ROWS``/2 with the
    highest u, between which the first term can gain the most. The swaps
    finish the small panels, whose rank steps are too coarse.
    """
    n = len(z)
    v = z @ d * (2.0 * (n - 1))
    if n <= _SWAP_ROWS:
        idx = np.arange(n)
    else:
        part = np.argpartition(v, (_SWAP_ROWS // 2 - 1, n - _SWAP_ROWS // 2))
        idx = np.concatenate((part[:_SWAP_ROWS // 2], part[n - _SWAP_ROWS // 2:]))
    zr, vr = z[idx], v[idx]
    # g = gain·(n−1)²/2 = e²·(dist − e²) − e·(v_a − v_b), with e = z_aj − z_bj
    # and dist the squared row distance, worked in place in g and h
    sq = np.einsum("ij,ij->i", zr, zr)
    g = zr @ zr.T
    g *= -2.0
    g += sq[:, None]
    g += sq
    e = np.subtract.outer(zr[:, j], zr[:, j])
    h = e * e
    g -= h
    g *= e
    g -= np.subtract.outer(vr, vr, out=h)
    g *= e
    i = int(g.argmin())
    if g.flat[i] > -1e-12 * (n - 1) ** 2 / 2.0:  # no swap lowers F beyond rounding
        return None
    a, b = idx[list(divmod(i, len(idx)))]
    return [a, b], [b, a]


def _attainable_gap(y, target):
    """Distance from each target to the correlation interval its pair allows.

    Sorting both columns the same way gives the pair's largest Pearson
    correlation, opposite ways its smallest (Fréchet–Hoeffding bounds).
    """
    s = np.sort(_standardized(y), axis=0)
    top, bottom = s.T @ s / (len(s) - 1), s.T @ s[::-1] / (len(s) - 1)
    return np.maximum(np.maximum(bottom - target, target - top), 0.0)


def synthesize_panel(stats: DescriptiveStats, corr: np.ndarray, seed: int,
                     regions: int = 13, years: int = 9,
                     corr_names=None) -> RegionalPanel:
    """Draw a balanced synthetic panel matching summary stats and correlations.

    Parameters
    ----------
    stats : DescriptiveStats
        Target mean/sd/min/max per variable, checked against the stats rule when
        the table was built; the variable order of the output panel.
    corr : array
        Target correlation matrix. Made PSD by ``nearest_psd`` when needed;
        the repair magnitude lands in ``panel.meta`` and may be at most 0.1
        elementwise. Must be symmetric with a unit diagonal.
    seed : int
        Generator seed; fixes the output bit-for-bit.
    regions, years : int
        Grid size, each at least 2 (checked before any draw), labelled R01..
        and 2001..; their product, the sample size, must exceed the variable count.
    corr_names : optional sequence
        Variable order of ``corr`` when it differs from the stats order;
        ``corr`` is then len(corr_names) square.

    The row order is tuned toward ``corr`` in at most 40 sweeps; each tries
    one rank step and one swap per variable, and the sweeps stop earlier
    once one moves nothing.

    Returns a RegionalPanel whose ``meta`` documents the PSD repair, the
    correlation error (``corr_max_abs_error``, ``corr_mean_abs_error``),
    its floor (``corr_error_floor``: the largest distance from a target to
    the interval its pair's marginals allow; ``corr_infeasible_pairs``
    targets lie outside theirs), ``best_iteration`` (the last sweep that
    moved rows) and the moment solve (``moment_max_rel_error``,
    ``moment_solve_max_iterations``). Every sample mean and sd (ddof=1)
    matches its target to 1e-12 relative (the mean relative to
    max(|mean|, sd)), or to its float resolution where that is coarser (see
    ``_solve_moments``), and every value sits inside [min, max]. A target that
    no sample of this size can reach, or a solve that misses the tolerance,
    raises PanelError naming the variable.
    """
    grid = RegionalPanel(tuple(f"R{i + 1:02d}" for i in range(regions)),  # raises below 2 x 2
                         tuple(range(2001, 2001 + years)), {})
    names = list(stats.names())
    n = grid.n_obs
    if not names:
        raise PanelError("no variables in stats")

    corr = np.asarray(corr, dtype=float)
    order = names if corr_names is None else list(corr_names)
    if corr.shape != (len(order), len(order)):
        raise PanelError(f"corr shape {corr.shape} does not match {len(order)} variables")
    if corr_names is not None:
        if sorted(order) != sorted(names):
            raise PanelError("corr_names do not match the stats variables")
        idx = [order.index(nm) for nm in names]
        corr = corr[np.ix_(idx, idx)]
    if not np.allclose(corr, corr.T, atol=1e-12):
        raise PanelError("corr must be symmetric")
    if not np.allclose(np.diag(corr), 1.0, atol=1e-12):
        raise PanelError("corr must have a unit diagonal")

    targets = np.array([[st.mean, st.sd, st.min, st.max]
                        for st in (stats.get(nm) for nm in names)])
    const = targets[:, 1] == 0  # by the stats rule, also every min = max target
    active = np.flatnonzero(~const)
    k = active.size
    if k and n <= k:
        raise PanelError(f"need more than {k} observations for {k} variables; got {n}")
    active_names = [names[j] for j in active]
    m, s, lo, hi = targets[active].T
    e = np.frexp(np.maximum(-lo, hi))[1]  # solve on targets / 2**e: no square overflows
    m, s, lo, hi = (np.ldexp(v, -e) for v in (m, s, lo, hi))

    target = corr[np.ix_(active, active)]
    repaired = nearest_psd(target) if k else target  # all constant: nothing to draw
    repair = float(np.abs(repaired - target).max()) if k else 0.0
    if repair > _REPAIR_LIMIT:
        raise PanelError(
            f"correlation target not PSD-repairable within {_REPAIR_LIMIT} "
            f"(needed {repair:.4f})")

    rng = np.random.default_rng(seed)
    zw = _exact_corr_normals(rng, n, k) if k else np.empty((n, 0))
    _check_sd_attainable(active_names, n, m, s, lo, hi, e)
    y, moment_err, steps = _solve_moments(active_names, zw @ np.linalg.cholesky(repaired).T,
                                          m, s, lo, hi)
    last_sweep = _reorder_toward(y, target) if k >= 2 else 0

    tri = np.triu_indices(k, 1)
    err = np.abs((np.corrcoef(y, rowvar=False) if k >= 2 else target) - target)[tri]
    gap = _attainable_gap(y, target)[tri]
    meta = {
        "seed": int(seed),
        "n_obs": n,
        "psd_repair_max_abs": repair,
        "corr_max_abs_error": float(err.max(initial=0.0)),
        "corr_mean_abs_error": float(err.mean()) if err.size else 0.0,
        "corr_error_floor": float(gap.max(initial=0.0)),
        "corr_infeasible_pairs": int(np.count_nonzero(gap)),
        "calibration_iterations": _MAX_SWEEPS,
        "best_iteration": last_sweep,
        "moment_max_rel_error": float(moment_err.max(initial=0.0)),
        "moment_solve_max_iterations": steps,
        "constant_variables": [names[j] for j in np.flatnonzero(const)],
    }

    data = {}
    cols = iter(np.ldexp(y, e).T)
    for j, nm in enumerate(names):
        col = np.full(n, targets[j, 0]) if const[j] else next(cols)
        data[nm] = col.reshape(grid.n_regions, grid.n_years)
    return RegionalPanel(regions=grid.regions, years=grid.years, data=data, meta=meta)
