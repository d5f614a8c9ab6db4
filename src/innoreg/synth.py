"""Deterministic synthetic panels matched to target moments and correlations.

The source microdata behind the bundled summary tables is unpublished, so
every downstream demonstration runs on synthetic panels instead: a
correlated-normal draw pushed through a per-variable affine rescale with
min/max clamping.

Three refinements make that basic recipe meet its contract on hard targets
(bounded variables whose sd is several times the mean-to-bound distance, and
a target correlation matrix that is not PSD to begin with):

* the affine (loc, scale) per variable is solved on the draw itself so the
  clipped sample has exactly the target mean and sd (to 1e-12 relative):
  one bracketed, nested Newton solve over all variables at once, started
  from the population fit of the clipped normal (nested root-finding on the
  censored-normal moment equations) and, on later calibration steps, from
  the previous step's solution;
* the target correlation matrix is made PSD by eigenvalue clipping and
  rescaling to a unit diagonal (the repair size is recorded in the panel
  metadata);
* the input correlation fed to the normal draw is tuned by a damped
  fixed-point loop (300 steps by default) against the measured output
  correlation, keeping the best iterate — clamping distorts Pearson
  correlations badly (up to ~0.5 for the bundled targets without tuning),
  and tuning brings the worst-case error within about 0.15.

Everything is a pure function of (stats, corr, seed): same seed, same bytes.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import brentq

from .panel import DescriptiveStats, PanelError, RegionalPanel

__all__ = ["nearest_psd", "synthesize_panel"]

_SQRT2 = math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)


def _norm_cdf(x):
    return 0.5 * (1.0 + math.erf(x / _SQRT2))


def _norm_pdf(x):
    return math.exp(-0.5 * x * x) * _INV_SQRT2PI


def nearest_psd(corr: np.ndarray, floor: float = 1e-8) -> np.ndarray:
    """Positive-semidefinite correlation matrix by eigenvalue clipping.

    Symmetrizes, clips eigenvalues at ``floor``, and rescales back to a unit
    diagonal; a matrix whose eigenvalues are already at least ``floor`` only
    gets a unit diagonal. The result is close to ``corr`` when the repair is
    small, but it is not the Frobenius-nearest correlation matrix (Higham
    2002), which needs alternating projections.
    """
    sym = (np.asarray(corr, dtype=float) + np.asarray(corr, dtype=float).T) / 2.0
    w, v = np.linalg.eigh(sym)
    if w.min() >= floor:
        out = sym.copy()
        np.fill_diagonal(out, 1.0)
        return out
    w = np.clip(w, floor, None)
    out = (v * w) @ v.T
    d = np.sqrt(np.diag(out))
    out = out / np.outer(d, d)
    out = (out + out.T) / 2.0
    np.fill_diagonal(out, 1.0)
    return out


def _clipped_moments(loc, scale, lo, hi):
    # mean and sd of clip(loc + scale * Z, lo, hi), Z standard normal
    a = (lo - loc) / scale
    b = (hi - loc) / scale
    fa, fb = _norm_cdf(a), _norm_cdf(b)
    pa, pb = _norm_pdf(a), _norm_pdf(b)
    mid = fb - fa
    ez = -(pb - pa)
    ez2 = mid - (b * pb - a * pa)
    m1 = lo * fa + hi * (1.0 - fb) + loc * mid + scale * ez
    m2 = (lo * lo * fa + hi * hi * (1.0 - fb) + loc * loc * mid
          + 2.0 * loc * scale * ez + scale * scale * ez2)
    var = m2 - m1 * m1
    return m1, math.sqrt(max(var, 0.0))


def _fit_affine(name, m, s, lo, hi):
    """(loc, scale) such that the clipped normal has population mean m, sd s.

    An sd no clipped normal reaches gets the unclipped map (m, s) instead,
    which gives a draw of sample mean 0 and sd 1 the target moments before
    clipping. It is only a start for the sample moment solve: an n-point
    sample can exceed the population sd cap, and ``_check_sd_attainable``
    rejects a target that no sample of that size reaches.
    """
    span = hi - lo
    if span < 0 or not (lo <= m <= hi):
        raise PanelError(f"inconsistent stats for {name!r}")
    if s == 0 or span == 0:
        return m, 0.0
    # given mean m on [lo, hi] no distribution exceeds this sd
    if s >= math.sqrt((m - lo) * (hi - m)):
        return m, s

    def loc_for(scale):
        f = lambda loc: _clipped_moments(loc, scale, lo, hi)[0] - m
        l1 = lo - 9.0 * scale - span
        l2 = hi + 9.0 * scale + span
        return brentq(f, l1, l2, xtol=1e-13, maxiter=200)

    def sd_gap(scale):
        loc = loc_for(scale)
        return _clipped_moments(loc, scale, lo, hi)[1] - s

    s_lo, s_hi = 1e-9 * span, 80.0 * span
    if sd_gap(s_hi) < 0:  # even near-two-point mass undershoots
        return m, s
    scale = brentq(sd_gap, s_lo, s_hi, xtol=1e-13, maxiter=200)
    return loc_for(scale), scale


def _exact_corr_normals(rng, n, k):
    # centered, whitened, so the sample correlation of the recolored draw is
    # exactly the requested matrix
    z = rng.standard_normal((n, k))
    z -= z.mean(axis=0)
    cov = z.T @ z / (n - 1)
    return z @ np.linalg.inv(np.linalg.cholesky(cov)).T


def _check_sd_attainable(names, n, m, s, lo, hi):
    # the largest Σ(y − m)² of n points on [lo, hi] with mean m puts every
    # point at a bound but one, which takes up the fraction of the mean
    p = n * (m - lo) / (hi - lo)
    top = np.floor(p)
    cap = np.sqrt(((n - top - 1) * (m - lo) ** 2 + top * (hi - m) ** 2
                   + (lo + (p - top) * (hi - lo) - m) ** 2) / (n - 1))
    bad = np.flatnonzero(s >= cap)
    if bad.size:
        j = bad[0]
        raise PanelError(
            f"sd target {s[j]} for {names[j]!r} unattainable with {n} observations "
            f"on [{lo[j]}, {hi[j]}] with mean {m[j]} (at most {cap[j]})")


def _solve_moments(names, x, m, s, lo, hi, loc, scale, rtol=1e-12, max_steps=1000):
    """Per-column (loc, scale) putting clip(loc + scale·x, lo, hi) on target.

    Solves every column of the draw ``x`` (n × k) at once for the sample mean
    ``m`` and sample sd ``s`` (ddof=1), starting from ``(loc, scale)``. Two
    facts make a nested, bracketed solve possible. For fixed scale the sample
    mean is a monotone piecewise-linear function of loc, with slope (number
    of unclipped points) / n. With loc solved, D = Σ(y − m)² is a monotone
    piecewise-linear function of t = scale², with slope Σ(x − x̄)² over the
    unclipped points. Each level takes the Newton step of its current linear
    piece, the exact root when the clip pattern holds, if it falls inside
    its bracket, and bisects otherwise, so it cannot diverge.

    Returns ``(y, loc, scale, err, steps)``. ``err`` per column is the larger
    of |mean − m| / max(|m|, s) and |sd − s| / s; ``steps`` counts
    evaluations of the clipped sample. Raises PanelError naming a variable
    whose ``err`` stays above ``rtol``.
    """
    x = np.ascontiguousarray(x.T)  # one row per variable: fast row sums
    k, n = x.shape
    m, s, lo, hi, loc, scale = (np.reshape(v, (k, 1)) for v in (m, s, lo, hi, loc, scale))
    den = np.maximum(np.abs(m), s)
    tol = rtol * den
    ss = (n - 1) * s * s  # target D
    ss_tol = rtol * ss
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
            if done.all() or steps >= max_steps:
                return loc, y
            below = f < 0
            a = np.where(below, loc, a)
            b = np.where(below, b, loc)
            nm = ((y > lo) & (y < hi)).sum(axis=1, keepdims=True)
            root = loc - f * n / np.maximum(nm, 1)
            ok = (nm > 0) & (a < root) & (root < b)
            loc = np.where(done, loc, np.where(ok, root, 0.5 * (a + b)))

    t = scale * scale
    t_lo, t_hi = np.zeros_like(t), np.full_like(t, np.inf)
    while True:
        scale = np.sqrt(t)
        loc, y = fit_loc(scale, loc)
        d = y - m
        excess = (d * d).sum(axis=1, keepdims=True) - ss  # D − target
        done = np.abs(excess) <= ss_tol
        if done.all() or steps >= max_steps:
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
    err = np.maximum(np.abs(y.mean(axis=0) - m.ravel()) / den.ravel(),
                     np.abs(y.std(axis=0, ddof=1) - s.ravel()) / s.ravel())
    bad = np.flatnonzero(err > rtol)
    if bad.size:
        j = bad[0]
        raise PanelError(
            f"sample moments of {names[j]!r} not solved: relative residual "
            f"{err[j]:.3e} after {steps} steps")
    return y, loc.ravel(), np.sqrt(t).ravel(), err, steps


def synthesize_panel(stats: DescriptiveStats, corr: np.ndarray, seed: int,
                     regions=13, years=9, corr_names=None,
                     calibration_iterations: int = 300,
                     repair_limit: float = 0.1) -> RegionalPanel:
    """Draw a balanced synthetic panel matching summary stats and correlations.

    Parameters
    ----------
    stats : DescriptiveStats
        Target mean/sd/min/max per variable; the variable order of the output
        panel.
    corr : array
        Target correlation matrix. Made PSD by ``nearest_psd`` when needed;
        the repair magnitude lands in ``panel.meta``. Must be symmetric with
        a unit diagonal.
    seed : int
        Generator seed; fixes the output bit-for-bit.
    regions, years : int or sequence
        Grid labels (plain ints generate R01.. and 2001..); their product is
        the sample size and must exceed the number of variables.
    corr_names : optional sequence
        Variable order of ``corr`` when it differs from the stats order.
    calibration_iterations : int
        Damped fixed-point steps (default 300) tuning the input correlation
        against the measured output correlation; the best iterate wins.
    repair_limit : float
        Maximum tolerated elementwise PSD-repair perturbation.

    Returns a RegionalPanel whose ``meta`` documents the PSD repair, the
    achieved correlation error and the moment solve (``moment_max_rel_error``
    of the returned panel, ``moment_solve_max_iterations`` over the run).
    Every sample mean and sd (ddof=1) matches its target to 1e-12 relative
    (the mean relative to max(|mean|, sd)), and every value sits inside
    [min, max]. A target that no sample of this size can reach, or a solve
    that misses the tolerance, raises PanelError naming the variable.
    """
    if isinstance(regions, int):
        regions = tuple(f"R{i + 1:02d}" for i in range(regions))
    else:
        regions = tuple(regions)
    if isinstance(years, int):
        years = tuple(range(2001, 2001 + years))
    else:
        years = tuple(int(y) for y in years)
    names = list(stats.names())
    n = len(regions) * len(years)
    if not names:
        raise PanelError("no variables in stats")

    corr = np.asarray(corr, dtype=float)
    if corr.shape != (len(names), len(names)) and corr_names is None:
        raise PanelError(
            f"corr shape {corr.shape} does not match {len(names)} variables")
    if corr_names is not None:
        order = list(corr_names)
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
    affine = np.array([_fit_affine(nm, *row) for nm, row in zip(names, targets)])
    const = np.flatnonzero(affine[:, 1] == 0.0)
    active = np.flatnonzero(affine[:, 1] != 0.0)
    k = active.size
    if k and n <= k:
        raise PanelError(f"need more than {k} observations for {k} variables; got {n}")
    active_names = [names[j] for j in active]
    m, s, lo, hi = targets[active].T

    target = corr[np.ix_(active, active)]
    repaired = nearest_psd(target) if k else target  # all constant: nothing to draw
    repair = float(np.abs(repaired - target).max()) if k else 0.0
    if repair > repair_limit:
        raise PanelError(
            f"correlation target not PSD-repairable within {repair_limit} "
            f"(needed {repair:.4f})")

    rng = np.random.default_rng(seed)
    zw = _exact_corr_normals(rng, n, k) if k else np.empty((n, 0))
    _check_sd_attainable(active_names, n, m, s, lo, hi)
    # the first solve starts from the population fit, each later one from
    # the previous solution, which sits on nearly the same clip pattern
    loc, scale = affine[active].T
    max_steps = 0

    def realize(cin):
        nonlocal loc, scale, max_steps
        x = zw @ np.linalg.cholesky(cin).T
        y, loc, scale, err, steps = _solve_moments(active_names, x, m, s, lo, hi,
                                                   loc, scale)
        max_steps = max(max_steps, steps)
        out = np.empty((n, len(names)))
        out[:, const] = targets[const, 0]
        out[:, active] = y
        return out, float(err.max(initial=0.0))

    def measured(out):
        if k < 2:
            return target.copy()
        sub = out[:, active]
        c = np.corrcoef(sub, rowvar=False)
        return (c + c.T) / 2.0

    best_out, best_err, best_it, best_moment = None, math.inf, 0, 0.0
    cin = repaired.copy()
    n_iter = max(1, int(calibration_iterations))
    for it in range(n_iter):
        out, moment = realize(cin)
        err = measured(out) - target
        mx = float(np.abs(err).max()) if k >= 2 else 0.0
        if mx < best_err:
            best_out, best_err, best_it, best_moment = out, mx, it, moment
        if k < 2 or mx < 1e-12:
            break
        step = 0.7 * (0.25 + 0.75 * (1.0 - it / n_iter))  # decaying damping
        cin = nearest_psd(np.clip(cin - step * err, -0.999, 0.999))

    final_err = measured(best_out) - target if k >= 2 else np.zeros((k, k))
    tri = np.triu_indices(k, 1)
    meta = {
        "seed": int(seed),
        "n_obs": n,
        "psd_repair_max_abs": repair,
        "corr_max_abs_error": float(np.abs(final_err).max()) if k >= 2 else 0.0,
        "corr_mean_abs_error": (float(np.abs(final_err)[tri].mean())
                                if k >= 2 and tri[0].size else 0.0),
        "calibration_iterations": n_iter,
        "best_iteration": int(best_it),
        "moment_max_rel_error": best_moment,
        "moment_solve_max_iterations": max_steps,
        "constant_variables": [names[j] for j in const],
    }

    data = {}
    for j, nm in enumerate(names):
        data[nm] = best_out[:, j].reshape(len(regions), len(years))
    return RegionalPanel(regions=regions, years=years, data=data, meta=meta)
