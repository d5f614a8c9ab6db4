"""Stackelberg patent-licensing duopoly with a quadratic per-unit royalty.

A patent-holding leader picks its quantity and a royalty rate ``r``; the
follower licenses the technology, pays ``r**2`` per unit produced, and
best-responds in quantity. Inverse demand is linear, ``p = a - (q1 + q2)``,
and both firms share the constant marginal cost ``c``.

All closed forms are implemented exactly as stated, including the regimes
where they go out of economic bounds: negative quantities and prices are
returned together with feasibility flags instead of being clamped, and the
royalty stage reports a structured infeasibility when its radicand is
negative. :func:`verify_equilibrium` provides an independent numeric check
(finite differences, and golden-section search for each stage optimum) of
every first-order condition. The closed forms are evaluated on numpy arrays
where a call covers many points: the royalty profile and the feasibility
region, the only two functions that import numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "MarketParams",
    "Equilibrium",
    "EquilibriumFlags",
    "VerificationReport",
    "equilibrium_at_royalty",
    "spne",
    "royalty_profit_profile",
    "verify_equilibrium",
    "feasibility_region",
]


_MAX_MARKET = 2.0 ** 500  # the largest a, c and r**2: profits, of order s**2, stay finite


@dataclass(frozen=True)
class MarketParams:
    """Linear market primitives: demand intercept ``a`` and marginal cost ``c``."""

    a: float
    c: float

    def __post_init__(self):
        if not (math.isfinite(self.a) and math.isfinite(self.c)):
            raise ValueError("market parameters must be finite")
        if self.a <= 0 or self.c <= 0:
            raise ValueError("demand intercept and marginal cost must be positive")
        for name, value in (("a", self.a), ("c", self.c)):
            if value > _MAX_MARKET:
                raise ValueError(f"market parameter {name}={value:g} is above 2**500")


@dataclass(frozen=True)
class EquilibriumFlags:
    r_real: bool
    q1_nonneg: bool
    q2_nonneg: bool
    price_nonneg: bool

    def all_ok(self) -> bool:
        return self.r_real and self.q1_nonneg and self.q2_nonneg and self.price_nonneg


@dataclass(frozen=True)
class Equilibrium:
    """Outcome of the two-stage game at a (possibly infeasible) royalty.

    ``r_squared`` is carried separately so that the degenerate royalty stage
    (negative radicand, non-real ``r``) still yields well-defined quantities,
    price, and profits.
    """

    q1: float
    q2: float
    r: float
    r_squared: float
    price: float
    leader_payoff: float
    follower_payoff: float
    flags: EquilibriumFlags


# The closed forms in r**2 space, on scalars or numpy arrays. Taking r**2
# keeps them defined at a negative radicand (non-real royalty), and taking
# a, c rather than MarketParams lets them run over a grid of markets.


def _pi2(rsq, q1, q2, a, c):
    # follower profit (a - q1 - q2) q2 - r^2 q2 - c q2
    return (a - q1 - q2) * q2 - rsq * q2 - c * q2


def _reaction(rsq, q1, a, c):
    # follower best response (a - q1 - r^2 - c) / 2, negative values as they are
    return (a - q1 - rsq - c) / 2.0


def _pi1(rsq, q1, a, c):
    # leader profit p q1 + r^2 q1 - c q1, the follower's reaction substituted
    # in and expanded; with the follower's -r^2 q2 payment the two payoffs
    # account to p Q + r^2 (q1 - q2) - c Q
    return (a * q1 - q1 * q1 - q1 * a / 2.0 + q1 * q1 / 2.0
            + rsq * q1 / 2.0 + c * q1 / 2.0 + rsq * q1 - c * q1)


def _q1_star(rsq, a, c):
    # stage-1 leader quantity (a + 3 r^2 - c) / 2, a global max (curvature -1)
    return (a + 3.0 * rsq - c) / 2.0


def _q2_star(rsq, a, c):
    # follower quantity on the equilibrium path, (a - 5 r^2 - c) / 4
    return (a - 5.0 * rsq - c) / 4.0


def _radicand(a, c):
    return (c - a) / 3.0


def _path(rsq, q1, a, c):
    # (r^2, q1, q2, price) once r^2 and q1 are set; negatives flagged, never clamped
    q2 = _q2_star(rsq, a, c)
    return rsq, q1, q2, a - (q1 + q2)


def _spne_path(a, c):
    # the SPNE: r^2 at the radicand, and q1 exactly 0, since (a + 3 r^2 - c) / 2
    # there leaves a +-1e-16 residue whose sign would decide q1_nonneg
    return _path(_radicand(a, c), 0.0, a, c)


def _flags(rsq, q1, q2, p):
    # r_real, q1_nonneg, q2_nonneg, price_nonneg: r is real iff r^2 >= 0
    return rsq >= 0, q1 >= 0, q2 >= 0, p >= 0


def _assemble(params: MarketParams, r, rsq, q1, q2, p) -> Equilibrium:
    a, c = params.a, params.c
    return Equilibrium(q1=q1, q2=q2, r=r, r_squared=rsq, price=p,
                       leader_payoff=_pi1(rsq, q1, a, c),
                       follower_payoff=_pi2(rsq, q1, q2, a, c),
                       flags=EquilibriumFlags(*_flags(rsq, q1, q2, p)))


def equilibrium_at_royalty(params: MarketParams, r: float) -> Equilibrium:
    """Stage outcome for an exogenously fixed royalty rate, |r| <= 2**250."""
    if not math.isfinite(r):
        raise ValueError("royalty must be finite")
    if r * r > _MAX_MARKET:
        raise ValueError(f"royalty r={r:g} is above 2**250 in magnitude")
    a, c, rsq = params.a, params.c, r * r
    return _assemble(params, r, *_path(rsq, _q1_star(rsq, a, c), a, c))


def spne(params: MarketParams) -> Equilibrium:
    """Backward-induction equilibrium of the full game.

    The royalty stage's 3 r q1 = 0 holds at ``r* = sqrt((c - a) / 3)``, with
    ``q1* = 0`` exactly and ``q2* = 2 (a - c) / 3``. That is the leader's
    profit minimum, 0: the reduced profit ``(3 r^2 + a - c)^2 / 8`` is convex
    in r^2. ``r*`` is real only when ``c >= a``; otherwise ``r`` is NaN and
    the flags say so, the quantities still evaluated at the radicand. Under
    the textbook accounting, where the licensor collects R on each unit the
    licensee sells, ``R* = (a - c) / 2`` and ``q2 = 0``: the licensee is
    foreclosed.
    """
    rsq, q1, q2, p = _spne_path(params.a, params.c)
    return _assemble(params, math.sqrt(rsq) if rsq >= 0 else math.nan, rsq, q1, q2, p)


def royalty_profit_profile(params: MarketParams, r_values) -> list:
    """Reduced leader profit along ``r`` with the quantity stage re-optimized.

    The first royalty that is not finite or is above 2**250 in magnitude
    raises the ValueError of :func:`equilibrium_at_royalty`."""
    import numpy as np
    r = np.asarray(r_values, dtype=float)
    bad = ~(np.abs(r) <= 2.0 ** 250)  # NaN included
    if bad.any():
        equilibrium_at_royalty(params, float(r.flat[np.argmax(bad)]))  # raises for it
    rsq = np.square(r)
    a, c = params.a, params.c
    return _pi1(rsq, _q1_star(rsq, a, c), a, c).tolist()


# ---------------------------------------------------------------------------
# numeric verification


def _central_diff(f, x, h):
    return (f(x + h) - f(x - h)) / (2.0 * h)


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
# verify_equilibrium's settings, each times the market scale
_FD_STEP = 1e-5  # central finite-difference step
_TOL = 1e-6  # largest gap a check passes


def _refine_argmax(f, mid: float, s: float) -> float:
    """Maximizer of ``f`` on [mid - s, mid + s] by golden-section search down
    to 1e-10 * s: it finds the maximum where ``f`` has one there, as a concave
    quadratic has, and an end of the bracket where ``f`` rises towards it."""
    a, b = mid - s, mid + s
    x1, x2 = b - _INVPHI * (b - a), a + _INVPHI * (b - a)
    f1, f2 = f(x1), f(x2)
    while b - a > 1e-10 * s:
        if f1 >= f2:  # the maximizer is in [a, x2]
            b, x2, f2 = x2, x1, f1
            x1 = b - _INVPHI * (b - a)
            f1 = f(x1)
        else:  # in [x1, b]
            a, x1, f1 = x1, x2, f2
            x2 = a + _INVPHI * (b - a)
            f2 = f(x2)
    return (a + b) / 2.0


@dataclass(frozen=True)
class VerificationReport:
    """Numeric cross-check of the closed forms at a candidate point.

    ``gaps`` maps each check to its gap, in this order: ``foc_follower``,
    ``foc_leader`` and ``foc_royalty`` compare central finite differences
    against the stated derivatives; ``argmax_follower`` and ``argmax_leader``
    compare the maximizers of the stage objectives, found by golden-section
    search, against the closed-form quantities;
    ``point_follower`` and ``point_leader`` compare the candidate quantities
    against those optima. ``checks`` maps the same names to a boolean, true
    when the gap is at most ``tolerance``: 1e-6 times the market scale
    ``max(1, |a|, |c|, |q1|, |q2|, r^2)``.
    """

    gaps: dict
    tolerance: float

    @property
    def checks(self) -> dict:
        return {k: gap <= self.tolerance for k, gap in self.gaps.items()}

    def all_ok(self) -> bool:
        return all(self.checks.values())


def verify_equilibrium(params: MarketParams, eq: Equilibrium) -> VerificationReport:
    """Independently verify the first-order conditions behind an Equilibrium.

    ``eq`` is the candidate point, typically from spne() or
    equilibrium_at_royalty(). Every check is scaled to the market: with
    s = max(1, |a|, |c|, |q1|, |q2|, r^2), the finite-difference step is
    1e-5 * s, each stage argmax is found by golden-section search over the
    closed-form optimum +- s down to 1e-10 * s, and each gap (a quantity, or
    a derivative of a profit of order s^2) is compared with the tolerance
    1e-6 * s. The rounding error of a difference quotient, about
    eps |profit| / step, and the flat top of a maximized profit, about
    sqrt(eps) s wide, then stay the same fraction of the tolerance at every
    market size, as does a candidate moved off its optimum by a fixed share
    of s.

    Non-real royalties are handled by verifying in ``r**2`` space, where the
    objective is a polynomial either way: d(pi1)/dr = 3 r q1 is checked as
    d(pi1)/d(r^2) = 3 q1 / 2, a derivative of order s like the others. That
    checks the formula against the leader's profit, not that r is optimal:
    it passes at spne()'s r*, which is the leader's profit minimum.
    """
    for v in (eq.q1, eq.q2, eq.r_squared):
        if not math.isfinite(v):
            raise ValueError("equilibrium carries non-finite values")
    a, c = params.a, params.c
    rsq = eq.r_squared
    scale = max(1.0, abs(a), abs(c), abs(eq.q1), abs(eq.q2), abs(rsq))
    h = _FD_STEP * scale
    gaps = {}

    # follower FOC: d(pi2)/dq2 = a - q1 - 2 q2 - r^2 - c
    closed = a - eq.q1 - 2.0 * eq.q2 - rsq - c
    fd = _central_diff(lambda q2: _pi2(rsq, eq.q1, q2, a, c), eq.q2, h)
    gaps["foc_follower"] = abs(fd - closed)

    # leader FOC: d(pi1)/dq1 = a/2 - q1 + 3 r^2 / 2 - c/2
    closed = a / 2.0 - eq.q1 + 1.5 * rsq - c / 2.0
    fd = _central_diff(lambda q1: _pi1(rsq, q1, a, c), eq.q1, h)
    gaps["foc_leader"] = abs(fd - closed)

    # royalty FOC d(pi1)/dr = 3 r q1, in r^2 space: d(pi1)/d(r^2) = 3 q1 / 2
    fd = _central_diff(lambda x: _pi1(x, eq.q1, a, c), rsq, h)
    gaps["foc_royalty"] = abs(fd - 1.5 * eq.q1)

    # stage argmax agreement; both objectives are concave quadratics
    br = _reaction(rsq, eq.q1, a, c)
    got = _refine_argmax(lambda q2: _pi2(rsq, eq.q1, q2, a, c), br, scale)
    gaps["argmax_follower"] = abs(got - br)

    q1_star = _q1_star(rsq, a, c)
    got = _refine_argmax(lambda q1: _pi1(rsq, q1, a, c), q1_star, scale)
    gaps["argmax_leader"] = abs(got - q1_star)

    # and the candidate itself must sit on the stage optima
    gaps["point_follower"] = abs(eq.q2 - br)
    gaps["point_leader"] = abs(eq.q1 - q1_star)

    return VerificationReport(gaps=gaps, tolerance=_TOL * scale)


def feasibility_region(a_values, c_values) -> list:
    """SPNE feasibility flags over an (a, c) grid.

    Returns a list of dict rows ``{a, c, r_real, q1_nonneg, q2_nonneg,
    p_nonneg}`` with 0/1 flags, ready for CSV emission, ``a`` varying
    slowest. The flags are those of :func:`spne` at each point, computed
    over the whole grid at once; a point that is not a valid market raises
    the ValueError of its MarketParams.
    """
    import numpy as np
    a, c = (m.ravel() for m in np.meshgrid(np.asarray(a_values, dtype=float),
                                           np.asarray(c_values, dtype=float),
                                           indexing="ij"))
    valid = (a > 0) & (a <= _MAX_MARKET) & (c > 0) & (c <= _MAX_MARKET)
    if not valid.all():
        bad = int(np.argmin(valid))
        MarketParams(a=float(a[bad]), c=float(c[bad]))  # raises for this point
    flags = np.stack(np.broadcast_arrays(*_flags(*_spne_path(a, c)))).astype(int)
    return [{"a": ai, "c": ci, "r_real": rr, "q1_nonneg": q1n,
             "q2_nonneg": q2n, "p_nonneg": pn}
            for ai, ci, rr, q1n, q2n, pn in zip(a.tolist(), c.tolist(), *flags.tolist())]
