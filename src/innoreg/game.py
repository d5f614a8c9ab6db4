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
(finite differences and direct scalar optimization) of every first-order
condition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from scipy.optimize import minimize_scalar

__all__ = [
    "MarketParams",
    "RoyaltySolution",
    "Equilibrium",
    "VerificationReport",
    "inverse_demand",
    "follower_profit",
    "follower_best_response",
    "leader_profit",
    "leader_profit_at",
    "leader_optimal_quantity",
    "follower_equilibrium_quantity",
    "royalty_foc",
    "optimal_royalty",
    "equilibrium_at_royalty",
    "spne",
    "royalty_profit_profile",
    "verify_equilibrium",
    "feasibility_region",
]


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


@dataclass(frozen=True)
class RoyaltySolution:
    """Stage-1 royalty solution.

    ``radicand`` is ``(c - a) / 3``; the royalty is real only when it is
    non-negative. For a negative radicand ``value`` is NaN and ``real`` is
    False — callers that need the downstream quantities should work with
    ``radicand`` directly (it equals ``r**2`` wherever that appears).
    """

    value: float
    radicand: float
    real: bool


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


def inverse_demand(q1: float, q2: float, params: MarketParams) -> float:
    """Market price ``a - (q1 + q2)``; may be negative (flagged, never clamped)."""
    return params.a - (q1 + q2)


def follower_profit(r: float, q1: float, q2: float, params: MarketParams) -> float:
    """Follower profit ``(a - q1 - q2) q2 - r^2 q2 - c q2``."""
    return _follower_profit_rsq(r * r, q1, q2, params)


def _follower_profit_rsq(rsq, q1, q2, params):
    return (params.a - q1 - q2) * q2 - rsq * q2 - params.c * q2


def follower_best_response(q1: float, r: float, params: MarketParams) -> float:
    """Follower reaction ``(a - q1 - r^2 - c) / 2``; negative values are returned as-is."""
    return _follower_best_response_rsq(r * r, q1, params)


def _follower_best_response_rsq(rsq, q1, params):
    return (params.a - q1 - rsq - params.c) / 2.0


def leader_profit(r: float, q1: float, params: MarketParams) -> float:
    """Leader profit with the follower's reaction substituted in.

    Expanded polynomial form (the follower stage is already solved):

        a q1 - q1^2 - q1 a/2 + q1^2/2 + r^2 q1/2 + c q1/2 + r^2 q1 - c q1

    Identical to ``leader_profit_at(r, q1, follower_best_response(q1, r))``.
    """
    return _leader_profit_rsq(r * r, q1, params)


def _leader_profit_rsq(rsq, q1, params):
    a, c = params.a, params.c
    return (a * q1 - q1 * q1 - q1 * a / 2.0 + q1 * q1 / 2.0
            + rsq * q1 / 2.0 + c * q1 / 2.0 + rsq * q1 - c * q1)


def leader_profit_at(r: float, q1: float, q2: float, params: MarketParams) -> float:
    """Leader profit at an arbitrary state: ``p q1 + r^2 q1 - c q1``.

    The royalty revenue term scales with the leader's own quantity; together
    with the follower's ``-r^2 q2`` payment the two payoffs account to
    ``p Q + r^2 (q1 - q2) - c Q``.
    """
    p = inverse_demand(q1, q2, params)
    return p * q1 + (r * r) * q1 - params.c * q1


def leader_optimal_quantity(r: float, params: MarketParams) -> float:
    """Stage-1 quantity ``(a + 3 r^2 - c) / 2`` (global max; curvature is -1)."""
    return _leader_optimal_quantity_rsq(r * r, params)


def _leader_optimal_quantity_rsq(rsq, params):
    return (params.a + 3.0 * rsq - params.c) / 2.0


def follower_equilibrium_quantity(r: float, params: MarketParams) -> float:
    """Follower quantity on the equilibrium path: ``(a - 5 r^2 - c) / 4``."""
    return _follower_equilibrium_quantity_rsq(r * r, params)


def _follower_equilibrium_quantity_rsq(rsq, params):
    return (params.a - 5.0 * rsq - params.c) / 4.0


def royalty_foc(r: float, q1: float) -> float:
    """Partial derivative of the reduced leader profit in ``r`` at fixed ``q1``: ``3 r q1``."""
    return 3.0 * r * q1


def optimal_royalty(params: MarketParams) -> RoyaltySolution:
    """Royalty stationary point ``r* = sqrt((c - a) / 3)``.

    Real only when ``c > a``. For ``c <= a`` this returns an infeasible
    solution carrying the negative radicand rather than raising: the standard
    demand regime ``a > c`` always lands there.
    """
    radicand = (params.c - params.a) / 3.0
    if radicand < 0:
        return RoyaltySolution(value=math.nan, radicand=radicand, real=False)
    return RoyaltySolution(value=math.sqrt(radicand), radicand=radicand, real=True)


def _assemble(rsq: float, r: float, r_real: bool, params: MarketParams,
              q1: float | None = None) -> Equilibrium:
    if q1 is None:
        q1 = _leader_optimal_quantity_rsq(rsq, params)
    q2 = _follower_equilibrium_quantity_rsq(rsq, params)
    p = inverse_demand(q1, q2, params)
    pi1 = _leader_profit_rsq(rsq, q1, params)
    pi2 = _follower_profit_rsq(rsq, q1, q2, params)
    flags = EquilibriumFlags(
        r_real=r_real,
        q1_nonneg=q1 >= 0,
        q2_nonneg=q2 >= 0,
        price_nonneg=p >= 0,
    )
    return Equilibrium(q1=q1, q2=q2, r=r, r_squared=rsq, price=p,
                       leader_payoff=pi1, follower_payoff=pi2, flags=flags)


def equilibrium_at_royalty(params: MarketParams, r: float) -> Equilibrium:
    """Stage outcome for an exogenously fixed royalty rate."""
    if not math.isfinite(r):
        raise ValueError("royalty must be finite")
    return _assemble(r * r, r, True, params)


def spne(params: MarketParams) -> Equilibrium:
    """Backward-induction equilibrium of the full game.

    The royalty stage forces ``3 r q1 = 0``; solving it the way the model
    does makes ``q1*`` vanish identically and ``q2* = 2 (a - c) / 3``. Both
    are reported as-is, with flags, even when the royalty is not real — the
    quantities depend on ``r`` only through ``r**2``, which equals the
    radicand in every regime. ``q1*`` is set to exactly 0: evaluating
    ``(a + 3 r^2 - c) / 2`` at the radicand leaves a +-1e-16 residue whose
    sign would decide the ``q1_nonneg`` flag.
    """
    roy = optimal_royalty(params)
    return _assemble(roy.radicand, roy.value, roy.real, params, q1=0.0)


def royalty_profit_profile(params: MarketParams, r_values) -> list:
    """Reduced leader profit along ``r`` with the quantity stage re-optimized."""
    out = []
    for r in r_values:
        q1 = leader_optimal_quantity(r, params)
        out.append(leader_profit(r, q1, params))
    return out


# ---------------------------------------------------------------------------
# numeric verification


def _central_diff(f, x, h):
    return (f(x + h) - f(x - h)) / (2.0 * h)


def _refine_argmax(f, lo, hi, coarse: int, xatol: float) -> float:
    # coarse grid brackets the maximizer, bounded scalar search refines it
    step = (hi - lo) / coarse
    best_x, best_v = lo, f(lo)
    x = lo
    for i in range(1, coarse + 1):
        x = lo + i * step
        v = f(x)
        if v > best_v:
            best_x, best_v = x, v
    a, b = max(lo, best_x - 2 * step), min(hi, best_x + 2 * step)
    res = minimize_scalar(lambda t: -f(t), bounds=(a, b), method="bounded",
                          options={"xatol": xatol})
    return float(res.x)


@dataclass
class VerificationReport:
    """Numeric cross-check of the closed forms at a candidate point.

    FOC gaps compare central finite differences against the stated
    derivatives; argmax gaps compare grid-plus-refinement maximizers of the
    stage objectives against the closed-form quantities; point gaps compare
    the candidate quantities against those optima. ``checks`` holds a boolean
    per item at the caller's tolerance.
    """

    foc_follower_gap: float
    foc_leader_gap: float
    foc_royalty_gap: float
    argmax_follower_gap: float
    argmax_leader_gap: float
    point_follower_gap: float
    point_leader_gap: float
    tolerance: float
    checks: dict = field(default_factory=dict)

    def all_ok(self) -> bool:
        return all(self.checks.values())


def verify_equilibrium(params: MarketParams, eq: Equilibrium,
                       grid: int = 4000, fd_step: float = 1e-5,
                       tol: float = 1e-6) -> VerificationReport:
    """Independently verify the first-order conditions behind an Equilibrium.

    Parameters
    ----------
    params : MarketParams
    eq : Equilibrium
        Candidate point; typically from spne() or equilibrium_at_royalty().
    grid : int
        Coarse grid resolution used to bracket each stage argmax.
    fd_step : float
        Central finite-difference step.
    tol : float
        Tolerance for the boolean checks.

    Non-real royalties are handled by verifying in ``r**2`` space where the
    objective is a polynomial either way.
    """
    for v in (eq.q1, eq.q2, eq.r_squared):
        if not math.isfinite(v):
            raise ValueError("equilibrium carries non-finite values")
    a = params.a
    rsq = eq.r_squared

    # follower FOC: d(pi2)/dq2 = a - q1 - 2 q2 - r^2 - c
    closed = a - eq.q1 - 2.0 * eq.q2 - rsq - params.c
    fd = _central_diff(lambda q2: _follower_profit_rsq(rsq, eq.q1, q2, params),
                       eq.q2, fd_step)
    foc_follower_gap = abs(fd - closed)

    # leader FOC: d(pi1)/dq1 = a/2 - q1 + 3 r^2 / 2 - c/2
    closed = a / 2.0 - eq.q1 + 1.5 * rsq - params.c / 2.0
    fd = _central_diff(lambda q1: _leader_profit_rsq(rsq, q1, params),
                       eq.q1, fd_step)
    foc_leader_gap = abs(fd - closed)

    # royalty FOC vs finite difference in r (real r only; else identically 3*r*q1 at r = sqrt|rsq|)
    r = eq.r if math.isfinite(eq.r) else 0.0
    fd = _central_diff(lambda rr: _leader_profit_rsq(rr * rr, eq.q1, params),
                       r, fd_step)
    foc_royalty_gap = abs(fd - royalty_foc(r, eq.q1))

    # stage argmax agreement; both objectives are concave quadratics
    span = max(1.0, abs(a), abs(eq.q1), abs(eq.q2), abs(rsq))
    br = _follower_best_response_rsq(rsq, eq.q1, params)
    got = _refine_argmax(lambda q2: _follower_profit_rsq(rsq, eq.q1, q2, params),
                         br - span, br + span, grid, 1e-10)
    argmax_follower_gap = abs(got - br)

    q1_star = _leader_optimal_quantity_rsq(rsq, params)
    got = _refine_argmax(lambda q1: _leader_profit_rsq(rsq, q1, params),
                         q1_star - span, q1_star + span, grid, 1e-10)
    argmax_leader_gap = abs(got - q1_star)

    # and the candidate itself must sit on the stage optima
    point_follower_gap = abs(eq.q2 - br)
    point_leader_gap = abs(eq.q1 - q1_star)

    report = VerificationReport(
        foc_follower_gap=foc_follower_gap,
        foc_leader_gap=foc_leader_gap,
        foc_royalty_gap=foc_royalty_gap,
        argmax_follower_gap=argmax_follower_gap,
        argmax_leader_gap=argmax_leader_gap,
        point_follower_gap=point_follower_gap,
        point_leader_gap=point_leader_gap,
        tolerance=tol,
    )
    report.checks = {
        "foc_follower": foc_follower_gap <= tol,
        "foc_leader": foc_leader_gap <= tol,
        "foc_royalty": foc_royalty_gap <= tol,
        "argmax_follower": argmax_follower_gap <= tol,
        "argmax_leader": argmax_leader_gap <= tol,
        "point_follower": point_follower_gap <= tol,
        "point_leader": point_leader_gap <= tol,
    }
    return report


def feasibility_region(a_values, c_values) -> list:
    """SPNE feasibility flags over an (a, c) grid.

    Returns a list of dict rows ``{a, c, r_real, q1_nonneg, q2_nonneg,
    p_nonneg}`` with 0/1 flags, ready for CSV emission.
    """
    rows = []
    for a in a_values:
        for c in c_values:
            eq = spne(MarketParams(a=float(a), c=float(c)))
            rows.append({
                "a": float(a),
                "c": float(c),
                "r_real": int(eq.flags.r_real),
                "q1_nonneg": int(eq.flags.q1_nonneg),
                "q2_nonneg": int(eq.flags.q2_nonneg),
                "p_nonneg": int(eq.flags.price_nonneg),
            })
    return rows
