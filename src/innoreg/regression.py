"""Pooled-OLS machinery for balanced regional panels.

Covers the full reporting pipeline: least squares via orthogonal
factorization (never an explicit inverse), classical and
heteroskedasticity-robust covariances (HC0-HC3, HC1 default), variance
inflation factors, a two-way ANOVA variance decomposition with F tests,
orthogonalized interaction terms, grand-mean elasticities, and a suite
runner that renders a many-column comparison grid.

Estimation samples come from listwise deletion over every variable a spec
touches (after lagging); the achieved N is always reported, never padded.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import MISSING, dataclass, field, fields

import numpy as np

from .panel import PanelError, RegionalPanel, lag
from .table import markdown_table

__all__ = [
    "CollinearityError",
    "Regressor",
    "Interaction",
    "RegressionSpec",
    "RegressionResult",
    "VarianceDecomposition",
    "SuiteEntry",
    "significance_stars",
    "pooled_ols",
    "robust_covariance",
    "vif",
    "variance_decomposition",
    "orthogonalize",
    "elasticity",
    "run_model_suite",
    "format_suite_grid",
    "format_decomposition_table",
]

# two-sided normal critical values at 10/5/1%
_STAR_CUTS = ((2.5758293035489004, "***"), (1.959963984540054, "**"),
              (1.6448536269514722, "*"))
_JSON_TYPES = {"str": "string", "int": "integer >= 0 and < 2**63", "list": "list"}


class CollinearityError(PanelError):
    """Design matrix is rank deficient; message names a collinear column set."""


def significance_stars(t: float) -> str:
    at = abs(t)
    for cut, stars in _STAR_CUTS:
        if at >= cut:
            return stars
    return ""


@dataclass(frozen=True)
class Regressor:
    """One design column: a panel variable taken at a given lag."""

    name: str
    lag: int = 0

    @property
    def label(self) -> str:
        return self.name if self.lag == 0 else f"{self.name}_L{self.lag}"


@dataclass(frozen=True)
class Interaction:
    """Product term built from an orthogonalized variable pair."""

    x1: str
    x2: str
    lag1: int = 0
    lag2: int = 0
    mode: str = "mutual"  # or residualize-second

    @property
    def label(self) -> str:
        a, b = Regressor(self.x1, self.lag1), Regressor(self.x2, self.lag2)
        return f"{a.label}*{b.label}"


@dataclass
class RegressionSpec:
    """Declarative model: dependent, regressors with lags, interactions. The
    design is the intercept ``const``, then the regressors, then the
    interactions, each column with its own label."""

    dependent: str
    regressors: list = field(default_factory=list)
    interactions: list = field(default_factory=list)
    label: str = ""

    def __post_init__(self):
        for key, kind in (("regressors", Regressor), ("interactions", Interaction)):
            setattr(self, key, [item if isinstance(item, kind) else
                                _from_json(kind, item, key[:-1], self.label)
                                for item in getattr(self, key)])
        labels = ["const", *(term.label for term in (*self.regressors, *self.interactions))]
        for j, name in enumerate(labels):
            if name in labels[:j]:
                raise PanelError(f"spec {self.label!r}: duplicate design column {name!r}")

    @classmethod
    def from_dict(cls, d) -> "RegressionSpec":
        """Spec from its JSON form; a fault raises PanelError naming it."""
        label = d.get("label") if isinstance(d, dict) else None
        return _from_json(cls, d, "spec", label if isinstance(label, str) else "")


def _from_json(kind, d, what: str, label: str):
    """The ``kind`` built from JSON object ``d``, the dataclass fields being the
    schema: a value has the JSON type ``_JSON_TYPES`` gives its field's
    annotation (an int field is a lag). A fault raises PanelError naming the spec."""
    if not isinstance(d, dict):
        raise PanelError(f"spec {label!r}: each {what} must be a JSON object")
    schema = {f.name: f.type for f in fields(kind)}
    for key, value in d.items():
        name = key if kind is RegressionSpec else f"{what} {key}"
        if key not in schema:
            raise PanelError(f"spec {label!r}: unknown {what} key {key!r}")
        if type(value).__name__ != schema[key] or schema[key] == "int" and not 0 <= value < 2**63:
            raise PanelError(f"spec {label!r}: {name} must be a JSON {_JSON_TYPES[schema[key]]}")
        if key == "mode" and value not in ("mutual", "residualize-second"):
            raise PanelError(f"spec {label!r}: {name} must be 'mutual' or 'residualize-second'")
    for f in fields(kind):
        if f.name not in d and f.default is MISSING and f.default_factory is MISSING:
            raise PanelError(f"spec {label!r}: {what} without {f.name!r}")
    return kind(**d)


@dataclass
class RegressionResult:
    label: str
    names: list
    beta: np.ndarray
    se_classical: np.ndarray
    se_robust: np.ndarray
    cov_classical: np.ndarray
    cov_robust: np.ndarray
    r_squared: float
    f_stat: float
    f_pvalue: float
    n: int
    k: int
    vif: dict | None
    avg_vif: float | None
    hc: str = "HC1"

    @property
    def t_robust(self) -> np.ndarray:
        with np.errstate(divide="ignore", invalid="ignore"):
            return self.beta / self.se_robust

    def stars(self) -> list:
        return [significance_stars(t) for t in self.t_robust]

    def coefficient(self, name: str) -> float:
        return self.beta[self.names.index(name)]


# ---------------------------------------------------------------------------
# core fitting


def _qr_svd(a: np.ndarray, k=None):
    """(R, Q'y, U, s, V', rank, collinear set) of X = QR and R = U diag(s) V',
    ``a`` being X, or [X y] with X its first ``k`` columns: R and Q'y are read
    off the R of [X y] without forming Q (Q'y is None for X alone). The rank
    counts s_i > s_0 max(n, k) eps (Golub & Van Loan 5.4). The collinear set is
    the support of the null right singular vectors, each entry times its
    column's norm: a real dependency has O(1) entries, others rounding-level."""
    r = np.linalg.qr(a, mode="r")
    qty, r = (None, r) if k is None else (r[:k, k], r[:k, :k])
    u, s, vt = np.linalg.svd(r)
    rank = int(np.sum(s > s[0] * max(len(a), r.shape[1]) * np.finfo(float).eps))
    norm = np.sqrt(np.sum(r * r, axis=0))
    null = np.abs(vt[rank:]) * np.where(norm > 0, norm, 1.0)
    cut = np.sqrt(np.finfo(float).eps) * null.max(axis=1, keepdims=True, initial=0.0)
    return r, qty, u, s, vt, rank, np.flatnonzero((null > cut).any(axis=0)).tolist()


def _factor(a: np.ndarray, names=None, k=None):
    """(R, Q'y, R^-1, (X'X)^-1) of a full-rank design, ``a`` and ``k`` as in
    :func:`_qr_svd`: one QR and the SVD of its R = U S V' give R^-1 = V S^-1 U'
    and (X'X)^-1 = V S^-2 V'.

    A rank-deficient X raises CollinearityError listing the collinear set by
    ``names``, or by column index when no names are given.
    """
    r, qty, u, s, vt, rank, bad = _qr_svd(a, k)
    if rank < r.shape[1]:
        if names is not None:
            bad = [names[j] for j in bad]
        raise CollinearityError(f"rank-deficient design; collinear columns {bad}")
    w = vt.T / s
    return r, qty, w @ u.T, w @ w.T


def _f_sf(d1, d2, f) -> float:
    """P(F > f) for F(d1, d2), 1 at f <= 0, 0 at f = +inf and NaN at NaN: the
    regularized incomplete beta I_x(d2/2, d1/2) at x = d2/(d2 + d1 f), by Lentz's
    continued fraction where that converges fast, x < (a+1)/(a+b+2), else as
    1 - I_(1-x)(d1/2, d2/2) (Numerical Recipes 6.4)."""
    if not 0 < d1 * f / d2 < math.inf:  # f <= 0, +inf or NaN, or d1 f / d2 out of range
        return math.nan if math.isnan(f) else float(f < 1)
    a, b, x, y = d2 / 2, d1 / 2, d2 / (d2 + d1 * f), d1 * f / (d2 + d1 * f)
    if flip := x >= (a + 1) / (a + b + 2):
        a, b, x, y = b, a, y, x
    tiny = 1e-300  # keeps a partial denominator off zero
    c, d = 1.0, 1.0 / (1.0 - (a + b) * x / (a + 1))
    h = d
    for m in range(1, 100_000):
        for num in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d, c = 1.0 + num * d, 1.0 + num / c
            d, c = 1.0 / (d if abs(d) > tiny else tiny), (c if abs(c) > tiny else tiny)
            h *= d * c
        if abs(d * c - 1.0) < 1e-16:
            break
    # log B(a, b); past 1000, lgamma(hi) - lgamma(lo + hi) is taken from
    # Stirling's series, where lgamma's own rounding would show in it
    lo, hi = min(a, b), max(a, b)
    gap = (math.lgamma(hi) - math.lgamma(lo + hi) if hi < 1000 else
           lo - (hi - 0.5) * math.log1p(lo / hi) - lo * math.log(lo + hi)
           + (1 / hi - 1 / (lo + hi)) / 12)
    p = math.exp(a * math.log(x) + b * math.log(y) - math.lgamma(lo) - gap) * h / a
    return 1.0 - p if flip else p


def _variant(hc: str) -> str:
    """``hc`` in upper case; ValueError unless it is HC0, HC1, HC2 or HC3."""
    hc = hc.upper()
    if hc not in ("HC0", "HC1", "HC2", "HC3"):
        raise ValueError(f"unknown robust variant {hc!r}")
    return hc


def _sandwich(X, e, rinv, xtx_inv, hc: str) -> np.ndarray:
    n, k = X.shape
    sw = np.abs(e)  # the square root of each observation's weight
    if hc in ("HC2", "HC3"):
        xr = X @ rinv  # X R^-1 = Q: the leverages are its squared row norms
        denom = 1.0 - np.einsum("ij,ij->i", xr, xr)
        denom[denom <= 1e-12] = np.inf  # leverage 1: its residual is 0 in exact arithmetic
        sw = sw / np.sqrt(denom) if hc == "HC2" else sw / denom
    # (X'X)^-1 X' diag(w) X (X'X)^-1 as the Gram matrix G G': its diagonal is a
    # sum of squares, so a variance that is 0 in theory cannot round below 0.
    # G is k x n, so scaling its columns runs along rows of length n.
    g = xtx_inv.T @ X.T
    g *= sw
    cov = g @ g.T
    if hc == "HC1":
        cov = cov * (n / (n - k))
    return (cov + cov.T) / 2.0


def robust_covariance(X: np.ndarray, residuals: np.ndarray,
                      hc: str = "HC1") -> np.ndarray:
    """Sandwich covariance of the OLS coefficients for a fitted design.

    HC0 is the plain White estimator; HC1 rescales by N/(N-k); HC2 and HC3
    deflate squared residuals by (1 - h) and (1 - h)^2, and give weight 0 to a
    cell with 1 - h <= 1e-12, whose residual is 0 in exact arithmetic. All
    four come from one factorization of X (MacKinnon & White 1985).
    """
    hc, X = _variant(hc), np.asarray(X, dtype=float)
    *_, rinv, xtx_inv = _factor(X)
    return _sandwich(X, np.asarray(residuals, dtype=float), rinv, xtx_inv, hc)


def vif(X: np.ndarray, names=None):
    """Variance inflation factors for a block of non-intercept regressors.

    Each auxiliary regression includes an intercept; VIF_j = 1/(1 - R_j^2),
    the squared norm of row j of V S^-1 over the kept singular values of R,
    for the centred, unit-norm block Z = Q R = Q U S V'. Columns caught in an
    exactly collinear set come back +inf with a warning. This is the public
    VIF of a slope block and the tests' oracle for :func:`pooled_ols`, which
    never calls it: a fit reads the same values off its own factorization.

    Returns (dict name -> VIF, average).
    """
    X = np.asarray(X, dtype=float)
    n, k = X.shape
    if k < 2:
        raise PanelError("VIF needs at least 2 non-intercept regressors")
    if names is None:
        names = [f"x{j}" for j in range(k)]
    z = X - X.mean(axis=0)
    norm = np.sqrt(np.sum(z * z, axis=0))
    if np.any(norm == 0):
        j = int(np.argmax(norm == 0))
        raise PanelError(f"constant column {names[j]!r} in VIF input")
    *_, s, vt, rank, bad = _qr_svd(z / norm)
    values = np.sum((vt[:rank] / s[:rank, None]) ** 2, axis=0)
    values[bad] = np.inf
    for j in bad:
        warnings.warn(f"perfect collinearity at {names[j]!r}; VIF = inf")
    return {nm: float(v) for nm, v in zip(names, values)}, float(np.mean(values))


# ---------------------------------------------------------------------------
# design assembly


def orthogonalize(x1, x2, mode: str = "mutual"):
    """Residualize a correlated pair to tame interaction collinearity.

    mutual: each series is replaced by its residual from a regression on the
    other (plus intercept). residualize-second: the first series passes
    through untouched, only the second is residualized on the first.

    The residual of y on [1, x] is taken in closed form from the centred
    series, y~ - (x~.y~ / x~.x~) x~; an identical pair comes back exactly 0.
    """
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    if x1.shape != x2.shape or x1.ndim != 1:
        raise PanelError("orthogonalize expects two equal-length series")
    if not (np.isfinite(x1).all() and np.isfinite(x2).all()):
        raise PanelError("orthogonalize inputs must be finite")
    c1, c2 = x1 - x1.mean(), x2 - x2.mean()
    s11, s22, s12 = c1 @ c1, c2 @ c2, c1 @ c2
    for i, ss in enumerate((s11, s22), start=1):
        if ss == 0:
            raise PanelError(f"series {i} is constant; cannot orthogonalize")
    if mode == "mutual":
        return c1 - (s12 / s22) * c2, c2 - (s12 / s11) * c1
    if mode == "residualize-second":
        return x1.copy(), c2 - (s12 / s11) * c1
    raise PanelError(f"unknown orthogonalization mode {mode!r}")


def _build_design(panel: RegionalPanel, spec: RegressionSpec):
    """([X y], names) over the rows complete in every variable the spec
    touches: an n x (k + 1) view whose column 0 is the intercept and whose
    last column is y.

    One (rows x R x T) array holds X' (the intercept row, the regressors, a
    slot per interaction), then y and both inputs of each interaction, lagged
    by ``panel.lag``. One mask of complete rows and one gather give the sample;
    each interaction slot is filled from its gathered inputs.
    """
    m = len(spec.regressors)
    k = 1 + m + len(spec.interactions)
    inputs = [v for i in spec.interactions for v in ((i.x1, i.lag1), (i.x2, i.lag2))]
    terms = [(k, spec.dependent, 0),  # (row, variable, lag), the dependent first
             *((1 + j, r.name, r.lag) for j, r in enumerate(spec.regressors)),
             *((k + 1 + j, nm, lg) for j, (nm, lg) in enumerate(inputs))]
    raw = np.empty((k + 1 + len(inputs), panel.n_regions, panel.n_years))
    raw[0] = 1.0
    raw[1 + m:k] = 0.0
    for row, name, lg in terms:
        raw[row] = panel.matrix(name) if lg == 0 else lag(panel, name, lg)
    raw = raw.reshape(len(raw), -1)
    rows = raw.compress(~np.isnan(raw).any(axis=0), axis=1)
    if rows.shape[1] == 0:
        raise PanelError(f"spec {spec.label!r} has no complete observations")
    for j, i in enumerate(spec.interactions):
        oa, ob = orthogonalize(rows[k + 1 + 2 * j], rows[k + 2 + 2 * j], mode=i.mode)
        np.multiply(oa, ob, out=rows[1 + m + j])
    names = ["const"] + [t.label for t in (*spec.regressors, *spec.interactions)]
    return rows[:k + 1].T, names


def pooled_ols(panel: RegionalPanel, spec: RegressionSpec,
               hc: str = "HC1") -> RegressionResult:
    """Fit one spec by pooled OLS with robust inference: one QR, one SVD of R.

    Column 0 of the design is the intercept ``const``. The reported F
    statistic is a robust Wald test that all slopes vanish; stars on
    coefficients come from robust t statistics against the normal
    approximation (10/5/1%).

    The VIFs come from the same factorization, never from :func:`vif`: by
    Frisch-Waugh-Lovell the slope block of (X'X)^-1 is (Zc'Zc)^-1 for the
    centred slopes Zc, so VIF_j = [(X'X)^-1]_jj * sum_i (z_ij - mean_j)^2,
    the sum read off R. An unknown ``hc`` raises ValueError before the
    design is built.
    """
    hc = _variant(hc)
    xy, names = _build_design(panel, spec)
    X, y = xy[:, :-1], xy[:, -1]
    n, k = X.shape
    if n <= k:
        raise PanelError(f"need N > k; got N={n}, k={k}")
    r, qty, rinv, xtx_inv = _factor(xy, names, k)
    # R^-1 Q'y alone loses digits in small coefficients; one refinement restores them
    beta = rinv @ qty
    beta += rinv @ (qty - r @ beta)
    resid = y - X @ beta

    ssr = float(resid @ resid)
    sigma2 = ssr / (n - k)
    cov_classical = sigma2 * xtx_inv
    cov_robust = _sandwich(X, resid, rinv, xtx_inv, hc)

    yc = y - y.mean()
    sst = float(yc @ yc)
    r2 = 1.0 - ssr / sst if sst > 0 else 1.0

    m = k - 1  # the slopes, every column after the intercept
    f_stat = f_p = math.nan
    if m:
        b = beta[1:]
        try:
            f_stat = float(b @ np.linalg.solve(cov_robust[1:, 1:], b)) / m
            f_p = _f_sf(m, n - k, f_stat)
        except np.linalg.LinAlgError:
            pass

    vif_map, avg = None, None
    if m >= 2:
        # X = Q R with R's first column r_00 e_0, so each slope's centred sum of
        # squares is the squared norm of its R column below row 0: k x k work
        values = np.diag(xtx_inv)[1:] * np.einsum("ij,ij->j", r[1:, 1:], r[1:, 1:])
        vif_map, avg = dict(zip(names[1:], values.tolist())), float(np.mean(values))

    return RegressionResult(
        label=spec.label, names=names, beta=beta,
        se_classical=np.sqrt(np.diag(cov_classical)),
        se_robust=np.sqrt(np.diag(cov_robust)),
        cov_classical=cov_classical, cov_robust=cov_robust,
        r_squared=float(r2), f_stat=f_stat, f_pvalue=f_p,
        n=n, k=k, vif=vif_map, avg_vif=avg, hc=hc)


# ---------------------------------------------------------------------------
# variance decomposition


@dataclass(frozen=True)
class VarianceDecomposition:
    """Two-way (region x time) ANOVA shares and F tests, no interaction."""

    variable: str
    share_region: float
    share_time: float
    share_residual: float
    systematic: float
    f_region: float
    p_region: float
    f_time: float
    p_time: float
    df_region: int
    df_time: int
    df_residual: int


def variance_decomposition(panel: RegionalPanel,
                           variable: str) -> VarianceDecomposition:
    """Split a variable's variance into region, time, and residual shares.

    Requires a fully observed matrix; F_region has (R-1, (R-1)(T-1)) degrees
    of freedom, F_time has (T-1, (R-1)(T-1)).
    """
    m = panel.matrix(variable)
    if np.isnan(m).any():
        raise PanelError(f"variable {variable!r} has missing cells; "
                         "decomposition requires balance")
    r_n, t_n = m.shape
    grand = m.mean()
    ss_total = float(np.sum((m - grand) ** 2))
    ss_region = float(t_n * np.sum((m.mean(axis=1) - grand) ** 2))
    ss_time = float(r_n * np.sum((m.mean(axis=0) - grand) ** 2))
    ss_resid = ss_total - ss_region - ss_time
    if ss_total == 0:
        raise PanelError(f"variable {variable!r} is constant")
    df_r, df_t = r_n - 1, t_n - 1
    df_e = df_r * df_t
    mse = ss_resid / df_e

    def _f(ss_comp, df_comp):
        # zero explained SS is a zero F even when the residual vanishes too
        if ss_comp <= 0:
            return 0.0
        return (ss_comp / df_comp) / mse if mse > 0 else math.inf

    f_region = _f(ss_region, df_r)
    f_time = _f(ss_time, df_t)
    return VarianceDecomposition(
        variable=variable,
        share_region=ss_region / ss_total,
        share_time=ss_time / ss_total,
        share_residual=ss_resid / ss_total,
        systematic=1.0 - ss_resid / ss_total,
        f_region=f_region, p_region=_f_sf(df_r, df_e, f_region),
        f_time=f_time, p_time=_f_sf(df_t, df_e, f_time),
        df_region=df_r, df_time=df_t, df_residual=df_e)


# ---------------------------------------------------------------------------
# elasticities


def elasticity(beta: float, x_mean: float, y_mean: float) -> float:
    """Grand-mean elasticity beta * x_mean / y_mean."""
    if y_mean == 0:
        raise PanelError("elasticity undefined for zero dependent mean")
    return beta * x_mean / y_mean


# ---------------------------------------------------------------------------
# suite runner and rendering


@dataclass
class SuiteEntry:
    label: str
    result: RegressionResult | None = None
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.result is not None


def run_model_suite(panel: RegionalPanel, specs, hc: str = "HC1") -> list:
    """Fit every spec in the given order, isolating per-spec failures.

    A failing spec contributes an entry carrying its error text while the
    rest proceed. An unknown ``hc`` is the caller's fault, not a spec's: it
    raises ValueError before any spec is fitted.
    """
    hc, entries = _variant(hc), []
    for spec in specs:
        try:
            entries.append(SuiteEntry(label=spec.label,
                                      result=pooled_ols(panel, spec, hc=hc)))
        except Exception as exc:  # error isolation is the contract here
            entries.append(SuiteEntry(label=spec.label, error=str(exc)))
    return entries


def format_suite_grid(entries) -> str:
    """Markdown grid in the many-column journal layout.

    One row per design column (first-appearance order), cells holding
    ``coef<stars> (robust se)`` to 4 decimals; summary rows for R2, F, avg
    VIF, and N at the bottom.
    """
    order = list(dict.fromkeys(nm for e in entries if e.ok for nm in e.result.names[1:]))
    if any(e.ok for e in entries):
        order.append("const")

    def cell(e, nm):
        if not e.ok:
            return "failed" if nm == order[0] else "-"
        res = e.result
        if nm not in res.names:
            return "-"
        i = res.names.index(nm)
        return f"{res.beta[i]:.4f}{res.stars()[i]} ({res.se_robust[i]:.4f})"

    body = [[nm] + [cell(e, nm) for e in entries] for nm in order]
    feet = (("R2", "{:.4f}", lambda r: r.r_squared),
            ("F", "{:.2f}", lambda r: r.f_stat),
            ("Avg VIF", "{:.2f}", lambda r: math.nan if r.avg_vif is None else r.avg_vif),
            ("N", "{:d}", lambda r: r.n))
    if entries:
        body += [[title] + [fmt.format(fn(e.result)) if e.ok else "-" for e in entries]
                 for title, fmt, fn in feet]
    return markdown_table(["Variables"] + [e.label or "?" for e in entries], body)


def format_decomposition_table(decomps) -> str:
    """Markdown table mirroring the variance-decomposition layout.

    Columns: shares per source and systematic share to 4 decimals, then F
    statistics with parenthesized p-values.
    """
    header = ["Variable", "BETWEEN-REGIONS/s2", "BETWEEN-TIME/s2",
              "RESIDUAL/s2", "SYSTEMATIC(MODEL)/s2", "F-REGION", "F-TIME"]
    return markdown_table(header, [
        [d.variable,
         *(f"{v:.4f}" for v in (d.share_region, d.share_time, d.share_residual,
                                d.systematic)),
         f"{d.f_region:.2f} ({d.p_region:.2g})",
         f"{d.f_time:.2f} ({d.p_time:.2g})"] for d in decomps])
