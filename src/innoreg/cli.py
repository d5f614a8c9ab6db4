"""Command-line front end for reproducible batch runs.

Commands: ``indices``, ``regress``, ``decompose``, ``elasticities``,
``game {solve,verify,region}``, ``synth``, ``describe``. Shared flags:
``--out`` and, except on ``synth``, ``--format {csv,json,md}``; ``--jobs``
is accepted and ignored. Only ``synth`` takes ``--seed``. A flag value out
of its range is a usage error naming the flag.
``game verify`` has no tuning flags: its step, bracket and tolerance are
fixed in ``game.verify_equilibrium``.
A process builds its parser once: ``main`` parses every call with the
parser it built on its first call, while ``build_parser()`` returns a new
one each time.

Conventions: data goes to standard output or ``--out`` (written atomically);
diagnostics go to standard error; exit code 0 means the primary output was
fully produced. Every table goes through ``table.render_table``: CSV and
JSON carry full-precision values and are value-equivalent, except that JSON
writes NaN and ±inf as ``null`` (CSV: ``nan``, ``inf``) so it stays
standard JSON; the human-readable markdown views, which for ``regress``
and ``decompose`` are the journal-layout grids, write floats to 4 decimals.
Panel CSVs emitted by ``synth`` are always full precision so reruns are
byte-identical. Every input CSV is read by a loader in ``panel``, all on one
reader: blank lines are skipped, and empty input, a header naming a column
twice or a ragged row is an error naming its line.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import math
import os
import sys
import tempfile
from importlib.resources import files as _pkg_files

from .table import render_table

__all__ = ["main", "build_parser"]

_WITHIN_TOL = 0.01  # the largest |elasticity - expected| flagged within_tol
_DEPENDENT = "PATINT"  # patent intensity, whose --stats mean is y_mean


# ---------------------------------------------------------------------------
# shared plumbing


def _bundled(name: str) -> str:
    return _pkg_files("innoreg").joinpath("data", name).read_text(encoding="utf-8")


def _write_files(files: dict) -> None:
    """Write each path's text, newline-terminated: the ``None`` path to
    standard output, every other one through a temp file.

    Every temp file is written before any target is replaced, so a failed
    write replaces nothing. A failure between two replaces still leaves the
    earlier targets new and the later ones old. An OSError with an errno
    names the target path, never its temp file.
    """
    files = {out: text if text.endswith("\n") else text + "\n"
             for out, text in files.items()}
    if None in files:
        sys.stdout.write(files.pop(None))
    mask = os.umask(0)
    os.umask(mask)
    temps = {}
    try:
        for out, text in files.items():
            # a unique sibling temp file, so concurrent writers never share one
            fd, temps[out] = tempfile.mkstemp(dir=os.path.dirname(out) or ".",
                                              prefix=os.path.basename(out) + ".",
                                              suffix=".tmp")
            os.fchmod(fd, 0o666 & ~mask)  # the mode a plain open() would give
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(text)
        for out in files:
            os.replace(temps[out], out)  # atomic per file
            del temps[out]
    except OSError as exc:
        if exc.errno is None:
            raise
        raise OSError(exc.errno, exc.strerror, out) from None
    finally:
        for tmp in temps.values():
            os.unlink(tmp)


def _emit_rows(rows, columns, args, md=None, companion=False) -> None:
    """Write ``rows`` in ``args.format`` to ``args.out``; ``md()``, when given,
    is the md view. With ``companion`` and ``--out``, ``<out>.json`` holds the
    rows as JSON, replaced together with ``<out>``."""
    if args.format == "md" and md is not None:
        files = {args.out: md()}
    else:
        files = {args.out: render_table(rows, columns, args.format)}
    if companion and args.out:
        files[args.out + ".json"] = render_table(rows, columns, "json")
    _write_files(files)


# ---------------------------------------------------------------------------
# commands; each imports the modules it runs, so that a command loads no
# module it does not use: game solve and verify load no numpy


def _cmd_indices(args) -> int:
    from .indices import indices_table
    from .panel import load_employment

    rows = indices_table(load_employment(args.employment), industries=args.industries)
    _emit_rows(rows, ["region", "year", "theil", "related", "unrelated", "hoover"],
               args)
    return 0


def _cmd_describe(args) -> int:
    from .panel import descriptive_stats, load_panel

    stats = descriptive_stats(load_panel(args.panel))
    _emit_rows(stats.rows(), stats.columns, args)
    return 0


def _result_rows(entries):
    rows = []
    for e in entries:
        if not e.ok:
            rows.append({"label": e.label, "error": e.error})
            continue
        r = e.result
        stars = r.stars()
        for i, nm in enumerate(r.names):
            rows.append({
                "label": e.label, "variable": nm,
                "coef": float(r.beta[i]), "se_robust": float(r.se_robust[i]),
                "se_classical": float(r.se_classical[i]), "stars": stars[i],
                "r_squared": r.r_squared, "f_stat": r.f_stat,
                "avg_vif": r.avg_vif if r.avg_vif is not None else math.nan,
                "n": r.n,
            })
    return rows


def _cmd_regress(args) -> int:
    from .panel import load_panel
    from .regression import RegressionSpec, format_suite_grid, run_model_suite

    panel = load_panel(args.panel)
    with open(args.specs, encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, list):
        raise ValueError("specs file must hold a JSON list of specs")
    specs = [RegressionSpec.from_dict(d) for d in raw]
    entries = run_model_suite(panel, specs, hc=f"HC{args.hc}")
    for e in entries:
        if not e.ok:
            print(f"spec {e.label!r} failed: {e.error}", file=sys.stderr)

    rows = _result_rows(entries)
    cols = ["label", "variable", "coef", "se_robust", "se_classical",
            "stars", "r_squared", "f_stat", "avg_vif", "n", "error"]
    _emit_rows(rows, cols, args, companion=True, md=lambda: format_suite_grid(entries))
    if specs and all(not e.ok for e in entries):
        return 3
    return 0


def _cmd_decompose(args) -> int:
    from .panel import load_panel
    from .regression import format_decomposition_table, variance_decomposition

    panel = load_panel(args.panel)
    names = args.variables or panel.variables
    decomps = [variance_decomposition(panel, nm) for nm in names]
    cols = ["variable", "share_region", "share_time", "share_residual",
            "systematic", "f_region", "p_region", "f_time", "p_time"]
    _emit_rows([{c: getattr(d, c) for c in cols} for d in decomps], cols, args,
               md=lambda: format_decomposition_table(decomps))
    return 0


def _cmd_elasticities(args) -> int:
    from .panel import DescriptiveStats, load_provenance
    from .regression import elasticity

    prov = load_provenance(args.provenance)  # its errors come before the stats file's
    stats = DescriptiveStats.from_csv(args.stats) if args.stats else None
    rows = []
    for rec in prov:
        row = {k: rec[k] for k in ("variable", "beta", "source_column", "x_mean", "y_mean")}
        if stats is not None:  # recompute the means from the stats file
            row.update(x_mean=stats.get(rec["variable"]).mean,
                       y_mean=stats.get(_DEPENDENT).mean)
        row["elasticity"] = elasticity(row["beta"], row["x_mean"], row["y_mean"])
        if rec["expected"] is not None:
            delta = row["elasticity"] - rec["expected"]
            row.update(expected=rec["expected"], delta=delta,
                       within_tol=int(abs(delta) <= _WITHIN_TOL))
        rows.append(row)
    cols = ["variable", "beta", "source_column", "x_mean", "y_mean",
            "elasticity", "expected", "delta", "within_tol"]
    _emit_rows(rows, cols, args)
    return 0


def _eq_rows(eq) -> list:
    return [{
        "q1": eq.q1, "q2": eq.q2, "r": eq.r, "r_squared": eq.r_squared,
        "price": eq.price, "leader_profit": eq.leader_payoff,
        "follower_profit": eq.follower_payoff,
        "r_real": int(eq.flags.r_real), "q1_nonneg": int(eq.flags.q1_nonneg),
        "q2_nonneg": int(eq.flags.q2_nonneg),
        "p_nonneg": int(eq.flags.price_nonneg),
    }]


def _cmd_game(args) -> int:
    from . import game as game_mod

    if args.game_cmd == "solve":
        params = game_mod.MarketParams(a=args.a, c=args.c)
        if args.r is not None:
            eq = game_mod.equilibrium_at_royalty(params, args.r)
        else:
            eq = game_mod.spne(params)
        rows = _eq_rows(eq)

        def md():
            lines = [f"a={args.a:g} c={args.c:g}"]
            if not eq.flags.r_real:
                lines.append(f"royalty not real: radicand {eq.r_squared:.4f} < 0")
            for key, val in rows[0].items():
                shown = f"{val:.4f}" if isinstance(val, float) else str(val)
                lines.append(f"{key:<16} {shown}")
            return "\n".join(lines)
        _emit_rows(rows, list(rows[0]), args, md=md)
        return 0
    if args.game_cmd == "verify":
        params = game_mod.MarketParams(a=args.a, c=args.c)
        eq = game_mod.equilibrium_at_royalty(params, args.r)
        rep = game_mod.verify_equilibrium(params, eq)
        checks = rep.checks

        def md():
            lines = [f"verification at a={args.a:g} c={args.c:g} r={args.r:g} "
                     f"(q1={eq.q1:.4f}, q2={eq.q2:.4f})"]
            for k, gap in rep.gaps.items():
                mark = "ok" if checks[k] else "FAIL"
                lines.append(f"  {k:<18} gap {gap:.3e}  [{mark}]")
            lines.append(f"all checks {'passed' if rep.all_ok() else 'FAILED'} "
                         f"at tolerance {rep.tolerance:g}")
            return "\n".join(lines)
        row = {"a": args.a, "c": args.c, "r": args.r, "q1": eq.q1, "q2": eq.q2,
               **{f"{k}_gap": gap for k, gap in rep.gaps.items()},
               "tolerance": rep.tolerance,
               **{f"check_{k}": int(ok) for k, ok in checks.items()},
               "all_ok": int(rep.all_ok())}
        _emit_rows([row], list(row), args, md=md)
        return 0
    import numpy as np  # game region is the one game command that uses it
    a_vals = np.linspace(args.a_min, args.a_max, args.a_steps)
    c_vals = np.linspace(args.c_min, args.c_max, args.c_steps)
    rows = game_mod.feasibility_region(a_vals, c_vals)
    _emit_rows(rows, ["a", "c", "r_real", "q1_nonneg", "q2_nonneg", "p_nonneg"],
               args)
    return 0


def _cmd_synth(args) -> int:
    from .panel import DescriptiveStats, load_correlation_csv
    from .synth import synthesize_panel

    stats_src = args.stats if args.stats else io.StringIO(_bundled("table2_stats.csv"))
    corr_src = args.corr if args.corr else io.StringIO(_bundled("table3_corr.csv"))
    stats = DescriptiveStats.from_csv(stats_src)
    names, corr = load_correlation_csv(corr_src)
    panel = synthesize_panel(stats, corr, seed=args.seed, regions=args.regions,
                             years=args.years, corr_names=names)
    print(json.dumps(panel.meta), file=sys.stderr)  # provenance diagnostics
    _write_files({args.out: panel.to_csv()})
    return 0


# ---------------------------------------------------------------------------
# parser


def _at_least(kind, low=-math.inf, strict=False):
    """An argparse type: ``kind(text)``, rejected unless finite and at least
    ``low`` (above it when ``strict``); with no ``low``, any finite value."""
    bound = f" {'>' if strict else '>='} {low:g}" if low > -math.inf else ""

    def parse(text):
        value = kind(text)
        if not (math.isfinite(value) and (value > low if strict else value >= low)):
            raise argparse.ArgumentTypeError(f"{text!r} is not a finite number{bound}")
        return value
    parse.__name__ = kind.__name__  # argparse names it in "invalid float value"
    return parse


def _path(text):
    """An argparse type for a file path: any path but the empty one."""
    if not text:
        raise argparse.ArgumentTypeError("expected a file path, got ''")
    return text


def _names(text):
    """An argparse type for a comma-separated list: the list of its entries,
    none of them empty or repeated."""
    names = text.split(",")
    if "" in names:
        raise argparse.ArgumentTypeError(f"empty entry in {text!r}")
    if repeated := [nm for nm in names if names.count(nm) > 1]:
        raise argparse.ArgumentTypeError(f"{repeated[0]!r} given twice in {text!r}")
    return names


def build_parser() -> argparse.ArgumentParser:
    """A new parser for the whole command tree."""
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--out", type=_path, default=None, help="output file (default stdout)")
    output.add_argument("--jobs", type=int, default=1,
                        help="accepted for compatibility and ignored")
    shared = argparse.ArgumentParser(add_help=False, parents=[output])
    shared.add_argument("--format", choices=("csv", "json", "md"), default="csv",
                        help="output rendering (default csv)")

    ap = argparse.ArgumentParser(prog="innoreg",
                                 description="regional innovation toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("indices", parents=[shared],
                       help="diversity/specialization indices per region-year")
    p.add_argument("employment", help="employment CSV "
                   "(region,year,industry,parent,employment)")
    p.add_argument("--industries", type=_names, default=None,
                   help="comma-separated industry subset (e.g. manufacturing only)")
    p.set_defaults(fn=_cmd_indices)

    p = sub.add_parser("describe", parents=[shared],
                       help="descriptive statistics of a panel CSV")
    p.add_argument("panel")
    p.set_defaults(fn=_cmd_describe)

    p = sub.add_parser("regress", parents=[shared],
                       help="pooled-OLS model suite from a JSON spec file")
    p.add_argument("panel")
    p.add_argument("--specs", required=True, help="JSON list of model specs")
    p.add_argument("--hc", type=int, choices=(0, 1, 2, 3), default=1,
                   help="robust covariance variant (default 1)")
    p.set_defaults(fn=_cmd_regress)

    p = sub.add_parser("decompose", parents=[shared],
                       help="region/time variance decomposition with F tests")
    p.add_argument("panel")
    p.add_argument("--variables", type=_names, default=None, help="comma-separated subset")
    p.set_defaults(fn=_cmd_decompose)

    p = sub.add_parser("elasticities", parents=[shared],
                       help="grand-mean elasticities from a provenance file")
    p.add_argument("provenance",
                   help="CSV: variable,beta,source_column,x_mean,y_mean[,expected]")
    p.add_argument("--stats", type=_path, default=None,
                   help="stats CSV overriding the provenance means (y_mean: PATINT's)")
    p.set_defaults(fn=_cmd_elasticities)

    p = sub.add_parser("game", help="patent-licensing duopoly solver and oracle")
    gsub = p.add_subparsers(dest="game_cmd", required=True)
    positive, count = _at_least(float, 0, strict=True), _at_least(int, 1)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--a", type=positive, required=True, help="demand intercept")
    common.add_argument("--c", type=positive, required=True, help="marginal cost")
    r_hint = "; write --r=VALUE for a negative value with an exponent, as --r=-1e-3"
    g = gsub.add_parser("solve", parents=[shared, common],
                        help="equilibrium (omit --r for the full game)")
    g.add_argument("--r", type=_at_least(float), default=None,
                   help="evaluate at a fixed royalty instead of solving stage 1" + r_hint)
    g.set_defaults(fn=_cmd_game)
    g = gsub.add_parser("verify", parents=[shared, common],
                        help="finite-difference / golden-section oracle report")
    g.add_argument("--r", type=_at_least(float), required=True, help="royalty" + r_hint)
    g.set_defaults(fn=_cmd_game)
    g = gsub.add_parser("region", parents=[shared],
                        help="feasibility flags over an (a, c) grid")
    g.add_argument("--a-min", type=positive, required=True)
    g.add_argument("--a-max", type=positive, required=True)
    g.add_argument("--a-steps", type=count, default=25)
    g.add_argument("--c-min", type=positive, required=True)
    g.add_argument("--c-max", type=positive, required=True)
    g.add_argument("--c-steps", type=count, default=25)
    g.set_defaults(fn=_cmd_game)

    p = sub.add_parser("synth", parents=[output],
                       help="deterministic synthetic panel from stats + correlations")
    p.add_argument("--stats", type=_path, default=None,
                   help="stats CSV (default: bundled descriptive table)")
    p.add_argument("--corr", type=_path, default=None,
                   help="correlation CSV (default: bundled matrix)")
    p.add_argument("--regions", type=_at_least(int, 2), default=13)
    p.add_argument("--years", type=_at_least(int, 2), default=9)
    p.add_argument("--seed", type=int, default=42, help="random seed (default 42)")
    p.set_defaults(fn=_cmd_synth)

    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses, built on its first call. Parsing leaves it
    unchanged, so one build serves every call in the process."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
