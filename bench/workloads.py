"""The benchmark workloads: their inputs, their CLI steps and their checks.

Each workload is a closed loop: one pass runs its CLI steps back to back,
each starting when the previous one returns. Inputs are made from the
workload seed alone; the program only ever sees the generated files.

There are five single workloads and one, ``workflows``, that chains the
three data workloads into one pass. BENCHMARK.json lists ``workflows`` and
``game_calls``: two workloads leave room for runs long enough to be steady
on a shared host, and a listed workload has to pass every check.
``game_sweep`` is not listed because of its known ``q1_nonneg`` defect,
which fails every pass; it stays runnable and reports that defect.
"""

from __future__ import annotations

import csv
import io
import json
import math
import shutil
import sys
import traceback
from collections import Counter
from pathlib import Path

import numpy as np

from oracles import (entropy_indices, game_flags, ols_design, ols_reference,
                     read_wide_csv, royalty_outcome)

ROOT = Path(__file__).resolve().parent.parent
BUNDLED = ROOT / "src" / "innoreg" / "data"

BETA_RTOL = 1e-8       # beta against lstsq, per coefficient
SE_RTOL = 1e-7         # robust se against the sandwich oracle
IDENTITY_TOL = 1e-9    # theil = related + unrelated; decompose shares sum to 1
MD_SHARE_TOL = 2e-4    # three shares rounded to 4 decimals in markdown
ORACLE_TOL = 1e-9      # indices against the numpy entropy oracle
MOMENT_RTOL = 0.02     # synth sample moments, as documented in synthesize_panel


class Tally:
    """Attempted and failed operations of one pass, with failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = Counter()

    def check(self, ok, reason):
        self.record(1, 0 if ok else 1, reason)

    def record(self, attempted, failed, reason):
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.reasons[reason] += failed


def run_check(part, results, tally):
    """part.check, where a check that cannot read the outputs is one failure.

    Returns the check's information metrics, or none when it raised.
    """
    try:
        return part.check(results, tally)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        tally.check(False, f"{part.name}: check could not read the outputs")
        return {}


def _close(got, want, rtol):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return bool(np.all(np.abs(got - want) <= rtol * np.abs(want)))


def _read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _suite_entries(json_path):
    """label -> {variable: (coef, se_robust)}, or label -> error text."""
    with open(json_path, encoding="utf-8") as fh:
        rows = json.load(fh)
    out = {}
    for row in rows:
        if "error" in row:
            out[row["label"]] = row["error"]
        else:
            out.setdefault(row["label"], {})[row["variable"]] = (
                row["coef"], row["se_robust"])
    return out


def check_suite(tally, json_path, specs, data, hc):
    """Every spec must fit; specs without interactions must match the oracle."""
    entries = _suite_entries(json_path)
    for spec in specs:
        got = entries.get(spec["label"])
        tally.check(isinstance(got, dict), "regress: suite entry failed")
        if not isinstance(got, dict) or spec.get("interactions"):
            continue
        y, X = ols_design(data, spec)
        beta, se = ols_reference(y, X, hc)
        names = (["const"] if spec.get("intercept", True) else []) + [
            r["name"] if r.get("lag", 0) == 0 else f"{r['name']}_L{r['lag']}"
            for r in spec["regressors"]]
        coef = [got.get(nm, (math.nan, math.nan)) for nm in names]
        tally.check(_close([b for b, _ in coef], beta, BETA_RTOL),
                    "regress: beta differs from lstsq")
        tally.check(_close([s for _, s in coef], se, SE_RTOL),
                    f"regress: se differs from the HC{hc} sandwich")


def check_decompose(tally, path):
    """Region, time and residual shares sum to 1 (to rounding in markdown)."""
    if path.suffix == ".md":
        rows = [line.strip("|").split("|")
                for line in path.read_text(encoding="utf-8").splitlines()[2:]]
        sums, tol = [sum(float(c) for c in r[1:4]) for r in rows], MD_SHARE_TOL
    else:
        sums, tol = [float(r["share_region"]) + float(r["share_time"])
                     + float(r["share_residual"]) for r in _read_rows(path)], IDENTITY_TOL
    for total in sums:
        tally.check(abs(total - 1.0) <= tol, "decompose: shares do not sum to 1")


def _bundled_specs(name):
    return json.loads((BUNDLED / name).read_text(encoding="utf-8"))


def _bundled_stats():
    with open(BUNDLED / "table2_stats.csv", newline="", encoding="utf-8") as fh:
        return {r["name"]: {k: float(v) for k, v in r.items() if k != "name"}
                for r in csv.DictReader(fh)}


# ---------------------------------------------------------------------------


class PipelineBundled:
    """The README workflow on the bundled tables.

    The inputs are the bundled data files, so the workload seed changes
    nothing here; the synth seed stays at the CLI default (42) because
    synth cost depends strongly on it.
    """

    name = "pipeline_bundled"
    FILES = ("table2_stats.csv", "table4_specs.json", "table6_specs.json",
             "table5_provenance.csv")

    def __init__(self, work, seed, synth_seed):
        self.work = Path(work)
        self.synth_seed = synth_seed

    def prepare(self):
        for name in self.FILES:
            shutil.copyfile(BUNDLED / name, self.work / name)
        return [self.work / name for name in self.FILES]

    def steps(self):
        w = lambda name: str(self.work / name)
        return [
            ["synth", "--regions", "13", "--years", "9",
             "--seed", str(self.synth_seed), "--out", w("panel.csv")],
            ["describe", w("panel.csv"), "--out", w("stats.csv")],
            ["regress", w("panel.csv"), "--specs", w("table4_specs.json"),
             "--format", "md", "--out", w("t4.md")],
            ["regress", w("panel.csv"), "--specs", w("table6_specs.json"),
             "--format", "md", "--out", w("t6.md")],
            ["decompose", w("panel.csv"), "--format", "md", "--out", w("decompose.md")],
            ["elasticities", w("table5_provenance.csv"),
             "--stats", w("stats.csv"), "--out", w("elasticities.csv")],
        ]

    def check(self, results, tally):
        _, _, data = read_wide_csv(self.work / "panel.csv")
        worst = 0.0
        for name, st in _bundled_stats().items():
            col = data[name].ravel()
            tally.check(bool(np.all((col >= st["min"]) & (col <= st["max"]))),
                        "synth: value outside [min, max]")
            err = max(abs(col.mean() - st["mean"]) / abs(st["mean"]),
                      abs(col.std(ddof=1) - st["sd"]) / st["sd"])
            tally.check(err <= MOMENT_RTOL, "synth: moment off by more than 2%")
            worst = max(worst, err)
        meta = json.loads(results[0].err.strip().splitlines()[-1])
        for path, specs, hc in (("t4.md.json", "table4_specs.json", 1),
                                ("t6.md.json", "table6_specs.json", 1)):
            check_suite(tally, self.work / path, _bundled_specs(specs), data, hc)
        check_decompose(tally, self.work / "decompose.md")
        return {"synth.corr_max_abs_err": meta["corr_max_abs_error"],
                "synth.moment_max_rel_err": worst,
                "synth.best_iteration": meta["best_iteration"]}


class PanelLarge:
    """A generated 300 x 30 panel over the 20 bundled variables, no synth.

    Values are a correlated normal with the bundled means, sds and (PSD
    repaired) correlations; a few percent of RDEXP and UNEMP4 cells are
    empty, so listwise deletion drops rows in every spec.
    """

    name = "panel_large"
    REGIONS, YEARS = 300, 30
    SPARSE = ("RDEXP", "UNEMP4")
    MISSING_SHARE = 0.03

    def __init__(self, work, seed, synth_seed):
        self.work = Path(work)
        self.seed = seed

    def _specs132(self):
        out = []
        for table in ("table4_specs.json", "table6_specs.json"):
            for spec in _bundled_specs(table):
                for lag in (0, 1, 2):
                    for mode in ("mutual", "residualize-second"):
                        s = json.loads(json.dumps(spec))
                        s["label"] = f"{table[:6]}-{spec['label']}-L{lag}-{mode}"
                        for reg in s["regressors"]:
                            reg["lag"] = lag
                        for inter in s.get("interactions", []):
                            inter.update(lag1=lag, lag2=lag, mode=mode)
                        out.append(s)
        return out

    def prepare(self):
        stats = _bundled_stats()
        with open(BUNDLED / "table3_corr.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        names = rows[0][1:]
        corr = np.array([[float(v) for v in r[1:]] for r in rows[1:]])
        w, v = np.linalg.eigh((corr + corr.T) / 2.0)
        corr = (v * np.clip(w, 1e-3, None)) @ v.T
        d = np.sqrt(np.diag(corr))
        corr = corr / np.outer(d, d)

        rng = np.random.default_rng(self.seed)
        n = self.REGIONS * self.YEARS
        z = rng.standard_normal((n, len(names))) @ np.linalg.cholesky(corr).T
        values = np.array([stats[nm]["mean"] for nm in names]) + \
            z * np.array([stats[nm]["sd"] for nm in names])
        for nm in self.SPARSE:
            j = names.index(nm)
            values[rng.random(n) < self.MISSING_SHARE, j] = np.nan
        self.observed = [nm for nm in names if nm not in self.SPARSE]

        lines = [",".join(["region", "year", *names])]
        for idx, row in enumerate(values):
            region, year = divmod(idx, self.YEARS)
            cells = ["" if math.isnan(x) else repr(float(x)) for x in row]
            lines.append(",".join([f"R{region + 1:03d}", str(1991 + year), *cells]))
        (self.work / "panel.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        self.specs = self._specs132()
        (self.work / "suite132.json").write_text(json.dumps(self.specs, indent=1),
                                                 encoding="utf-8")
        shutil.copyfile(BUNDLED / "table4_specs.json", self.work / "table4_specs.json")
        return [self.work / f for f in ("panel.csv", "suite132.json",
                                        "table4_specs.json")]

    def steps(self):
        w = lambda name: str(self.work / name)
        return [
            ["describe", w("panel.csv"), "--out", w("describe.csv")],
            ["decompose", w("panel.csv"), "--variables", ",".join(self.observed),
             "--out", w("decompose.csv")],
            ["regress", w("panel.csv"), "--specs", w("table4_specs.json"),
             "--hc", "1", "--format", "md", "--out", w("t4.md")],
            ["regress", w("panel.csv"), "--specs", w("suite132.json"),
             "--hc", "3", "--out", w("suite132.csv")],
        ]

    def check(self, results, tally):
        _, _, data = read_wide_csv(self.work / "panel.csv")
        check_decompose(tally, self.work / "decompose.csv")
        check_suite(tally, self.work / "t4.md.json",
                    _bundled_specs("table4_specs.json"), data, 1)
        check_suite(tally, self.work / "suite132.csv.json", self.specs, data, 3)
        return {}


class IndicesScale:
    """A generated long employment table: 50 regions x 10 years x 60 industries.

    The 60 industries fall in 9 parent sectors; about 10% of cells are zero,
    but every region-year keeps a positive cell in every sector, so the
    one-sector subset pass is defined everywhere.
    """

    name = "indices_scale"
    REGIONS, YEARS, INDUSTRIES, SECTORS = 50, 10, 60, 9
    ZERO_SHARE = 0.10
    ORACLE_SAMPLE = 25
    SCALE = 100.0

    def __init__(self, work, seed, synth_seed):
        self.work = Path(work)
        self.seed = seed

    def prepare(self):
        rng = np.random.default_rng(self.seed)
        shape = (self.REGIONS, self.YEARS, self.INDUSTRIES)
        emp = np.round(rng.lognormal(4.0, 1.5, shape), 1) + 0.1
        emp[rng.random(shape) < self.ZERO_SHARE] = 0.0
        self.parent_of = np.arange(self.INDUSTRIES) * self.SECTORS // self.INDUSTRIES
        for g in range(self.SECTORS):
            cols = np.flatnonzero(self.parent_of == g)
            dead = emp[:, :, cols].sum(axis=2) == 0
            emp[:, :, cols[0]][dead] = 1.0
        self.emp = emp
        self.codes = [f"C{i + 1:02d}" for i in range(self.INDUSTRIES)]
        self.regions = [f"R{r + 1:02d}" for r in range(self.REGIONS)]
        self.years = [2001 + t for t in range(self.YEARS)]
        self.subset = np.flatnonzero(self.parent_of == rng.integers(self.SECTORS))
        self.sample = rng.choice(self.REGIONS * self.YEARS, self.ORACLE_SAMPLE,
                                 replace=False)

        lines = ["region,year,industry,parent,employment"]
        for r, region in enumerate(self.regions):
            for t, year in enumerate(self.years):
                for i, code in enumerate(self.codes):
                    lines.append(f"{region},{year},{code},S{self.parent_of[i] + 1},"
                                 f"{float(emp[r, t, i])!r}")
        (self.work / "employment.csv").write_text("\n".join(lines) + "\n",
                                                  encoding="utf-8")
        return [self.work / "employment.csv"]

    def steps(self):
        w = lambda name: str(self.work / name)
        subset = ",".join(self.codes[i] for i in self.subset)
        return [
            ["indices", w("employment.csv"), "--out", w("full.csv")],
            ["indices", w("employment.csv"), "--industries", subset,
             "--out", w("subset.csv")],
        ]

    def check(self, results, tally):
        full = np.arange(self.INDUSTRIES)
        for path, cols in (("full.csv", full), ("subset.csv", self.subset)):
            rows = _read_rows(self.work / path)
            tally.check(len(rows) == self.REGIONS * self.YEARS,
                        "indices: wrong number of region-years")
            ln_n = math.log(len(cols))
            for row in rows:
                th, rel, unr, hv = (float(row[k]) for k in
                                    ("theil", "related", "unrelated", "hoover"))
                tally.check(abs(th - rel - unr) <= IDENTITY_TOL,
                            "indices: theil != related + unrelated")
                tally.check(0.0 <= th <= ln_n + 1e-12, "indices: theil out of bounds")
                tally.check(0.0 <= hv <= self.SCALE, "indices: hoover out of bounds")
            by_key = {(r["region"], int(r["year"])): r for r in rows}
            for flat in self.sample:
                ri, ti = divmod(int(flat), self.YEARS)
                national = self.emp[:, ti, :][:, cols].sum(axis=0)
                want = entropy_indices(self.emp[ri, ti, cols], self.parent_of[cols],
                                       national, self.SCALE)
                row = by_key.get((self.regions[ri], self.years[ti]))
                got = [math.nan] * 4 if row is None else [
                    float(row[k]) for k in ("theil", "related", "unrelated", "hoover")]
                tally.check(bool(np.all(np.abs(np.subtract(got, want))
                                        <= ORACLE_TOL * np.maximum(1.0, np.abs(want)))),
                            "indices: differs from the numpy entropy oracle")
        return {}


class GameCalls:
    """game verify at 100 seeded (a, c, r) points and one game solve at a
    seeded royalty: the game module's per-call work and CLI overhead.

    It runs no ``spne``, so the known ``q1_nonneg`` defect of the full game
    (see GameSweep) cannot occur here; game_sweep runs that path.
    """

    name = "game_calls"
    VERIFY_POINTS = 100

    def __init__(self, work, seed, synth_seed):
        self.work = Path(work)
        self.seed = seed

    def prepare(self):
        rng = np.random.default_rng(self.seed)
        pts = rng.uniform([1.0, 1.0, 0.0], [10.0, 10.0, 2.0],
                          (self.VERIFY_POINTS + 1, 3))
        pts = [[float(x) for x in p] for p in pts]
        self.verify, self.solve = pts[:-1], pts[-1]
        path = self.work / "points.json"
        path.write_text(json.dumps({"verify": self.verify, "solve": self.solve}),
                        encoding="utf-8")
        return [path]

    def solve_argv(self):
        a, c, r = self.solve
        return ["game", "solve", "--a", repr(a), "--c", repr(c), "--r", repr(r)]

    def solve_ok(self, row):
        a, c, r = self.solve
        q1, q2, price = royalty_outcome(a, c, r)
        flags = {"r_real": 1, "q1_nonneg": int(q1 >= 0), "q2_nonneg": int(q2 >= 0),
                 "p_nonneg": int(price >= 0)}
        return all(int(row[k]) == v for k, v in flags.items()) and all(
            abs(float(row[k]) - want) <= 1e-12 * max(1.0, abs(want))
            for k, want in (("q1", q1), ("q2", q2), ("price", price)))

    def steps(self):
        steps = [["game", "verify", "--a", repr(a), "--c", repr(c), "--r", repr(r)]
                 for a, c, r in self.verify]
        return steps + [self.solve_argv()]

    def check(self, results, tally):
        for res in results[:-1]:
            row = next(csv.DictReader(io.StringIO(res.out)), {})
            tally.check(row.get("all_ok") == "1", "game verify: report not all_ok")
        row = next(csv.DictReader(io.StringIO(results[-1].out)), {})
        tally.check(bool(row) and self.solve_ok(row),
                    "game solve: differs from closed form")
        return {}


class GameSweep(GameCalls):
    """game region on a fixed 300 x 300 (a, c) grid over [1, 10]^2, then
    game_calls with the full game (``spne``) as its solve.

    Known defect: ``spne`` leaves a +-8.9e-16 residue in q1 (0 in exact
    arithmetic) at 10,155 grid points, 5,006 of them negative, so every pass
    has 5,006 failed ``q1_nonneg`` checks. It is reported, not hidden.
    """

    name = "game_sweep"
    GRID = ("1", "10", "300")

    def solve_argv(self):
        return super().solve_argv()[:-2]

    def solve_ok(self, row):
        a, c, _ = self.solve
        flags = game_flags(a, c)
        return all(int(row[k]) == int(flags[k]) for k in flags) and \
            _close(float(row["q2"]), 2.0 * (a - c) / 3.0, 1e-12)

    def steps(self):
        lo, hi, n = self.GRID
        return [["game", "region", "--a-min", lo, "--a-max", hi, "--a-steps", n,
                 "--c-min", lo, "--c-max", hi, "--c-steps", n,
                 "--out", str(self.work / "region.csv")]] + super().steps()

    def check(self, results, tally):
        # Every grid point is one operation, whether or not region wrote it:
        # a missing or short grid counts its absent points as failed, so a
        # crash cannot shrink the denominator and raise ok_frac.
        points = int(self.GRID[2]) ** 2
        try:
            grid = np.loadtxt(self.work / "region.csv", delimiter=",", skiprows=1,
                              ndmin=2)
        except (OSError, ValueError):
            grid = np.empty((0, 6))
        want = game_flags(grid[:, 0], grid[:, 1])
        miss = {key: grid[:, col].astype(int) != want[key] for col, key in
                enumerate(("r_real", "q1_nonneg", "q2_nonneg", "p_nonneg"), 2)}
        bad = np.logical_or.reduce(list(miss.values()))
        wrong = ", ".join(k for k, m in miss.items() if m.any())
        tally.record(bad.size, int(bad.sum()),
                     f"game region: flags differ from the closed forms in {wrong}")
        absent = max(0, points - bad.size)
        tally.record(absent, absent, "game region: grid point missing from the output")
        tally.check(bad.size == points, "game region: wrong grid size")
        return super().check(results[1:], tally)


def chained(name, *parts):
    """A workload whose pass runs each part's pass in turn, each part in its
    own subdirectory of the work directory and checked by its own check.

    Chain only parts without a known defect: a part that fails every pass
    makes ``correct`` false already, and then a failure of the others
    changes nothing but a small share of ``ok_frac``.
    """

    class Chained:
        def __init__(self, work, seed, synth_seed):
            self.parts = [p(Path(work) / p.name, seed, synth_seed) for p in parts]

        def prepare(self):
            inputs = []
            for part in self.parts:
                part.work.mkdir(parents=True, exist_ok=True)
                inputs += part.prepare()
            return inputs

        def steps(self):
            self.cuts = []
            out = []
            for part in self.parts:
                start = len(out)
                out += part.steps()
                self.cuts.append((start, len(out)))
            return out

        def check(self, results, tally):
            info = {}
            for part, (a, b) in zip(self.parts, self.cuts):
                info.update(run_check(part, results[a:b], tally))
            return info

    Chained.name = name
    return Chained


SINGLE = (PipelineBundled, PanelLarge, IndicesScale, GameCalls, GameSweep)
WORKLOADS = {w.name: w for w in (
    *SINGLE,
    chained("workflows", PipelineBundled, PanelLarge, IndicesScale),
)}
