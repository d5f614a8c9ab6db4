"""Walkthrough: synthetic regional panel, pooled OLS suites, and diagnostics.

Draws a deterministic 13x9 panel matched to the bundled descriptive targets,
then exercises the full modelling chain: descriptive stats, the two bundled
regression suites (levels and orthogonalized interactions), the region/time
variance decomposition, and grand-mean elasticities.
"""

import io
import json
from importlib.resources import files

import numpy as np

from innoreg import (DescriptiveStats, RegressionSpec, correlation_matrix,
                     descriptive_stats, elasticity, format_decomposition_table,
                     format_suite_grid, load_correlation_csv, run_model_suite,
                     synthesize_panel, variance_decomposition)


def bundled(name):
    return files("innoreg").joinpath("data", name).read_text(encoding="utf-8")


def main():
    stats = DescriptiveStats.from_csv(io.StringIO(bundled("table2_stats.csv")))
    names, corr = load_correlation_csv(io.StringIO(bundled("table3_corr.csv")))

    print("== drawing the synthetic panel (seed 42) ==")
    panel = synthesize_panel(stats, corr, seed=42, corr_names=names)
    meta = panel.meta
    print(f"  {panel.n_regions} regions x {panel.n_years} years, "
          f"{len(panel.variables)} variables")
    print(f"  PSD repair {meta['psd_repair_max_abs']:.4f}, correlation "
          f"round-trip max {meta['corr_max_abs_error']:.4f} / "
          f"mean {meta['corr_mean_abs_error']:.4f}")
    print(f"  the marginals alone force a max error of {meta['corr_error_floor']:.4f} "
          f"({meta['corr_infeasible_pairs']} target pairs out of reach)")

    got = descriptive_stats(panel)
    worst = max(abs(got.get(nm).mean - stats.get(nm).mean)
                / max(abs(stats.get(nm).mean), 1e-12)
                for nm in panel.variables)
    print(f"  worst relative mean error {worst:.2%}")
    achieved = correlation_matrix(panel, list(names))
    iu = np.triu_indices(len(names), k=1)
    print(f"  recomputed correlation error max "
          f"{np.abs(achieved - corr)[iu].max():.4f}")

    print("\n== levels suite (11 columns) ==")
    specs = [RegressionSpec.from_dict(d)
             for d in json.loads(bundled("table4_specs.json"))]
    entries = run_model_suite(panel, specs)
    grid = format_suite_grid(entries)
    for line in grid.splitlines()[:6]:
        print("  " + line)
    print(f"  ... ({len(grid.splitlines())} rows total)")

    print("\n== orthogonalized interaction suite ==")
    ispecs = [RegressionSpec.from_dict(d)
              for d in json.loads(bundled("table6_specs.json"))]
    ientries = run_model_suite(panel, ispecs)
    for e in ientries[:3]:
        inter = e.result.names[-1]
        print(f"  col {e.label}: {inter:<22} coef "
              f"{e.result.coefficient(inter):8.4f}  avg VIF {e.result.avg_vif:.2f}")
    print(f"  {sum(e.ok for e in ientries)}/{len(ientries)} columns fit")

    print("\n== variance decomposition (first 5 variables) ==")
    decomps = [variance_decomposition(panel, nm) for nm in panel.variables[:5]]
    for line in format_decomposition_table(decomps).splitlines():
        print("  " + line)

    print("\n== grand-mean elasticities from the published coefficients ==")
    import csv
    for rec in csv.DictReader(io.StringIO(bundled("table5_provenance.csv"))):
        e = elasticity(float(rec["beta"]), float(rec["x_mean"]),
                       float(rec["y_mean"]))
        print(f"  {rec['variable']:<10} beta {float(rec['beta']):7.4f} -> "
              f"elasticity {e:.4f} (published {rec['expected']})")


if __name__ == "__main__":
    main()
