"""Regional innovation toolkit: panels, diversity indices, pooled OLS,
and a patent-licensing duopoly solver.

The public names below are loaded on first use (PEP 562), so importing the
package, or running a command that needs one module, loads only that
module. numpy is the only numeric dependency.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "game": ("Equilibrium", "EquilibriumFlags", "MarketParams", "VerificationReport",
             "equilibrium_at_royalty", "feasibility_region", "royalty_profit_profile",
             "spne", "verify_equilibrium"),
    "indices": ("HooverResult", "ShareVector", "VarietyResult", "hoover_index",
                "indices_table", "theil_index", "variety_decomposition"),
    "panel": ("DescriptiveStats", "EmploymentTable", "ImputationResult",
              "PanelError", "PanelParseError", "RegionalPanel", "VariableStats",
              "correlation_matrix", "descriptive_stats", "impute_by_apportionment",
              "lag", "load_correlation_csv", "load_employment", "load_panel",
              "load_provenance"),
    "regression": ("CollinearityError", "Interaction", "RegressionResult",
                   "RegressionSpec", "Regressor", "SuiteEntry",
                   "VarianceDecomposition", "elasticity",
                   "format_decomposition_table", "format_suite_grid",
                   "orthogonalize", "pooled_ols", "robust_covariance",
                   "run_model_suite", "significance_stars",
                   "variance_decomposition", "vif"),
    "synth": ("nearest_psd", "synthesize_panel"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
