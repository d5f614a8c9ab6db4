import io

import numpy as np
import pytest

from innoreg.panel import DescriptiveStats, RegionalPanel
from innoreg.synth import synthesize_panel


def exact_corr_design(rng, n, target):
    """Draw an (n, k) matrix whose *sample* correlation equals target exactly.

    Center, whiten by the sample covariance, then recolor.  Columns come out
    with mean 0 and unit sample sd, so corr == cov == target.
    """
    target = np.asarray(target, dtype=float)
    k = target.shape[0]
    g = rng.standard_normal((n, k))
    g -= g.mean(axis=0)
    cov = (g.T @ g) / (n - 1)
    white = g @ np.linalg.inv(np.linalg.cholesky(cov)).T
    return white @ np.linalg.cholesky(target).T


def build_panel(arrays, regions=None, years=None):
    # arrays: name -> (R, T) ndarray
    first = next(iter(arrays.values()))
    r, t = np.asarray(first).shape
    if regions is None:
        regions = tuple(f"R{i:02d}" for i in range(1, r + 1))
    if years is None:
        years = tuple(range(2001, 2001 + t))
    data = {k: np.asarray(v, dtype=float) for k, v in arrays.items()}
    return RegionalPanel(regions=tuple(regions), years=tuple(years), data=data)


def bundled_text(name):
    from importlib.resources import files
    return files("innoreg").joinpath("data", name).read_text(encoding="utf-8")


@pytest.fixture(scope="session")
def bundled_stats():
    return DescriptiveStats.from_csv(io.StringIO(bundled_text("table2_stats.csv")))


@pytest.fixture(scope="session")
def bundled_corr():
    from innoreg.panel import load_correlation_csv
    return load_correlation_csv(io.StringIO(bundled_text("table3_corr.csv")))


@pytest.fixture(scope="session")
def synthetic_panel(bundled_stats, bundled_corr):
    # one shared draw; generation is the slow part of the suite
    names, corr = bundled_corr
    return synthesize_panel(bundled_stats, corr, seed=42, corr_names=names)
