"""Entropy-based diversity and specialization measures for regional employment.

Implements the Theil entropy index over two-digit industry shares, its
decomposition into unrelated variety (between one-digit sectors) and related
variety (within them), and the Hoover specialization index. Natural
logarithms throughout: the decomposition identity ``theil = related +
unrelated`` only holds with a single base.

Zero shares follow the standard entropy continuity convention
``p * log(p) -> 0`` and therefore never change any index value. One array
kernel computes all four measures, for a whole table or one share vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

__all__ = [
    "ShareVector",
    "VarietyResult",
    "HooverResult",
    "theil_index",
    "variety_decomposition",
    "hoover_index",
    "indices_table",
]

_SUM_TOL = 1e-9


@dataclass(frozen=True)
class ShareVector:
    """Industry employment shares of one region-year plus the sector map.

    shares: industry code -> share p_i (non-negative, summing to 1).
    parents: industry code -> one-digit parent sector. Coverage is only
    required for industries with positive share; zero-share strays are inert.
    """

    shares: Mapping[str, float]
    parents: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self):
        if not self.shares:
            raise ValueError("empty share vector")
        for code, p in self.shares.items():
            if not p >= 0:
                raise ValueError(f"negative or NaN share for industry {code!r}")
        total = math.fsum(self.shares.values())
        if abs(total - 1.0) > _SUM_TOL:
            raise ValueError(f"shares sum to {total!r}, expected 1 within {_SUM_TOL}")

    @classmethod
    def from_employment(cls, counts: Mapping[str, float],
                        parents: Mapping[str, str] | None = None) -> "ShareVector":
        """Normalize raw employment counts into shares."""
        total = math.fsum(counts.values())
        if total <= 0:
            raise ValueError("total employment must be strictly positive")
        shares = {code: e / total for code, e in counts.items()}
        return cls(shares=shares, parents=dict(parents or {}))


@dataclass(frozen=True)
class VarietyResult:
    """Entropy decomposition: theil = related + unrelated (within 1e-9)."""

    theil: float
    related: float
    unrelated: float


@dataclass(frozen=True)
class HooverResult:
    """Hoover specialization value in [0, 1] plus its display-scale variant."""

    value: float
    display: float


def _kernel(p, national, sector, n_sectors: int):
    """(theil, related, unrelated, hoover) of each row of the share rows ``p``:
    ``sum_i p_i ln(1 / p_i)``; ``sum_g P_g H_g`` with ``H_g = sum_{i in g}
    (p_i / P_g) ln(P_g / p_i)`` and ``sum_g P_g ln(1 / P_g)``, over the sector
    sums P_g (industry j is in sector ``sector[j]`` < n_sectors); and the raw
    half L1 distance to the ``national`` share rows, in [0, 1]."""
    p_safe = np.where(p > 0, p, 1.0)  # zero shares then add 0 * ln(1) = 0
    theil = np.sum(p * np.log(1.0 / p_safe), axis=1)

    groups = np.zeros((n_sectors, len(p)))
    np.add.at(groups, sector, p.T)
    groups = groups.T  # row x sector share P_g
    g_safe = np.where(groups > 0, groups, 1.0)
    unrelated = np.sum(groups * np.log(1.0 / g_safe), axis=1)
    related = np.sum(p * np.log(g_safe[:, sector] / p_safe), axis=1)

    hoover = 0.5 * np.sum(np.abs(p - national), axis=1)
    return theil, related, unrelated, hoover


def _one_row(shares: ShareVector, by_sector: bool) -> VarietyResult:
    """The kernel on one vector's positive shares, in code order so that no sum
    depends on the key order; all in one sector unless ``by_sector``."""
    items = [(code, p) for code, p in shares.shares.items() if p > 0]
    if not items:
        raise ValueError("share vector has no positive entries")
    missing = [code for code, _ in items if by_sector and code not in shares.parents]
    if missing:
        raise ValueError(f"industry {missing[0]!r} has no parent sector mapping")
    codes, values = zip(*sorted(items))
    sectors, sector = np.unique([shares.parents[c] if by_sector else "" for c in codes],
                                return_inverse=True)
    row = np.array([values])
    *measures, _ = (float(v[0]) for v in _kernel(row, row, sector, len(sectors)))
    return VarietyResult(*measures)  # theil, related, unrelated


def theil_index(shares: ShareVector) -> float:
    """Entropy of the share vector, ``sum_i p_i ln(1 / p_i)``: 0 when a single
    industry holds everything, ln(n) for n uniform shares. Needs no parents."""
    return _one_row(shares, by_sector=False).theil


def variety_decomposition(shares: ShareVector) -> VarietyResult:
    """Theil entropy with its related (within-sector) and unrelated (between)
    parts; every industry with a positive share needs a parent sector."""
    return _one_row(shares, by_sector=True)


def hoover_index(regional: Mapping[str, float],
                 national: Mapping[str, float]) -> HooverResult:
    """Half the L1 distance between regional and national industry shares.

    Codes missing on one side are treated as zero employment there; a
    negative or non-finite count raises ValueError naming its code. The raw
    value lives in [0, 1]; ``display`` is 100 times it, in percentage points.
    """
    for side, counts in (("regional", regional), ("national", national)):
        for code in sorted(counts):
            if not (math.isfinite(counts[code]) and counts[code] >= 0):
                raise ValueError(f"{side} employment {counts[code]!r} for industry "
                                 f"{code!r} is negative or not finite")
    tot_r = math.fsum(regional.values())
    tot_n = math.fsum(national.values())
    if tot_r <= 0 or tot_n <= 0:
        raise ValueError("total employment must be strictly positive on both sides")
    codes = sorted(set(regional) | set(national))
    p = np.array([[regional.get(code, 0.0) for code in codes]]) / tot_r
    nat = np.array([[national.get(code, 0.0) for code in codes]]) / tot_n
    value = float(_kernel(p, nat, np.zeros(len(codes), dtype=int), 1)[3][0])
    return HooverResult(value=value, display=value * 100.0)


def indices_table(employment, industries=None) -> list:
    """All four measures for every region-year of an employment table.

    Parameters
    ----------
    employment : EmploymentTable
        Its region-year x industry ``counts``, ``national_counts`` and
        ``sector_index`` arrays are reduced here all at once; the records are
        not rescanned.
    industries : optional collection restricting the industry codes used (the
        Hoover index in particular is sometimes computed on a subset, e.g.
        manufacturing only); a code absent from the table raises ValueError
        naming it.

    Returns dicts keyed region, year, theil, related, unrelated and hoover
    (in percentage points), sorted by region and then year. Raises ValueError
    naming the first region-year with no employment in the industries used.
    """
    cols = slice(None)
    if industries is not None:
        if unknown := [code for code in industries if code not in employment.industries]:
            raise ValueError(f"unknown industry {unknown[0]!r}")
        keep = set(industries)
        cols = np.array([code in keep for code in employment.industries], dtype=bool)
    counts = employment.counts[:, cols]
    national = employment.national_counts[:, cols]
    sector = employment.sector_index[cols]

    total = counts.sum(axis=1)
    if not np.all(total > 0):
        region, year = employment.keys[int(np.argmin(total > 0))]
        where = "" if industries is None else " in the selected industries"
        raise ValueError(f"region {region!r} year {year} has no employment{where}")
    p = counts / total[:, None]
    theil, related, unrelated, hoover = _kernel(
        p, national / national.sum(axis=1)[:, None], sector, len(employment.sectors))
    return [
        {"region": region, "year": year, "theil": th, "related": rel,
         "unrelated": unr, "hoover": hv}
        for (region, year), th, rel, unr, hv in zip(
            employment.keys, theil.tolist(), related.tolist(),
            unrelated.tolist(), (hoover * 100.0).tolist())
    ]
