"""Entropy-based diversity and specialization measures for regional employment.

Implements the Theil entropy index over two-digit industry shares, its
decomposition into unrelated variety (between one-digit sectors) and related
variety (within them), and the Hoover specialization index. Natural
logarithms throughout: the decomposition identity ``theil = related +
unrelated`` only holds with a single base.

Zero shares follow the standard entropy continuity convention
``p * log(p) -> 0`` and therefore never change any index value. One array
kernel computes all four measures, for a whole table or one region-year's
industry -> employment mapping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

__all__ = [
    "VarietyResult",
    "theil_index",
    "variety_decomposition",
    "hoover_index",
    "indices_table",
]


@dataclass(frozen=True)
class VarietyResult:
    """Entropy decomposition: theil = related + unrelated (within 1e-9)."""

    theil: float
    related: float
    unrelated: float


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


def _shares(counts: Mapping[str, float], what: str = "employment") -> dict:
    """code -> ``count / total`` of an industry -> employment mapping, in code
    order, over the ``math.fsum`` total. A negative or non-finite count raises
    ValueError naming its code, and so does an int count beyond the float
    range; a total that overflows or is not positive raises ValueError too.
    ``what`` names the counts in the message."""
    codes = sorted(counts)
    for code in codes:
        try:
            ok = math.isfinite(counts[code]) and counts[code] >= 0
        except OverflowError:
            raise ValueError(f"{what} for industry {code!r} is beyond the float range") from None
        if not ok:
            raise ValueError(f"{what} {counts[code]!r} for industry {code!r} "
                             "is negative or not finite")
    try:
        total = math.fsum(counts.values())
    except OverflowError:
        raise ValueError(f"total {what} is beyond the float range") from None
    if total <= 0:
        raise ValueError(f"total {what} must be strictly positive")
    return {code: counts[code] / total for code in codes}


def theil_index(counts: Mapping[str, float]) -> float:
    """Entropy of the employment shares, ``sum_i p_i ln(1 / p_i)``: 0 when a
    single industry holds everything, ln(n) for n equal counts."""
    return variety_decomposition(counts, dict.fromkeys(counts, "")).theil


def variety_decomposition(counts: Mapping[str, float],
                          parents: Mapping[str, str]) -> VarietyResult:
    """Theil entropy of the employment shares with its related (within-sector)
    and unrelated (between) parts; ``parents`` maps each industry with a
    positive share to its one-digit sector, and zero-count codes need none.
    The kernel sums in code order, so no value depends on the key order."""
    codes, values = zip(*[(code, p) for code, p in _shares(counts).items() if p > 0])
    if missing := [code for code in codes if code not in parents]:
        raise ValueError(f"industry {missing[0]!r} has no parent sector mapping")
    sectors, sector = np.unique([parents[c] for c in codes], return_inverse=True)
    row = np.array([values])
    *measures, _ = (float(v[0]) for v in _kernel(row, row, sector, len(sectors)))
    return VarietyResult(*measures)  # theil, related, unrelated


def hoover_index(regional: Mapping[str, float],
                 national: Mapping[str, float]) -> float:
    """Half the L1 distance between regional and national industry shares,
    in [0, 1] (``indices_table`` renders 100 times it, in percentage points).

    Codes missing on one side are treated as zero employment there; a
    negative or non-finite count raises ValueError naming its code, and so
    does a side whose total is not positive or beyond the float range.
    """
    p = _shares(regional, "regional employment")
    nat = _shares(national, "national employment")
    codes = sorted(set(p) | set(nat))
    rows = np.array([[shares.get(code, 0.0) for code in codes] for shares in (p, nat)])
    return float(_kernel(rows[:1], rows[1:], np.zeros(len(codes), dtype=int), 1)[3][0])


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
