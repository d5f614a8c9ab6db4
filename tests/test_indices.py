import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from innoreg import indices
from innoreg.indices import (ShareVector, hoover_index, indices_table,
                             theil_index, variety_decomposition)
from innoreg.panel import EmploymentTable, load_employment

LN2 = math.log(2.0)


# ---------------------------------------------------------------------------
# the reference: every index by math.fsum over plain dicts, written
# independently of innoreg, with the same checks and messages


def ref_variety(shares, parents=None):
    """(theil, related, unrelated) of a code -> share dict; related and
    unrelated are None without ``parents``."""
    items = [(code, p) for code, p in shares.items() if p > 0]
    if not items:
        raise ValueError("share vector has no positive entries")
    theil = math.fsum(p * math.log(1.0 / p) for _, p in items)
    if parents is None:
        return theil, None, None
    groups = {}  # sector -> positive shares of its industries
    for code, p in items:
        if code not in parents:
            raise ValueError(f"industry {code!r} has no parent sector mapping")
        groups.setdefault(parents[code], []).append(p)
    sums = [(math.fsum(members), members) for members in groups.values()]
    unrelated = math.fsum(pg * math.log(1.0 / pg) for pg, _ in sums)
    related = math.fsum(p * math.log(pg / p) for pg, members in sums for p in members)
    return theil, related, unrelated


def ref_hoover(regional, national):
    """The raw Hoover index of two code -> employment dicts."""
    for side, counts in (("regional", regional), ("national", national)):
        for code, e in sorted(counts.items()):
            if not (math.isfinite(e) and e >= 0):
                raise ValueError(f"{side} employment {e!r} for industry {code!r} "
                                 "is negative or not finite")
    tot_r = math.fsum(regional.values())
    tot_n = math.fsum(national.values())
    if tot_r <= 0 or tot_n <= 0:
        raise ValueError("total employment must be strictly positive on both sides")
    return 0.5 * math.fsum(
        abs(regional.get(code, 0.0) / tot_r - national.get(code, 0.0) / tot_n)
        for code in set(regional) | set(national))


def close(got, want):
    return abs(got - want) <= 1e-12 * max(1.0, abs(want))


def sv(values, parents=None):
    return ShareVector(shares=values, parents=parents or {})


def test_theil_known_values():
    assert theil_index(sv({"a": 1.0})) == 0.0
    assert theil_index(sv({"a": 0.5, "b": 0.25, "c": 0.25})) == pytest.approx(
        1.5 * LN2, abs=1e-12)  # = 1.0397...
    n = 7
    uniform = sv({f"i{k}": 1.0 / n for k in range(n)})
    assert theil_index(uniform) == pytest.approx(math.log(n), abs=1e-12)


def test_zero_shares_contribute_nothing():
    base = sv({"a": 0.5, "b": 0.5})
    padded = sv({"a": 0.5, "b": 0.5, "c": 0.0})
    assert theil_index(padded) == theil_index(base)


def test_share_vector_validation():
    with pytest.raises(ValueError):
        ShareVector(shares={})
    with pytest.raises(ValueError):
        sv({"a": -0.1, "b": 1.1})
    with pytest.raises(ValueError):
        sv({"a": 0.6, "b": 0.6})  # sums to 1.2
    # a NaN share makes the sum NaN, which the tolerance check lets through
    with pytest.raises(ValueError, match="share for industry 'a'"):
        sv({"a": math.nan, "b": 1.0}, parents={"a": "m", "b": "m"})


def test_from_employment_normalizes():
    v = ShareVector.from_employment({"a": 30, "b": 10}, parents={"a": "m", "b": "m"})
    assert v.shares["a"] == pytest.approx(0.75)
    with pytest.raises(ValueError):
        ShareVector.from_employment({"a": 0, "b": 0})


def test_variety_decomposition_worked_example():
    # two parents: m = {a: .4, b: .1}, s = {c: .3, d: .2}
    v = sv({"a": 0.4, "b": 0.1, "c": 0.3, "d": 0.2},
           parents={"a": "m", "b": "m", "c": "s", "d": "s"})
    res = variety_decomposition(v)
    assert res.unrelated == pytest.approx(LN2, abs=1e-12)  # P_m = P_s = 0.5
    # sum_g sum_i p_i ln(P_g / p_i)
    expected_rv = (0.4 * math.log(0.5 / 0.4) + 0.1 * math.log(0.5 / 0.1)
                   + 0.3 * math.log(0.5 / 0.3) + 0.2 * math.log(0.5 / 0.2))
    assert res.related == pytest.approx(expected_rv, abs=1e-12)
    assert res.theil == pytest.approx(res.unrelated + res.related, abs=1e-12)
    assert res.theil == theil_index(v)


def test_decomposition_identity_random():
    rng = np.random.default_rng(20240817)
    parents = {f"i{k}": f"g{k % 5}" for k in range(40)}
    for _ in range(300):
        n = rng.integers(2, 40)
        w = rng.gamma(0.6, size=int(n))
        w /= w.sum()
        v = ShareVector(shares={f"i{k}": float(w[k]) for k in range(int(n))},
                        parents=parents)
        res = variety_decomposition(v)
        assert abs(res.theil - (res.related + res.unrelated)) < 1e-9


def test_missing_parent_raises():
    v = sv({"a": 0.7, "b": 0.3}, parents={"a": "m"})
    with pytest.raises(ValueError, match="'b'"):
        variety_decomposition(v)
    assert theil_index(v) > 0  # the entropy alone needs no parents
    # zero-share industries never need a parent
    v2 = sv({"a": 1.0, "b": 0.0}, parents={"a": "m"})
    assert variety_decomposition(v2).unrelated == 0.0


def test_single_parent_means_no_unrelated_variety():
    v = sv({"a": 0.6, "b": 0.4}, parents={"a": "m", "b": "m"})
    res = variety_decomposition(v)
    assert res.unrelated == pytest.approx(0.0, abs=1e-12)
    assert res.related == pytest.approx(theil_index(v), abs=1e-12)


def test_no_positive_share_raises():
    # ShareVector's own checks forbid this, so build one around them
    v = object.__new__(ShareVector)
    object.__setattr__(v, "shares", {"a": 0.0})
    object.__setattr__(v, "parents", {"a": "m"})
    for fn in (theil_index, variety_decomposition):
        with pytest.raises(ValueError, match="no positive entries"):
            fn(v)


def test_hoover_known_value():
    res = hoover_index({"a": 70, "b": 30}, {"a": 50, "b": 50})
    assert res.value == pytest.approx(0.2, abs=1e-12)
    assert res.display == 100 * res.value


def test_hoover_bounds_and_extremes():
    rng = np.random.default_rng(5)
    for _ in range(100):
        r = rng.random(6) + 1e-3
        n = rng.random(6) + 1e-3
        res = hoover_index({f"i{k}": r[k] for k in range(6)},
                           {f"i{k}": n[k] for k in range(6)})
        assert 0.0 <= res.value <= 1.0 and res.display == 100 * res.value
    same = hoover_index({"a": 2, "b": 8}, {"a": 20, "b": 80})
    assert same.value == pytest.approx(0.0, abs=1e-12)
    # disjoint supports -> maximal specialization
    disjoint = hoover_index({"a": 5, "b": 0}, {"a": 0, "b": 5})
    assert disjoint.value == pytest.approx(1.0, abs=1e-12)


def test_hoover_requires_positive_totals():
    with pytest.raises(ValueError):
        hoover_index({"a": 0}, {"a": 3})
    with pytest.raises(ValueError):
        hoover_index({"a": 3}, {"a": 0})
    # a negative count can leave a positive total, and a NaN one a NaN total
    with pytest.raises(ValueError, match="^regional employment -1.0 for industry 'a' is neg"):
        hoover_index({"a": -1.0, "b": 3.0}, {"a": 1.0})
    with pytest.raises(ValueError, match="^national employment nan for industry 'b' is neg"):
        hoover_index({"a": 1.0}, {"a": 2.0, "b": math.nan})


def test_indices_table_from_employment_csv(tmp_path):
    path = tmp_path / "emp.csv"
    path.write_text(
        "region,year,industry,parent,employment\n"
        "north,2001,food,manuf,40\n"
        "north,2001,textile,manuf,10\n"
        "north,2001,retail,serv,30\n"
        "north,2001,finance,serv,20\n"
        "south,2001,food,manuf,25\n"
        "south,2001,textile,manuf,25\n"
        "south,2001,retail,serv,25\n"
        "south,2001,finance,serv,25\n")
    table = indices_table(load_employment(str(path)))
    assert [(r["region"], r["year"]) for r in table] == [
        ("north", 2001), ("south", 2001)]
    north, south = table
    assert north["theil"] == pytest.approx(1.27986, abs=1e-4)
    assert north["unrelated"] == pytest.approx(LN2, abs=1e-9)
    assert north["theil"] == pytest.approx(north["related"] + north["unrelated"],
                                           abs=1e-9)
    assert south["theil"] == pytest.approx(math.log(4), abs=1e-12)
    # equal 50/50 parent split in both regions and nationally
    assert south["unrelated"] == pytest.approx(LN2, abs=1e-9)
    assert north["hoover"] == pytest.approx(10.0, abs=1e-9)  # display scale x100


def test_indices_table_industry_subset(tmp_path):
    path = tmp_path / "emp.csv"
    path.write_text(
        "region,year,industry,parent,employment\n"
        "north,2001,food,manuf,40\n"
        "north,2001,textile,manuf,10\n"
        "north,2001,retail,serv,50\n"
        "south,2001,food,manuf,25\n"
        "south,2001,textile,manuf,25\n"
        "south,2001,retail,serv,50\n")
    table = indices_table(load_employment(str(path)), industries=["food", "textile"])
    north = table[0]
    # shares renormalized within the subset: (.8, .2)
    assert north["theil"] == pytest.approx(
        0.8 * math.log(1 / 0.8) + 0.2 * math.log(1 / 0.2), abs=1e-12)
    assert north["unrelated"] == 0.0  # single parent remains
    # national subset totals: food 65, textile 35
    assert north["hoover"] == pytest.approx(  # in percentage points
        100 * 0.5 * (abs(0.8 - 0.65) + abs(0.2 - 0.35)), abs=1e-10)


# ---------------------------------------------------------------------------
# the array path against the scalar functions, on random long tables

HEADER = "region,year,industry,parent,employment"


@st.composite
def employment_tables(draw):
    """(csv lines, records, industry subset or None) of a random long table.

    1-6 regions, 1-4 years, 1-12 industries in 1-4 sectors. Each drawn cell
    gives 1-4 records, and cells may repeat, so duplicate records, absent
    cells and zero cells all occur.
    """
    n_reg, n_year = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    n_ind = draw(st.integers(1, 12))
    sector = draw(st.lists(st.integers(0, 3), min_size=n_ind, max_size=n_ind))
    value = st.one_of(st.just(0.0), st.floats(0.1, 1e5),
                      st.integers(1, 10 ** 6).map(lambda k: k / 1000))
    cells = draw(st.lists(
        st.tuples(st.integers(0, n_reg - 1), st.integers(0, n_year - 1),
                  st.integers(0, n_ind - 1), st.lists(value, min_size=1, max_size=4)),
        min_size=1, max_size=30))
    records = [(f"R{r}", 2000 + t, f"I{i:02d}", f"S{sector[i]}", e)
               for r, t, i, values in cells for e in values]
    lines = [f"{r},{y},{ind},{g},{e!r}" for r, y, ind, g, e in records]
    codes = sorted({ind for _, _, ind, _, _ in records})
    subset = draw(st.none() | st.sets(st.sampled_from(codes), min_size=1))
    return lines, records, subset


def scalar_indices(records, industries, scale=100.0):
    """indices_table rebuilt from per-region-year dicts and the reference."""
    keep = None if industries is None else set(industries)
    regional, national, parents = {}, {}, {}
    for region, year, ind, parent, e in records:
        parents[ind] = parent
        regional.setdefault((region, year), {})
        if keep is None or ind in keep:
            counts = regional[region, year]
            counts[ind] = counts.get(ind, 0.0) + e
            nat = national.setdefault(year, {})
            nat[ind] = nat.get(ind, 0.0) + e
    rows = []
    for (region, year), counts in sorted(regional.items()):
        total = math.fsum(counts.values())
        if total <= 0:
            raise ValueError("total employment must be strictly positive")
        theil, related, unrelated = ref_variety(
            {code: e / total for code, e in counts.items()}, parents)
        rows.append({"region": region, "year": year, "theil": theil,
                     "related": related, "unrelated": unrelated,
                     "hoover": ref_hoover(counts, national[year]) * scale})
    return rows


def load_lines(lines):
    return load_employment(io.StringIO("\n".join([HEADER, *lines]) + "\n"))


@settings(max_examples=150, deadline=None)
@given(employment_tables())
def test_indices_table_matches_the_scalar_functions(table):
    lines, records, subset = table
    try:
        want = scalar_indices(records, subset)
    except ValueError:  # a region-year with no employment in the subset
        with pytest.raises(ValueError, match="has no employment"):
            indices_table(load_lines(lines), industries=subset)
        return
    got = indices_table(load_lines(lines), industries=subset)
    assert [(r["region"], r["year"]) for r in got] == \
        [(r["region"], r["year"]) for r in want]
    for g, w in zip(got, want):
        assert list(g) == list(w)
        for k in ("theil", "related", "unrelated", "hoover"):
            assert close(g[k], w[k]), (k, g, w)


@settings(max_examples=100, deadline=None)
@given(employment_tables())
def test_load_employment_matches_a_per_record_oracle(table):
    lines, records, _ = table
    got = load_lines(lines)
    regional, national, parents = {}, {}, {}
    for region, year, ind, parent, e in records:
        parents[ind] = parent
        regional.setdefault((region, year), {}).setdefault(ind, []).append(e)
        national.setdefault(year, {}).setdefault(ind, []).append(e)
    keys, codes = sorted(regional), sorted(parents)
    assert got.keys == tuple(keys) and got.industries == tuple(codes)
    assert got.parents == parents and got.rows == tuple(records)
    assert [got.sectors[s] for s in got.sector_index] == [parents[c] for c in codes]
    assert got.sectors == tuple(sorted(set(parents.values())))
    counts = np.array([[math.fsum(regional[k].get(c, [0.0])) for c in codes] for k in keys])
    totals = np.array([[math.fsum(national[y].get(c, [0.0])) for c in codes] for _, y in keys])
    np.testing.assert_allclose(got.counts, counts, rtol=1e-12, atol=0)
    np.testing.assert_allclose(got.national_counts, totals, rtol=1e-12, atol=0)
    if all(len(v) == 1 for cell in regional.values() for v in cell.values()):
        assert got.counts.tobytes() == counts.tobytes()


def outcome(lines, subset):
    try:
        return indices_table(load_lines(lines), industries=subset)
    except ValueError as exc:
        return str(exc)


@settings(max_examples=100, deadline=None)
@given(employment_tables(), st.randoms(use_true_random=False))
def test_indices_table_ignores_record_order(table, rnd):
    lines, _, subset = table
    shuffled = list(lines)
    rnd.shuffle(shuffled)
    assert outcome(shuffled, subset) == outcome(lines, subset)


def test_indices_table_uses_neither_row_scans_nor_scalar_functions(monkeypatch):
    table = load_lines(["a,2001,x,m,3", "a,2001,y,n,1", "b,2001,x,m,2",
                        "b,2001,y,n,2", "a,2002,x,m,5"])
    want = indices_table(table)

    def forbidden(*args, **kwargs):
        raise AssertionError("the array path must not call this")
    monkeypatch.setattr(EmploymentTable, "employment", forbidden)
    monkeypatch.setattr(EmploymentTable, "national", forbidden)
    monkeypatch.setattr(indices, "variety_decomposition", forbidden)
    monkeypatch.setattr(indices, "hoover_index", forbidden)
    assert indices_table(table) == want
    assert [(r["region"], r["year"]) for r in want] == [
        ("a", 2001), ("a", 2002), ("b", 2001)]


# ---------------------------------------------------------------------------
# the one-row API against the reference

CODES = [f"I{k:02d}" for k in range(12)]


@st.composite
def share_vectors(draw):
    """(shares, parents) over 1-12 industries in 1-4 sectors.

    Shares may be zero, and are uniform over the positive ones half the
    time. Zero-share industries may lack a parent; now and then one
    positive-share industry does too.
    """
    n = draw(st.integers(1, 12))
    codes = draw(st.permutations(CODES))[:n]
    w = draw(st.lists(st.just(0.0) | st.floats(1e-3, 1e3), min_size=n, max_size=n))
    if draw(st.booleans()):
        w = [float(x > 0) for x in w]
    if not any(w):
        w[0] = 1.0
    total = math.fsum(w)
    shares = {code: x / total for code, x in zip(codes, w)}
    n_sectors = draw(st.integers(1, 4))
    parents = {code: f"S{draw(st.integers(0, n_sectors - 1))}" for code in codes
               if shares[code] > 0 or draw(st.booleans())}
    if draw(st.integers(0, 9)) == 0:
        del parents[draw(st.sampled_from([c for c in codes if shares[c] > 0]))]
    return shares, parents


def attempt(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return str(exc)


def shuffled(mapping, rnd):
    keys = list(mapping)
    rnd.shuffle(keys)
    return {k: mapping[k] for k in keys}


@settings(max_examples=300, deadline=None)
@given(share_vectors(), st.randoms(use_true_random=False))
def test_one_row_indices_match_the_reference(vector, rnd):
    shares, parents = vector
    v = ShareVector(shares=shares, parents=parents)
    v_shuffled = ShareVector(shares=shuffled(shares, rnd), parents=shuffled(parents, rnd))
    theil = theil_index(v)
    assert close(theil, ref_variety(shares)[0])
    assert theil_index(v_shuffled) == theil
    got, want = attempt(variety_decomposition, v), attempt(ref_variety, shares, parents)
    assert attempt(variety_decomposition, v_shuffled) == got
    if isinstance(want, str):
        assert got == want
    else:
        assert all(close(g, w) for g, w in zip((got.theil, got.related, got.unrelated), want))


@st.composite
def _employment(draw):
    """code -> count over up to 12 codes; one count in five dicts is bad."""
    counts = draw(st.dictionaries(st.sampled_from(CODES),
                                  st.just(0.0) | st.floats(1e-3, 1e6), max_size=12))
    if counts and draw(st.integers(0, 4)) == 0:
        bad = st.floats(-1e6, -1e-300) | st.sampled_from([math.nan, math.inf, -math.inf])
        counts[draw(st.sampled_from(sorted(counts)))] = draw(bad)
    return counts


@settings(max_examples=300, deadline=None)
@given(_employment(), _employment(), st.randoms(use_true_random=False))
def test_hoover_index_matches_the_reference(regional, national, rnd):
    got = attempt(hoover_index, regional, national)
    assert attempt(hoover_index, shuffled(regional, rnd), shuffled(national, rnd)) == got
    want = attempt(ref_hoover, regional, national)
    if isinstance(want, str):
        assert got == want
    else:
        assert close(got.value, want) and got.display == 100 * got.value
