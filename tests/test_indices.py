import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from innoreg import indices
from innoreg.indices import (hoover_index, indices_table, theil_index,
                             variety_decomposition)
from innoreg.panel import EmploymentTable, load_employment

LN2 = math.log(2.0)


# ---------------------------------------------------------------------------
# the reference: every index by math.fsum over plain dicts, written
# independently of innoreg, with the same checks and messages


def ref_shares(counts, what="employment"):
    """code -> share of a code -> employment dict."""
    for code, e in sorted(counts.items()):
        if not (math.isfinite(e) and e >= 0):
            raise ValueError(f"{what} {e!r} for industry {code!r} is negative or not finite")
    total = math.fsum(counts.values())
    if total <= 0:
        raise ValueError(f"total {what} must be strictly positive")
    return {code: e / total for code, e in counts.items()}


def ref_variety(counts, parents=None):
    """(theil, related, unrelated) of a code -> employment dict; related and
    unrelated are None without ``parents``."""
    items = [(code, p) for code, p in ref_shares(counts).items() if p > 0]
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
    p = ref_shares(regional, "regional employment")
    nat = ref_shares(national, "national employment")
    return 0.5 * math.fsum(abs(p.get(code, 0.0) - nat.get(code, 0.0))
                           for code in set(p) | set(nat))


def close(got, want):
    return abs(got - want) <= 1e-12 * max(1.0, abs(want))


def test_theil_known_values():
    assert theil_index({"a": 1.0}) == 0.0
    assert theil_index({"a": 2, "b": 1, "c": 1}) == pytest.approx(
        1.5 * LN2, abs=1e-12)  # = 1.0397...
    n = 7
    uniform = {f"i{k}": 3 for k in range(n)}
    assert theil_index(uniform) == pytest.approx(math.log(n), abs=1e-12)


def test_zero_shares_contribute_nothing():
    base = {"a": 0.5, "b": 0.5}
    padded = {"a": 0.5, "b": 0.5, "c": 0.0}
    assert theil_index(padded) == theil_index(base)


def test_count_validation():
    parents = {"a": "m", "b": "m"}
    for fn in (theil_index, lambda counts: variety_decomposition(counts, parents)):
        with pytest.raises(ValueError, match="^total employment must be strictly positive"):
            fn({})
        # a negative count can leave a positive total, and a NaN one a NaN total
        with pytest.raises(ValueError, match="^employment -0.1 for industry 'a' is neg"):
            fn({"a": -0.1, "b": 1.1})
        with pytest.raises(ValueError, match="^employment nan for industry 'a' is neg"):
            fn({"a": math.nan, "b": 1.0})
        with pytest.raises(ValueError, match="^employment inf for industry 'b' is neg"):
            fn({"a": 1.0, "b": math.inf})


def test_counts_are_normalized():
    parents = {"a": "m", "b": "s"}
    res = variety_decomposition({"a": 30, "b": 10}, parents)
    assert res == variety_decomposition({"a": 0.75, "b": 0.25}, parents)
    assert res.theil == pytest.approx(0.75 * math.log(1 / 0.75) + 0.25 * math.log(4))


def test_variety_decomposition_worked_example():
    # two parents: m = {a: .4, b: .1}, s = {c: .3, d: .2}
    v = {"a": 0.4, "b": 0.1, "c": 0.3, "d": 0.2}
    res = variety_decomposition(v, {"a": "m", "b": "m", "c": "s", "d": "s"})
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
        res = variety_decomposition({f"i{k}": float(w[k]) for k in range(int(n))}, parents)
        assert abs(res.theil - (res.related + res.unrelated)) < 1e-9


def test_missing_parent_raises():
    v = {"a": 0.7, "b": 0.3}
    with pytest.raises(ValueError, match="'b'"):
        variety_decomposition(v, {"a": "m"})
    assert theil_index(v) > 0  # the entropy alone needs no parents
    # zero-count industries never need a parent
    assert variety_decomposition({"a": 7, "b": 0}, {"a": "m"}).unrelated == 0.0


def test_single_parent_means_no_unrelated_variety():
    v = {"a": 0.6, "b": 0.4}
    res = variety_decomposition(v, {"a": "m", "b": "m"})
    assert res.unrelated == pytest.approx(0.0, abs=1e-12)
    assert res.related == pytest.approx(theil_index(v), abs=1e-12)


def test_no_positive_share_raises():
    for fn in (theil_index, lambda counts: variety_decomposition(counts, {"a": "m"})):
        with pytest.raises(ValueError, match="^total employment must be strictly positive"):
            fn({"a": 0.0, "b": -0.0})


def test_hoover_known_value():
    value = hoover_index({"a": 70, "b": 30}, {"a": 50, "b": 50})
    assert type(value) is float and value == pytest.approx(0.2, abs=1e-12)
    # indices_table renders the same value in percentage points
    table = EmploymentTable(regions=["r", "r", "s", "s"], years=[2001] * 4,
                            codes=["a", "b", "a", "b"], employed=[70.0, 30.0, 25.0, 75.0],
                            parents={"a": "m", "b": "m"})
    for row in indices_table(table):
        hv = hoover_index(table.employment(row["region"], 2001), table.national(2001))
        assert 100 * hv == pytest.approx(row["hoover"], rel=1e-12)


def test_hoover_bounds_and_extremes():
    rng = np.random.default_rng(5)
    for _ in range(100):
        r = rng.random(6) + 1e-3
        n = rng.random(6) + 1e-3
        value = hoover_index({f"i{k}": r[k] for k in range(6)},
                             {f"i{k}": n[k] for k in range(6)})
        assert 0.0 <= value <= 1.0
    same = hoover_index({"a": 2, "b": 8}, {"a": 20, "b": 80})
    assert same == pytest.approx(0.0, abs=1e-12)
    # disjoint supports -> maximal specialization
    disjoint = hoover_index({"a": 5, "b": 0}, {"a": 0, "b": 5})
    assert disjoint == pytest.approx(1.0, abs=1e-12)


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


def test_counts_beyond_the_float_range_raise_value_error():
    # a total that overflows, and an int count that no float holds
    for fn in (theil_index, lambda counts: variety_decomposition(counts, {"a": "m", "b": "m"})):
        with pytest.raises(ValueError, match="^total employment is beyond the float range$"):
            fn({"a": 1e308, "b": 1e308})
    with pytest.raises(ValueError, match="^total national employment is beyond the float"):
        hoover_index({"a": 1.0}, {"a": 1e308, "b": 1e308})
    with pytest.raises(ValueError,
                       match="^regional employment for industry 'a' is beyond the float range$"):
        hoover_index({"a": 10 ** 400}, {"a": 1})
    with pytest.raises(ValueError, match="^employment for industry 'b' is beyond the float"):
        theil_index({"a": 1, "b": -10 ** 400})
    # an int inside the float range is a count like any other
    assert hoover_index({"a": 10 ** 300, "b": 0}, {"a": 1, "b": 1}) == pytest.approx(0.5)


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
    assert north["hoover"] == pytest.approx(10.0, abs=1e-9)  # in percentage points


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
        theil, related, unrelated = ref_variety(counts, parents)
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
def count_maps(draw):
    """(counts, parents) over 1-12 industries in 1-4 sectors.

    Counts may be zero, and are equal over the positive ones half the time.
    Zero-count industries may lack a parent; now and then one positive-count
    industry does too. One map in ten holds a negative or non-finite count,
    and one in ten holds only zeros.
    """
    n = draw(st.integers(1, 12))
    codes = draw(st.permutations(CODES))[:n]
    w = draw(st.lists(st.just(0.0) | st.floats(1e-3, 1e3), min_size=n, max_size=n))
    if draw(st.booleans()):
        w = [float(x > 0) for x in w]
    fault = draw(st.integers(0, 9))
    if fault == 1:
        w = [0.0] * n
    elif not any(w):
        w[0] = 1.0
    if fault == 0:
        w[draw(st.integers(0, n - 1))] = draw(
            st.floats(-1e3, -1e-300) | st.sampled_from([math.nan, math.inf, -math.inf]))
    counts = dict(zip(codes, w))
    n_sectors = draw(st.integers(1, 4))
    parents = {code: f"S{draw(st.integers(0, n_sectors - 1))}" for code in codes
               if counts[code] > 0 or draw(st.booleans())}
    if fault > 1 and draw(st.integers(0, 9)) == 0:
        del parents[draw(st.sampled_from([c for c in codes if counts[c] > 0]))]
    return counts, parents


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
@given(count_maps(), st.randoms(use_true_random=False))
def test_one_row_indices_match_the_reference(vector, rnd):
    counts, parents = vector
    theil, want = attempt(theil_index, counts), attempt(ref_variety, counts)
    assert attempt(theil_index, shuffled(counts, rnd)) == theil
    assert theil == want if isinstance(want, str) else close(theil, want[0])
    got, want = attempt(variety_decomposition, counts, parents), attempt(ref_variety, counts, parents)
    assert attempt(variety_decomposition, shuffled(counts, rnd), shuffled(parents, rnd)) == got
    if isinstance(want, str):
        assert got == want
    else:
        assert all(close(g, w) for g, w in zip((got.theil, got.related, got.unrelated), want))
    if any(not (math.isfinite(e) and e >= 0) for e in counts.values()) or not any(counts.values()):
        assert isinstance(theil, str) and isinstance(got, str)  # a ValueError


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
        assert type(got) is float and close(got, want)
