import contextlib
import csv
import io
import math
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from innoreg import panel as panel_mod
from innoreg.panel import (DescriptiveStats, EmploymentTable, PanelError,
                           PanelParseError, RegionalPanel, VariableStats,
                           correlation_matrix, descriptive_stats,
                           impute_by_apportionment, lag, load_correlation_csv,
                           load_employment, load_panel, load_provenance,
                           render_table)

from conftest import build_panel

BASIC = (
    "region,year,GDP,POP\n"
    "att,2001,5,1\n"
    "att,2002,6,1.1\n"
    "cre,2001,2,0.5\n"
    "cre,2002,2.5,\n"
)


def test_load_panel_basic():
    p = load_panel(io.StringIO(BASIC))
    assert p.regions == ("att", "cre")
    assert p.years == (2001, 2002)
    assert p.variables == ("GDP", "POP")
    assert p.matrix("GDP")[1, 1] == 2.5
    assert math.isnan(p.matrix("POP")[1, 1])  # empty cell -> missing
    assert p.n_obs == 4


def test_load_panel_region_order_and_year_sort():
    text = ("region,year,X\n"
            "b,2002,1\nb,2001,2\na,2001,3\na,2002,4\n")
    p = load_panel(io.StringIO(text))
    assert p.regions == ("b", "a")  # first-appearance order
    assert p.years == (2001, 2002)  # sorted
    assert p.matrix("X")[0, 0] == 2.0


def test_load_panel_rejects_bad_header():
    with pytest.raises(PanelParseError):
        load_panel(io.StringIO("year,region,X\na,2001,1\n"))


def test_load_panel_reports_line_numbers():
    text = "region,year,X\natt,2001,1\natt,20x2,2\n"
    with pytest.raises(PanelParseError) as err:
        load_panel(io.StringIO(text))
    assert err.value.line == 3


def test_load_panel_unbalanced():
    text = "region,year,X\na,2001,1\na,2002,2\nb,2001,3\n"
    with pytest.raises(PanelError, match="2002"):
        load_panel(io.StringIO(text))


def test_load_panel_without_data_rows_is_too_small():
    with pytest.raises(PanelError, match="at least 2 regions and 2 years"):
        load_panel(io.StringIO("region,year,X\n"))


def test_load_panel_duplicate_rows():
    agree = "region,year,X\na,2001,1\na,2001,1\na,2002,2\nb,2001,3\nb,2002,4\n"
    clash = agree.replace("a,2001,1\na,2001,1", "a,2001,1\na,2001,9")
    for text in (agree, clash):  # a repeat is an error whether its values agree or not
        with pytest.raises(PanelParseError) as exc:
            load_panel(io.StringIO(text))
        assert str(exc.value) == "line 3: duplicate row ('a', 2001)"


_EMP_HEADER = "region,year,industry,parent,employment\n"
_STATS_HEADER = "name,count,mean,sd,min,max\n"


@pytest.mark.parametrize("load, text, message", [
    (load_panel, "foo,bar\n1\n", "line 1: header must start with 'region,year'"),
    (load_panel, "region,year,A,A\nr,2001\n", "line 1: duplicate column 'A'"),
    (load_panel, "region,year,A\nr,2001,x\nr,2002\n", "line 2: 'A' cell 'x' is not numeric"),
    (load_panel, "region,year,A\nr,2001,1\nr,2001,2\nr\n",
     "line 3: duplicate row ('r', 2001)"),
    (load_panel, "region,year,A\nr,2001,1\nr,2002\n", "line 3: expected 3 cells, got 2"),
    (load_panel, 'region,year,A\n"r\n1",2001,1\nr1,2002\n', "line 4: expected 3 cells, got 2"),
    (load_panel, 'region,year,A\n"r\n1",2001,1\nr1,2002,x\n',
     "line 4: 'A' cell 'x' is not numeric"),
    (load_employment, "region,year\n1\n",
     "line 1: header must be region,year,industry,parent,employment"),
    (load_employment, _EMP_HEADER + "r,2001,f,m,-1\nr\n", "line 2: negative employment -1.0"),
    (load_employment, _EMP_HEADER + "r,2001,f,m,1\nr\n", "line 3: expected 5 cells, got 1"),
    (DescriptiveStats.from_csv, "name\nA,1\n",
     "line 1: stats header must be name,count,mean,sd,min,max"),
    (DescriptiveStats.from_csv, _STATS_HEADER + "A,x,1,1,1,1\nB\n",
     "line 2: 'A' count 'x' is not an integer"),
    (DescriptiveStats.from_csv, _STATS_HEADER + "A,9,1,0.5,0,3\nX,4,0,1,2,9\nB\n",
     "line 3: inconsistent stats for 'X'"),
    (DescriptiveStats.from_csv, _STATS_HEADER + "X,117,5,1,5,5\nB\n",
     "line 2: inconsistent stats for 'X'"),
    (load_provenance, "variable,beta,x_mean,y_mean\nB\n",
     "line 1: provenance header lacks column 'source_column'"),
    (load_provenance, "variable,beta,source_column,x_mean,y_mean\nB,x,1,10,4\nC\n",
     "line 2: 'B' beta 'x' is not numeric"),
    (load_panel, "foo,foo\n1\n", "line 1: duplicate column 'foo'"),
    (load_correlation_csv, "name,A,A\nA,1,0\nA,0,1\n", "line 1: duplicate column 'A'"),
    (load_provenance, "variable,beta,beta,source_column,x_mean,y_mean\nB,1,2,1,10,4\n",
     "line 1: duplicate column 'beta'"),
], ids=["panel-header", "panel-column", "panel-cell", "panel-duplicate", "panel-ragged",
        "panel-ragged-after-a-two-line-cell", "panel-cell-after-a-two-line-cell",
        "employment-header", "employment-cell", "employment-ragged", "stats-header",
        "stats-cell", "stats-mean-below-min", "stats-sd-with-min-equal-max",
        "provenance-header", "provenance-cell", "column-before-header-names",
        "correlation-column", "provenance-column"])
def test_a_ragged_row_is_reported_after_the_header_and_earlier_lines(load, text, message):
    with pytest.raises(PanelParseError) as exc:
        load(io.StringIO(text))
    assert str(exc.value) == message


def test_load_panel_rejects_a_repeated_column():
    text = "region,year,A,A\na,2001,1,5\na,2002,2,6\nb,2001,3,7\nb,2002,4,8\n"
    with pytest.raises(PanelParseError, match="line 1: duplicate column 'A'"):
        load_panel(io.StringIO(text))


def test_load_panel_keeps_a_year_beyond_int64_exact():
    big = 2 ** 70
    text = f"region,year,X\na,2001,1\na,{big},2\nb,2001,3\nb,{big},4\n"
    p = load_panel(io.StringIO(text))
    assert p.years == (2001, big)
    np.testing.assert_array_equal(p.matrix("X"), [[1.0, 2.0], [3.0, 4.0]])


def test_clean_inputs_never_reach_the_per_cell_parse(monkeypatch):
    rng = np.random.default_rng(3)
    x = rng.normal(size=(6, 5))
    x[2, 3] = np.nan
    text = build_panel({"A": x, "B": rng.normal(size=(6, 5))}).to_csv()
    emp = EMP + "n,2002,food,m,5\nn,2001,food,m,2.5\n"
    want_panel, want_emp = load_panel(io.StringIO(text)), load_employment(io.StringIO(emp))

    def per_cell(*args):
        raise AssertionError("a clean file takes the columnar path")
    monkeypatch.setattr(panel_mod, "_parse_float", per_cell)
    monkeypatch.setattr(panel_mod, "_float_fault", per_cell)
    got = load_panel(io.StringIO(text))
    assert got.regions == want_panel.regions and got.years == want_panel.years
    for name in ("A", "B"):
        np.testing.assert_array_equal(got.matrix(name), want_panel.matrix(name))
    got = load_employment(io.StringIO(emp))
    assert got.rows == want_emp.rows and got.parents == want_emp.parents
    assert got.counts.tobytes() == want_emp.counts.tobytes()


def _padded(text):
    """The CSV text with every cell padded by whitespace, quoted where it holds a
    comma, a quote or a line end (csv.writer leaves a lone carriage return bare)."""
    def cell(text):
        text = f" {text}\t"
        return '"' + text.replace('"', '""') + '"' if any(c in text for c in ',"\n\r') else text
    rows = csv.reader(io.StringIO(text, newline=""))
    return "".join(",".join(map(cell, row)) + "\n" for row in rows)


# names with commas, quotes and line ends, and names that a CSV cell does not
# carry unchanged: empty, padded with whitespace, or not a str
SPACED = st.text(alphabet='ab1,"\n\r\t \x1c\x85', min_size=1, max_size=4)
NAMES = SPACED | st.just("") | st.integers(0, 3)


@st.composite
def panels(draw):
    """The regions, years and data of a random panel: names with commas and
    quotes, with whitespace, or drawn from NAMES; missing cells, and years
    beyond int64."""
    names = draw(st.sampled_from([st.text(alphabet='ab1,"', min_size=1, max_size=4),
                                  SPACED, NAMES]))
    regions = tuple(draw(st.lists(names, min_size=2, max_size=5, unique=True)))
    year = st.integers(1900, 2100) | st.integers(-2 ** 70, 2 ** 70)
    years = tuple(sorted(draw(st.lists(year, min_size=2, max_size=4, unique=True))))
    cell = st.floats(allow_nan=False, allow_infinity=False) | st.just(math.nan)
    shape = (len(regions), len(years))
    data = {name: np.array(draw(st.lists(cell, min_size=shape[0] * shape[1],
                                         max_size=shape[0] * shape[1]))).reshape(shape)
            for name in draw(st.lists(names, min_size=1, max_size=3, unique=True))}
    return regions, years, data


def _forged(table, **fields):
    """``table`` with ``fields`` set past the checks its constructor makes."""
    for name, value in fields.items():
        object.__setattr__(table, name, value)
    return table


@settings(max_examples=300, deadline=None)
@given(panels(), st.booleans())
@example((("1\r1", "b"), (2001, 2002), {"A": np.zeros((2, 2))}), False)
@example((("1\r1", "b"), (2001, 2002), {"A": np.zeros((2, 2))}), True)
def test_to_csv_load_panel_round_trip(parts, pad):
    """A panel refuses exactly the region and variable names its CSV would
    not read back unchanged; the CSV of every other panel reads back equal."""
    regions, years, data = parts
    try:
        p = RegionalPanel(regions=regions, years=years, data=data)
    except PanelError as exc:
        assert "is not a non-empty str without surrounding whitespace" in str(exc)
        # the same panel built under other names, then given the refused ones
        p = RegionalPanel(regions=tuple(f"r{k}" for k in range(len(regions))), years=years,
                          data={f"v{k}": m for k, m in enumerate(data.values())})
        text = _forged(p, regions=regions, data=dict(zip(data, p.data.values()))).to_csv()
        with contextlib.suppress(PanelError):
            again = load_panel(io.StringIO(text))
            assert (again.regions, again.variables) != (regions, tuple(data))
        return
    text = _padded(p.to_csv()) if pad else p.to_csv()
    again = load_panel(io.StringIO(text))
    assert again.regions == p.regions and again.years == p.years
    assert again.variables == p.variables
    for name in p.variables:
        assert again.matrix(name).tobytes() == p.matrix(name).tobytes()


@settings(max_examples=150, deadline=None)
@given(st.lists(NAMES, min_size=1, max_size=3, unique=True))
@example(["1\r1"])
def test_stats_refuse_exactly_the_names_their_csv_would_not_carry(names):
    rec = VariableStats(117, 5.0, 1.0, 0.0, 10.0)
    try:
        stats = DescriptiveStats({name: rec for name in names})
    except PanelError as exc:
        assert "is not a non-empty str without surrounding whitespace" in str(exc)
        stats = _forged(DescriptiveStats({}), variables={name: rec for name in names})
        with contextlib.suppress(PanelError):
            assert DescriptiveStats.from_csv(io.StringIO(stats.to_csv())).names() != tuple(names)
        return
    assert DescriptiveStats.from_csv(io.StringIO(stats.to_csv())) == stats


@pytest.mark.parametrize("regions, data, message", [
    (("a", "b"), {"": np.ones((2, 2))}, "variable ''"),
    (("a", "b"), {" A": np.ones((2, 2))}, "variable ' A'"),
    (("a", "b"), {"A\n": np.ones((2, 2))}, "variable 'A\\n'"),
    ((" a", "b"), {"A": np.ones((2, 2))}, "region identifier ' a'"),
    ((1, 2), {"A": np.ones((2, 2))}, "region identifier 1"),
], ids=["variable-empty", "variable-padded", "variable-newline", "region-padded",
        "region-int"])
def test_a_panel_refuses_a_name_its_csv_would_change(regions, data, message):
    with pytest.raises(PanelError) as exc:
        RegionalPanel(regions=regions, years=(2001, 2002), data=data)
    assert str(exc.value) == message + " is not a non-empty str without surrounding whitespace"


def _csv_module_table(text):
    """What ``_read_csv`` should read, row by row with csv.reader: the header,
    the ``(line, cells)`` of each non-blank row, and the ragged-row message."""
    records = enumerate(csv.reader(io.StringIO(text, newline="")), start=1)
    header = [c.strip() for c in next(records)[1]]
    rows = []
    for line, row in records:
        cells = tuple(c.strip() for c in row)
        if not any(cells):
            continue
        if len(cells) != len(header):
            return header, rows, f"line {line}: expected {len(header)} cells, got {len(cells)}"
        rows.append((line, cells))
    return header, rows, None


# padding (ASCII and not), blank lines, line ends, ragged rows, and with
# one quoted cell or without
_cells = st.text(alphabet="a1. \t\x0b\x0c\x1c\xa0\u2003", max_size=3)
_rows = st.lists(st.lists(_cells, min_size=1, max_size=4), min_size=1, max_size=8)


@settings(max_examples=300, deadline=None)
@given(_rows, st.sampled_from(["\n", "\r\n", "\r"]), st.booleans(), st.booleans(),
       st.sampled_from([1, 2, 3, 1024]))
def test_read_csv_reads_what_csv_reader_reads(rows, newline, final_newline, quoted, block):
    if quoted:
        rows[-1][0] = f'"{rows[-1][0]}"'
    text = newline.join(",".join(row) for row in rows) + (newline if final_newline else "")
    assume(text)  # empty input is an error of its own
    want = _csv_module_table(text)
    if "" in want[0]:
        want = (None, [], "line 1: empty column name")
    elif repeated := [c for c in want[0] if want[0].count(c) > 1]:
        want = (None, [], f"line 1: duplicate column {repeated[0]!r}")
    # the header comes first, then blocks of rows; a ragged row raises once
    # the rows above it have come out
    header, records, error = None, [], None
    with mock.patch.object(panel_mod, "_BLOCK_ROWS", block):
        try:
            with contextlib.closing(panel_mod._read_csv(io.StringIO(text))) as blocks:
                header = next(blocks)
                for table in blocks:
                    assert len(table.lines) <= block
                    records += zip(table.lines, zip(*table.columns))
        except PanelParseError as exc:
            error = str(exc)
    assert (header, records, error) == want


def test_a_lone_cr_panel_bypasses_csv_reader_past_its_header(monkeypatch):
    rng = np.random.default_rng(5)
    lf = build_panel({"A": rng.normal(size=(40, 30)), "B": rng.normal(size=(40, 30))}).to_csv()
    want, real, read = load_panel(io.StringIO(lf)), csv.reader, []
    # csv.reader sees only the lines it is handed: the header's and no other
    monkeypatch.setattr(csv, "reader", lambda lines: real(read.append(s) or s for s in lines))
    got = load_panel(io.StringIO(lf.replace("\n", "\r")))
    assert read == ["region,year,A,B\r"]
    assert got.to_csv() == want.to_csv()


def _panel_rows_oracle(text):
    """The error ``load_panel`` gives on ``text``, or None, by a per-row loop
    over csv.reader rows: the first bad line, then a ragged row, then the
    missing cells."""
    header, rows, ragged = _csv_module_table(text)
    seen = {}  # (region, year) in file order, as the missing cells list them
    for line, (region, year, *cells) in rows:
        if not region:
            return f"line {line}: empty region identifier"
        try:
            year = int(year)
        except ValueError:
            return f"line {line}: year {year!r} is not an integer"
        for name, cell in zip(header[2:], cells):
            try:
                value = float(cell or 0)  # an empty cell is a missing value
            except ValueError:
                return f"line {line}: {name!r} cell {cell!r} is not numeric"
            if not math.isfinite(value):
                return f"line {line}: {name!r} cell {cell!r} is not finite"
        if (region, year) in seen:
            return f"line {line}: duplicate row {(region, year)}"
        seen[region, year] = line
    if ragged:
        return ragged
    years = sorted({y for _, y in seen})
    missing = [(r, y) for r in dict.fromkeys(r for r, _ in seen) for y in years
               if (r, y) not in seen]
    return f"unbalanced panel; missing cells: {missing}" if missing else None


def _employment_rows_oracle(text):
    """The error ``load_employment`` gives on ``text``, or None, by a per-row
    loop over csv.reader rows."""
    _, rows, ragged = _csv_module_table(text)
    first_parent = {}
    for line, (region, year, industry, parent, cell) in rows:
        if not region:
            return f"line {line}: empty region identifier"
        try:
            int(year)
        except ValueError:
            return f"line {line}: year {year!r} is not an integer"
        if not industry:
            return f"line {line}: empty industry code"
        if not parent:
            return f"line {line}: empty parent sector"
        try:
            value = float(cell)
        except ValueError:
            return f"line {line}: employment {cell!r} is not numeric"
        if not math.isfinite(value):
            return f"line {line}: employment {cell!r} is not finite"
        if value < 0:
            return f"line {line}: negative employment {value}"
        if first_parent.setdefault(industry, parent) != parent:
            return (f"line {line}: industry {industry!r} mapped to both "
                    f"{first_parent[industry]!r} and {parent!r}")
    return ragged


_BAD_CELLS = {"region": [""], "industry": [""], "parent": [""],
              "year": ["20x1", "1.5", "", "two"],
              "cell": ["x", "nan", "inf", "-inf", "1e999", "--1"],
              "employment": ["x", "nan", "inf", "-inf", "", "-1", "-0.5"]}


@st.composite
def corrupted_csvs(draw):
    """(text, loader, oracle) of a valid panel or employment CSV with one or
    two corruptions: a bad cell at a random row and column, a repeated row
    (its values changed or not), a second parent for an industry, or a ragged
    row."""
    employment = draw(st.booleans())
    regions = [f"r{i}" for i in range(draw(st.integers(2, 4)))]
    years = [str(2001 + t) for t in range(draw(st.integers(2, 4)))]
    if employment:
        header = ["region", "year", "industry", "parent", "employment"]
        inds = draw(st.lists(st.sampled_from(["f", "g", "h"]), min_size=1, max_size=3,
                             unique=True))
        value = st.sampled_from(["0", "1", "2.5", "30"])
        rows = [[r, y, i, i.upper(), draw(value)] for r in regions for y in years for i in inds]
        kinds = ["region", "year", "industry", "parent", "employment"]
    else:
        header = ["region", "year"] + [f"V{k}" for k in range(draw(st.integers(1, 3)))]
        value = st.sampled_from(["1", "-2.5", "", "0", "3e2"])
        rows = [[r, y] + [draw(value) for _ in header[2:]] for r in regions for y in years]
        kinds = ["region", "year", "cell"]
    rows = draw(st.permutations(rows))
    for _ in range(draw(st.integers(1, 2))):
        i = draw(st.sampled_from([k for k, row in enumerate(rows) if len(row) == len(header)]))
        row = list(rows[i])
        how = draw(st.sampled_from(["bad cell", "ragged"]
                                   + (["second parent"] if employment else ["duplicate"])))
        if how == "bad cell":
            kind = draw(st.sampled_from(kinds))
            j = {"region": 0, "year": 1, "industry": 2, "parent": 3, "employment": 4}.get(kind)
            if j is None:
                j = draw(st.integers(2, len(row) - 1))
            row[j] = draw(st.sampled_from(_BAD_CELLS[kind]))
        elif how == "ragged":
            row = row[:-1] if draw(st.booleans()) else row + ["1"]
        elif how == "second parent":
            row[3] = "Z"
        else:  # a repeat of row i, one value changed or none, at a random place
            if draw(st.booleans()):
                row[draw(st.integers(2, len(row) - 1))] = "999"
            rows.insert(draw(st.integers(0, len(rows))), row)
            continue
        rows[i] = row
    text = "\n".join(",".join(row) for row in [header, *rows]) + "\n"
    if employment:
        return text, load_employment, _employment_rows_oracle
    return text, load_panel, _panel_rows_oracle


@settings(max_examples=300, deadline=None)
@given(corrupted_csvs())
def test_corrupted_inputs_raise_what_a_per_row_loop_names(case):
    text, load, oracle = case
    message = oracle(text)
    if message is None:
        load(io.StringIO(text))
        return
    with pytest.raises(PanelError) as exc:
        load(io.StringIO(text))
    assert str(exc.value) == message


def test_ascii_padding_is_what_strip_removes():
    assert set(panel_mod._ASCII_PADDING) == \
        {c for c in map(chr, range(128)) if c.isspace()} - {"\n"}


def test_panel_requires_minimum_shape():
    with pytest.raises(PanelError):
        build_panel({"X": np.ones((1, 3))})
    with pytest.raises(PanelError):
        build_panel({"X": np.ones((3, 1))})


def test_panel_data_is_isolated_and_readonly():
    src = np.arange(6, dtype=float).reshape(2, 3)
    p = build_panel({"X": src})
    src[0, 0] = 99.0
    assert p.matrix("X")[0, 0] == 0.0  # construction copied
    with pytest.raises(ValueError):
        p.matrix("X")[0, 0] = 5.0  # views are write-protected


@pytest.mark.parametrize("cell", [np.inf, -np.inf])
def test_panel_rejects_an_infinite_cell_naming_its_variable(cell):
    x = np.arange(6, dtype=float).reshape(2, 3)
    bad = x.copy()
    bad[1, 2] = cell
    with pytest.raises(PanelError, match="'B' has an infinite cell"):
        build_panel({"A": x, "B": bad})
    p = build_panel({"A": x, "B": x.copy()})
    with pytest.raises(PanelError, match="'C' has an infinite cell"):
        RegionalPanel(p.regions, p.years, {**p.data, "C": bad})
    x[0, 0] = np.nan  # NaN still means missing
    assert np.isnan(RegionalPanel(p.regions, p.years, {**p.data, "C": x}).matrix("C")[0, 0])


def test_to_csv_roundtrip_with_missing():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(3, 4))
    x[1, 2] = np.nan
    p = build_panel({"A": x, "B": rng.normal(size=(3, 4))})
    again = load_panel(io.StringIO(p.to_csv()))
    assert again.regions == p.regions and again.years == p.years
    np.testing.assert_array_equal(again.matrix("A"), p.matrix("A"))
    np.testing.assert_array_equal(again.matrix("B"), p.matrix("B"))


def test_to_csv_text_is_pinned():
    p = RegionalPanel(regions=("a,b", 'q"x'), years=(2001, 2002),
                      data={"X": [[np.nan, -0.0], [3.0, 1e-300]]})
    assert p.to_csv() == ('region,year,X\n"a,b",2001,\n"a,b",2002,-0\n'
                          '"q""x",2001,3\n"q""x",2002,1e-300\n')


# cell text from the characters and pairs that a CSV writer must quote, and plain ones
CELL_TEXT = st.lists(st.sampled_from([",", '"', "\n", "\r", "\r\n", " ", "a", "B"]),
                     max_size=5).map("".join)


# cell text from the characters and pairs that a markdown table must escape
MD_CELL_TEXT = st.lists(st.sampled_from(["|", "\\", "\n", "\r", "\r\n", " ", "a"]),
                        max_size=5).map("".join)


@st.composite
def tables(draw, text=CELL_TEXT):
    """The columns and row dicts of a random table of str, int and float cells."""
    columns = draw(st.lists(text, min_size=1, max_size=4, unique=True))
    cell = text | st.integers() | st.floats()
    rows = draw(st.lists(st.lists(cell, min_size=len(columns), max_size=len(columns)),
                         max_size=4))
    return columns, [dict(zip(columns, row)) for row in rows]


def _csv_writer_text(texts):
    """The CSV of rows of cell text as csv.writer writes it, lines ended by "\\n"."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(texts)
    return buf.getvalue()


@settings(max_examples=300, deadline=None)
@given(tables())
@example((["region"], [{"region": "1\r1"}, {"region": ""}]))
def test_csv_reader_reads_back_every_cell_render_table_writes(table):
    columns, rows = table
    texts = [columns, *(["%.17g" % v if isinstance(v, float) else str(v)
                         for v in r.values()] for r in rows)]
    text = render_table(rows, columns, "csv")
    assert list(csv.reader(io.StringIO(text, newline=""))) == texts
    # csv.writer leaves a carriage return outside a CRLF pair unquoted; elsewhere
    # the two write the same bytes
    if not any("\r" in cell.replace("\r\n", "") for row in texts for cell in row):
        assert text == _csv_writer_text(texts)


@settings(max_examples=300, deadline=None)
@given(tables(MD_CELL_TEXT))
@example((["A", "B|C"], [{"A": "x\r\ny", "B|C": "\\|"}]))
def test_every_markdown_line_has_one_cell_per_column(table):
    columns, rows = table
    texts = [columns, *(["%.4f" % v if isinstance(v, float) else str(v)
                         for v in r.values()] for r in rows)]
    text = render_table(rows, columns, "md")
    lines = text.split("\n")
    assert lines.pop() == "" and len(lines) == len(rows) + 2
    del lines[1]  # the rule under the header
    for line, row in zip(lines, texts):
        # read as GFM does: a cell runs to the next pipe that no backslash escapes,
        # its \| turns into |, then a backslash before punctuation is dropped
        assert re.fullmatch(r"\|(?:(?:\\.|[^\\|])*\|)+", line)
        cells = re.findall(r"((?:\\.|[^\\|])*)\|", line[1:])
        assert len(cells) == len(columns)
        assert ([re.sub(r"\\([!-/:-@[-`{-~])", r"\1", c[1:-1].replace("\\|", "|"))
                 for c in cells] == [re.sub(r"\r\n|\r|\n", " ", cell) for cell in row])


@pytest.mark.parametrize("name", ["region", "year"])
def test_a_variable_cannot_take_a_key_column_name(name):
    with pytest.raises(PanelError, match=f"variable '{name}' has the name of a key column"):
        RegionalPanel(regions=("a", "b"), years=(2001, 2002), data={name: np.ones((2, 2))})


@pytest.mark.parametrize("regions, years, matrix, message", [
    (("a", "a"), (2001, 2002), np.ones((2, 2)), "duplicate region identifiers"),
    (("a", "b"), (2002, 2001), np.ones((2, 2)), "years must be strictly increasing"),
    (("a", "b"), (2001, 2001), np.ones((2, 2)), "years must be strictly increasing"),
    (("a", "b"), (2001, 2002), np.ones((2, 3)),
     r"variable 'X' has shape \(2, 3\), expected \(2, 2\)"),
], ids=["duplicate-region", "decreasing-years", "repeated-year", "wrong-shape"])
def test_panel_construction_guards(regions, years, matrix, message):
    with pytest.raises(PanelError, match=message):
        RegionalPanel(regions=regions, years=years, data={"X": matrix})


def test_a_panel_built_on_another_panels_data_and_column():
    p = build_panel({"X": np.arange(6, dtype=float).reshape(2, 3)})
    q = RegionalPanel(p.regions, p.years, {**p.data, "Y": np.ones((2, 3))})
    assert q.variables == ("X", "Y")
    assert p.variables == ("X",)
    np.testing.assert_array_equal(q.column("X"), np.arange(6.0))  # region-major
    with pytest.raises(PanelError):
        p.matrix("NOPE")


def test_lag_shifts_within_region():
    x = np.array([[1.0, 2.0, 3.0], [10.0, 20.0, 30.0]])
    p = build_panel({"X": x})
    l1 = lag(p, "X", 1)
    assert np.isnan(l1[:, 0]).all()
    np.testing.assert_array_equal(l1[:, 1:], x[:, :-1])
    with pytest.raises(PanelError):
        lag(p, "X", 0)
    with pytest.raises(PanelError):
        lag(p, "X", 3)
    with pytest.raises(PanelError):
        lag(p, "X", True)


def test_descriptive_stats_values():
    x = np.array([[1.0, 2.0], [3.0, np.nan]])
    p = build_panel({"X": x})
    st = descriptive_stats(p).get("X")
    assert st.count == 3
    assert st.mean == pytest.approx(2.0)
    assert st.sd == pytest.approx(1.0)  # ddof=1
    assert (st.min, st.max) == (1.0, 3.0)


def test_descriptive_stats_skips_empty_variable():
    p = build_panel({"X": np.ones((2, 2)), "E": np.full((2, 2), np.nan)})
    with pytest.warns(UserWarning, match="E"):
        stats = descriptive_stats(p)
    assert "E" not in stats.names()


# every finite float: the moments are taken on cells scaled by a power of two
_STATS_CELL = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def stats_panels(draw):
    """Panels of 1-3 columns, each constant (0.1, 1/3 or a drawn value), a few
    ulps around one value, or random, with missing cells but none all missing."""
    shape = draw(st.integers(2, 5)), draw(st.integers(2, 5))
    n = shape[0] * shape[1]
    cells = lambda strategy: np.array(draw(st.lists(strategy, min_size=n, max_size=n)))
    data = {}
    for j in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["constant", "near-constant", "random"]))
        if kind == "constant":
            x = np.full(n, draw(st.sampled_from([0.1, 1 / 3]) | _STATS_CELL))
        elif kind == "near-constant":
            v = draw(_STATS_CELL)  # a few ulps toward 0, so that no cell overflows
            x = v - cells(st.integers(0, 4)) * (v - np.nextafter(v, 0.0))
        else:
            x = cells(_STATS_CELL)
        missing = cells(st.booleans())
        missing[draw(st.integers(0, n - 1))] = False
        data[f"V{j}"] = np.where(missing, np.nan, x).reshape(shape)
    return build_panel(data)


@settings(max_examples=200, deadline=None)
@given(stats_panels())
@example(build_panel({"V0": [[1.7e308, -1.7e308], [1.7e308, -1.7e308]]}))  # sd 1.96e308
def test_descriptive_stats_csv_roundtrip(p):
    """What describe writes, from_csv reads back to an equal table; a constant
    column comes out as mean = min = max with sd 0. Only an sd beyond the
    largest float raises."""
    try:
        stats = descriptive_stats(p)
    except PanelError as exc:
        name = str(exc).split("'")[1]
        assert str(exc) == f"sd of {name!r} is beyond the float range"
        col = p.column(name)[~np.isnan(p.column(name))]
        sd = np.std(np.ldexp(col, -1000), ddof=1)  # scaled so that no square overflows
        assert sd >= np.ldexp(np.finfo(float).max, -1000)
        return
    again = DescriptiveStats.from_csv(io.StringIO(stats.to_csv()))
    assert again.variables == stats.variables
    for name in p.variables:
        col = p.column(name)[~np.isnan(p.column(name))]
        rec = stats.get(name)
        if col.min() == col.max():  # np.ptp(col) can overflow
            assert (rec.mean, rec.sd, rec.min, rec.max) == (col[0], 0.0, col[0], col[0])


@pytest.mark.parametrize("rec", [
    VariableStats(117, 5.0, -1.0, 0.0, 10.0),
    VariableStats(117, 5.0, math.nan, 0.0, 10.0),
    VariableStats(117, 5.0, 1.0, 0.0, math.inf),
    VariableStats(117, 5.0, 1.0, -math.inf, 10.0),
    VariableStats(117, 5.0, 1.0, 6.0, 4.0),
    VariableStats(117, 11.0, 1.0, 0.0, 10.0),
    VariableStats(117, 5.0, 1.0, 5.0, 5.0),
], ids=["sd-negative", "sd-nan", "max-inf", "min-minus-inf", "min-above-max",
        "mean-above-max", "sd-with-min-equal-max"])
def test_stats_built_in_code_obey_the_rule(rec):
    good = VariableStats(117, 5.0, 0.0, 5.0, 5.0)
    with pytest.raises(PanelError, match="^inconsistent stats for 'A'$"):
        DescriptiveStats({"B": good, "A": rec})


def test_correlation_matrix_listwise_and_errors():
    rng = np.random.default_rng(12)
    a = rng.normal(size=(3, 5))
    b = 2 * a + rng.normal(size=(3, 5))
    b[0, 0] = np.nan
    p = build_panel({"A": a, "B": b})
    m = correlation_matrix(p, ["A", "B"])
    assert m.shape == (2, 2)
    assert m[0, 0] == 1.0 and m[1, 1] == 1.0
    mask = ~np.isnan(b.ravel())
    expect = np.corrcoef(a.ravel()[mask], b.ravel()[mask])[0, 1]
    assert m[0, 1] == pytest.approx(expect, abs=1e-12)
    with pytest.raises(PanelError):
        correlation_matrix(p, ["A"])
    q = build_panel({"A": a, "C": np.ones((3, 5))})
    with pytest.raises(PanelError, match="C"):
        correlation_matrix(q, ["A", "C"])
    sparse = np.full((3, 5), np.nan)
    sparse[0, 0] = 1.0  # one complete row for (A, S)
    r = build_panel({"A": a, "S": sparse})
    with pytest.raises(PanelError, match="fewer than 2 complete observations"):
        correlation_matrix(r, ["A", "S"])


# --- apportionment -----------------------------------------------------------

PROXY = np.array([[10.0, 20.0, 30.0, 40.0],
                  [30.0, 20.0, 20.0, 40.0],
                  [60.0, 60.0, 50.0, 20.0]])
TARGET = np.array([[5.0, 20.0, np.nan, np.nan],
                   [10.0, 10.0, np.nan, np.nan],
                   [35.0, 30.0, np.nan, np.nan]])
NATIONAL = {2003: 200.0, 2004: 400.0}


def apportion_fixture():
    return build_panel({"T": TARGET, "P": PROXY},
                       regions=("A", "B", "C"), years=(2001, 2002, 2003, 2004))


def test_imputation_fills_and_conserves():
    res = impute_by_apportionment(apportion_fixture(), "T", NATIONAL, "P")
    t = res.panel.matrix("T")
    np.testing.assert_allclose(t[:, 2], [60.0, 40.0, 100.0])
    np.testing.assert_allclose(t[:, 3], [160.0, 160.0, 80.0])
    # observed cells untouched
    np.testing.assert_array_equal(t[:, :2], TARGET[:, :2])
    assert res.filled_years == (2003, 2004)
    assert res.filled_cells == 6
    for j, year in ((2, 2003), (3, 2004)):
        assert t[:, j].sum() == pytest.approx(NATIONAL[year], rel=1e-12)


def test_imputation_diagnostic_uses_observed_years():
    res = impute_by_apportionment(apportion_fixture(), "T", NATIONAL, "P")
    # predictions on observed years: 2001 -> (5,15,30), 2002 -> (12,12,36)
    pred = np.array([5.0, 15.0, 30.0, 12.0, 12.0, 36.0])
    obs = np.array([5.0, 10.0, 35.0, 20.0, 10.0, 30.0])
    expect = np.corrcoef(pred, obs)[0, 1]
    assert res.correlation == pytest.approx(expect, abs=1e-12)


def test_imputation_nothing_to_do_is_vacuous():
    full = build_panel({"T": PROXY.copy(), "P": PROXY})
    res = impute_by_apportionment(full, "T", {}, "P")
    assert res.filled_cells == 0
    assert res.correlation == 1.0
    np.testing.assert_array_equal(res.panel.matrix("T"), PROXY)


def test_imputation_constant_predictions_give_a_nan_correlation():
    # a proxy constant across regions predicts 2698.597 * 3 / 21 for every cell
    # of the observed year; np.std of those equal values is 5.7e-14, not 0
    target = np.column_stack([[5.0, 1, 4, 9, 2, 6, 3], np.full(7, np.nan)])
    p = build_panel({"T": target, "P": np.full((7, 2), 3.0)})
    res = impute_by_apportionment(p, "T", {2001: 2698.597, 2002: 700.0}, "P")
    assert res.filled_cells == 7 and math.isnan(res.correlation)


def test_imputation_error_cases():
    p = apportion_fixture()
    with pytest.raises(PanelError, match="2004"):
        impute_by_apportionment(p, "T", {2003: 200.0}, "P")
    hole = PROXY.copy()
    hole[1, 2] = np.nan
    p2 = build_panel({"T": TARGET, "P": hole})
    with pytest.raises(PanelError, match="proxy"):
        impute_by_apportionment(p2, "T", NATIONAL, "P")
    zeros = PROXY.copy()
    zeros[:, 2] = 0.0
    p3 = build_panel({"T": TARGET, "P": zeros})
    with pytest.raises(PanelError, match="zero"):
        impute_by_apportionment(p3, "T", NATIONAL, "P")


@pytest.mark.parametrize("total", [math.nan, math.inf, -math.inf, 10**400, -10**400])
def test_imputation_refuses_a_non_finite_national_total(total):
    # 2002 has no missing cell, yet its total is refused, by year, before any
    # year is filled: a NaN total would leave cells NaN that count as filled,
    # and an infinite one would surface as an infinite cell of the panel; an
    # int beyond float range has no finite float value either
    for year in (2002, 2003):
        with pytest.raises(PanelError, match=f"^national total for year {year} is not finite$"):
            impute_by_apportionment(apportion_fixture(), "T", {**NATIONAL, year: total}, "P")


def _reference_apportionment(panel, target, national, proxy):
    """The per-year loops that imputation ran before its single array pass:
    (filled matrix, filled years, filled cells, correlation, predictions)."""
    tgt = panel.matrix(target).copy()
    prx = panel.matrix(proxy)
    filled_years = []
    filled_cells = 0
    for j, year in enumerate(panel.years):
        miss = np.isnan(tgt[:, j])
        if not miss.any():
            continue
        col = prx[:, j]
        if np.isnan(col).any():
            raise PanelError(
                f"proxy {proxy!r} has missing cells in year {year} needed for imputation")
        if year not in national:
            raise PanelError(f"national total for year {year} is absent")
        total = float(np.sum(col))
        if total == 0:
            raise PanelError(f"proxy {proxy!r} sums to zero in year {year}")
        fills = national[year] * col / total
        tgt[miss, j] = fills[miss]
        filled_years.append(year)
        filled_cells += int(miss.sum())
    observed = panel.matrix(target)
    pred, obs = [], []
    for j, year in enumerate(panel.years):
        col = observed[:, j]
        if np.isnan(col).any():
            continue
        pcol = prx[:, j]
        if np.isnan(pcol).any() or np.sum(pcol) == 0:
            continue
        total = national.get(year, float(np.sum(col)))
        share = pcol / np.sum(pcol)
        pred.extend(total * share)
        obs.extend(col)
    if filled_cells == 0:
        corr = 1.0
    elif len(obs) < 2 or np.ptp(pred) == 0 or np.ptp(obs) == 0:
        corr = math.nan
    else:
        corr = float(np.corrcoef(pred, obs)[0, 1])
    return tgt, tuple(filled_years), filled_cells, corr, np.array(pred)


@st.composite
def apportionment_cases(draw):
    """(panel, national): gaps, whole missing years, proxy holes, zero and
    constant proxy columns, negative proxies, absent national totals."""
    r, t = draw(st.integers(2, 12)), draw(st.integers(2, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    target = rng.uniform(0.0, 1e3, (r, t)).round(draw(st.sampled_from([0, 3, 17])))
    target[rng.random((r, t)) < draw(st.sampled_from([0.0, 0.1, 0.4]))] = np.nan
    target[:, rng.random(t) < draw(st.sampled_from([0.0, 0.3]))] = np.nan
    proxy = rng.uniform(draw(st.sampled_from([0.0, -50.0])), 100.0, (r, t))
    proxy = proxy.round(draw(st.sampled_from([0, 17])))
    proxy[rng.random((r, t)) < draw(st.sampled_from([0.0, 0.02, 0.2]))] = np.nan
    proxy[:, rng.random(t) < draw(st.sampled_from([0.0, 0.1]))] = 0.0
    proxy[:, rng.random(t) < draw(st.sampled_from([0.0, 0.2]))] = 7.0
    years = tuple(range(2002, 2002 + t))
    absent = draw(st.sampled_from([0.0, 0.1, 0.5]))
    digits = draw(st.sampled_from([0, 17]))
    national = {y: round(rng.uniform(0.0, 1e4), digits) for y in years
                if rng.random() >= absent}
    return build_panel({"T": target, "P": proxy}, years=years), national


@settings(max_examples=400, deadline=None)
@given(apportionment_cases())
def test_imputation_matches_the_per_year_reference(case):
    panel, national = case
    try:
        ref = _reference_apportionment(panel, "T", national, "P")
    except PanelError as exc:
        with pytest.raises(PanelError) as got:
            impute_by_apportionment(panel, "T", national, "P")
        assert str(got.value) == str(exc)
        return
    filled, years, cells, corr, pred = ref
    res = impute_by_apportionment(panel, "T", national, "P")
    assert res.panel.matrix("T").tobytes() == filled.tobytes()
    assert (res.filled_years, res.filled_cells) == (years, cells)
    # the reference predicts N * (p / S), the pass (N * p) / S: a rounding
    # apart, so r moves by ulps, more as the predictions cluster (max |pred|
    # over their sd); ones constant up to rounding, but not exactly, leave r
    # noise on both sides
    sd, top, spread = ((np.std(pred), np.abs(pred).max(), np.ptp(pred)) if pred.size
                       else (1.0, 1.0, 1.0))
    if spread and sd <= 1e-9 * top:
        return
    if math.isnan(corr):
        assert math.isnan(res.correlation)
    elif not spread:  # nothing filled: 1.0 by convention
        assert res.correlation == corr
    else:
        assert abs(res.correlation - corr) <= 1e-15 * max(1.0, top / (4 * sd))


# --- employment tables -------------------------------------------------------

EMP = ("region,year,industry,parent,employment\n"
       "n,2001,food,m,10\n"
       "n,2001,retail,s,30\n"
       "s,2001,food,m,20\n"
       "s,2001,retail,s,40\n")


def test_load_employment():
    t = load_employment(io.StringIO(EMP))
    assert t.keys == (("n", 2001), ("s", 2001))
    assert t.employment("n", 2001) == {"food": 10.0, "retail": 30.0}
    assert t.national(2001) == {"food": 30.0, "retail": 70.0}
    assert t.parents == {"food": "m", "retail": "s"}


def test_load_employment_errors():
    with pytest.raises(PanelParseError):
        load_employment(io.StringIO("region,year,industry,employment\nx\n"))
    neg = EMP + "s,2001,mining,p,-3\n"
    with pytest.raises(PanelParseError):
        load_employment(io.StringIO(neg))
    twoparents = EMP + "n,2001,food,OTHER,5\n"
    with pytest.raises(PanelError, match="food"):
        load_employment(io.StringIO(twoparents))


def test_load_employment_builds_the_count_matrix():
    # a duplicate record sums; an absent (region-year, industry) pair is 0
    t = load_employment(io.StringIO(EMP + "n,2002,food,m,5\nn,2001,food,m,2.5\n"))
    assert t.keys == (("n", 2001), ("n", 2002), ("s", 2001))
    assert t.industries == ("food", "retail")
    assert t.counts.tolist() == [[12.5, 30.0], [5.0, 0.0], [20.0, 40.0]]
    assert t.national_counts.tolist() == [[32.5, 70.0], [5.0, 0.0], [32.5, 70.0]]
    assert t.sectors == ("m", "s") and t.sector_index.tolist() == [0, 1]
    assert not t.counts.flags.writeable
    # one row of a matrix each, its zero entries left out
    assert t.employment("n", 2001) == {"food": 12.5, "retail": 30.0}
    assert t.employment("n", 2002) == {"food": 5.0} and t.national(2002) == {"food": 5.0}
    assert t.employment("n", 1999) == {} and t.national(1999) == {}
    assert t.rows[-1] == ("n", 2001, "food", "m", 2.5)
    # the constructor checks what it is handed as well
    with pytest.raises(PanelError, match="non-negative"):
        EmploymentTable(regions=["n"], years=[2001], codes=["food"], employed=[-1.0],
                        parents={"food": "m"})
    with pytest.raises(PanelError, match="'food' has no parent"):
        EmploymentTable(regions=["n"], years=[2001], codes=["food"], employed=[1.0],
                        parents={})


@pytest.mark.parametrize("variant", [lambda text: "\ufeff" + text,
                                     lambda text: text.replace("\n", "\r")],
                         ids=["byte-order-mark", "lone-cr-line-ends"])
def test_bom_and_lone_cr_files_load_as_their_plain_twin(tmp_path, variant):
    stats = "name,count,mean,sd,min,max\nA,10,1,0.5,0,2\nB,10,3,1,0,9\n"
    path = tmp_path / "in.csv"
    for text, load, view in ((BASIC, load_panel, RegionalPanel.to_csv),
                             (EMP, load_employment, lambda table: table.rows),
                             (stats, DescriptiveStats.from_csv, DescriptiveStats.to_csv)):
        want = view(load(io.StringIO(text)))
        path.write_text(variant(text), encoding="utf-8")
        assert view(load(str(path))) == want
        assert view(load(io.StringIO(variant(text)))) == want


def test_loaders_read_a_path_object_as_its_str(tmp_path):
    for text, load, view in (
            (BASIC, load_panel, RegionalPanel.to_csv),
            (EMP, load_employment, lambda table: table.rows),
            ("name,count,mean,sd,min,max\nA,10,1,0.5,0,2\n", DescriptiveStats.from_csv,
             DescriptiveStats.to_csv),
            ("name,A,B\nA,1,0.5\nB,0.5,1\n", load_correlation_csv,
             lambda got: (got[0], got[1].tolist())),
            ("variable,beta,source_column,x_mean,y_mean,expected\nB,2.0,1,10.0,4.0,5\n",
             load_provenance, list)):
        path = tmp_path / f"{load.__name__}.csv"
        path.write_text(text, encoding="utf-8")
        assert view(load(path)) == view(load(str(path))) == view(load(io.StringIO(text)))


@pytest.mark.parametrize("cell", ["nan", "NaN", "inf", "-inf", "Infinity"])
def test_non_finite_cells_are_rejected_at_parse(cell):
    with pytest.raises(PanelParseError, match=f"line 3: employment '{cell}' is not finite"):
        load_employment(io.StringIO(EMP.replace("retail,s,30", f"retail,s,{cell}")))
    with pytest.raises(PanelParseError, match=f"line 4: 'GDP' cell '{cell}' is not finite"):
        load_panel(io.StringIO(BASIC.replace("cre,2001,2,", f"cre,2001,{cell},")))
    stats = f"name,count,mean,sd,min,max\nA,10,1,{cell},0,2\n"
    with pytest.raises(PanelParseError, match=f"line 2: 'A' sd '{cell}' is not finite"):
        DescriptiveStats.from_csv(io.StringIO(stats))


# --- block reading -----------------------------------------------------------

# each reader and a valid text for it, every data line a list of cells
_BLOCK_READERS = {
    "panel": (load_panel, "region,year,A,B",
              [[r, str(y), str(i % 5), str(i % 3 - 1)]
               for i, (r, y) in enumerate((r, y) for r in "abc" for y in (2001, 2002, 2003))]),
    "employment": (load_employment, "region,year,industry,parent,employment",
                   [[r, str(y), ind, par, str(len(r + ind) + y % 7)]
                    for r in ("n", "s") for y in (2001, 2002)
                    for ind, par in (("food", "m"), ("retail", "s"))]),
    "stats": (DescriptiveStats.from_csv, "name,count,mean,sd,min,max",
              [["A", "10", "1", "0.5", "0", "2"], ["B", "10", "3", "1", "0", "9"],
               ["C", "4", "0", "0", "0", "0"]]),
    "correlation": (load_correlation_csv, "name,A,B,C",
                    [["A", "1", "0.4", "0"], ["B", "0.4", "1", "0.2"], ["C", "0", "0.2", "1"]]),
    "provenance": (load_provenance, "variable,beta,source_column,x_mean,y_mean,expected",
                   [["A", "2.0", "1", "10.0", "4.0", ""], ["B", "-1", "2", "3", "5", "0.5"],
                    ["C", "0.5", "3", "1", "2", "0.25"]]),
}


def _outcome(load, source):
    """What a reader returns, arrays as bytes, or its error's type and text."""
    try:
        got = load(source)
    except PanelError as exc:
        return type(exc).__name__, str(exc)
    if isinstance(got, RegionalPanel):
        return got.regions, got.years, {k: v.tobytes() for k, v in got.data.items()}
    if isinstance(got, EmploymentTable):
        return got.rows, got.parents, got.counts.tobytes(), got.national_counts.tobytes()
    if isinstance(got, tuple):  # a correlation matrix and its names
        return got[0], got[1].tobytes()
    return got


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_block_size_changes_no_result_and_no_error(tmp_path, data):
    # quoted cells over several lines, blank lines, a ragged row, a bad cell or
    # a repeat of an earlier row (a repeated panel row, an industry mapped
    # to a second parent) anywhere, read one to seven lines to a block
    reader = data.draw(st.sampled_from(sorted(_BLOCK_READERS)))
    load, header, rows = _BLOCK_READERS[reader]
    rows = [header.split(","), *map(list, rows)]  # the header may be edited too
    for _ in range(data.draw(st.integers(0, 4))):
        i = data.draw(st.integers(0, len(rows) - 1))
        edit = data.draw(st.sampled_from(["repeat", "cell", "quote", "ragged", "blank"]))
        if edit == "repeat":
            rows.append(list(rows[i]))
            i = len(rows) - 1
        if edit in ("repeat", "cell"):
            j = data.draw(st.integers(0, len(rows[i]) - 1))
            rows[i][j] = data.draw(st.sampled_from(["x", "", "-1", "9", "OTHER", rows[i][j]]))
        elif edit == "quote":
            j = data.draw(st.integers(0, len(rows[i]) - 1))
            inner = data.draw(st.sampled_from(["\n", "\r\n", ",", ""]))
            rows[i][j] = f'"{rows[i][j][:1]}{inner}{rows[i][j][1:]}"'
        elif edit == "ragged":
            rows[i] = rows[i][:-1] if rows[i][1:] and data.draw(st.booleans()) else rows[i] + ["1"]
        else:
            rows.insert(i, [data.draw(st.sampled_from(["", " \t", " , ", "\x0c"]))])
    newline = data.draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = newline.join(",".join(row) for row in rows)
    text = ("\ufeff" if data.draw(st.booleans()) else "") + text + newline * data.draw(
        st.integers(0, 2))
    path = tmp_path / "in.csv"
    path.write_text(text, encoding="utf-8", newline="")
    with mock.patch.object(panel_mod, "_BLOCK_ROWS", 10 ** 6):
        want = _outcome(load, io.StringIO(text))
        assert _outcome(load, str(path)) == want
    for block in (1, 2, 3, 7):
        with mock.patch.object(panel_mod, "_BLOCK_ROWS", block):
            assert _outcome(load, io.StringIO(text)) == want
            assert _outcome(load, str(path)) == want


def test_loaders_hold_one_block_of_cells_at_a_time(tmp_path):
    # a 300 regions x 30 years x 20 variables panel at 17 digits (3.6 MB): a
    # whole-file read peaked at 7.4 times the file; one block at a time, under 3
    rng = np.random.default_rng(11)
    want = RegionalPanel(regions=tuple(f"R{r:03d}" for r in range(300)),
                         years=tuple(range(1991, 2021)),
                         data={f"V{j}": rng.normal(size=(300, 30)) * 100 for j in range(20)})
    path = tmp_path / "panel.csv"
    path.write_text(want.to_csv(), encoding="utf-8")
    tracemalloc.start()
    try:
        got = load_panel(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.to_csv() == want.to_csv()
    assert peak <= 3 * path.stat().st_size
    # a 50 regions x 10 years x 60 industries employment table (0.64 MB): a
    # whole-file read peaked at 14.8 MB, 23 times the file; with one block at a
    # time and one string per distinct key, under 10 times (6.4 MB)
    lines = ["region,year,industry,parent,employment"]
    lines += [f"R{r:02d},{2001 + t},C{i:02d},S{i * 9 // 60},{float(v)!r}"
              for (r, t, i), v in np.ndenumerate(np.round(rng.lognormal(4, 1.5, (50, 10, 60)), 1))]
    path = tmp_path / "employment.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    tracemalloc.start()
    try:
        table = load_employment(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(table.rows) == 30_000 and len(set(map(id, table.codes))) == 60
    assert peak <= 10 * path.stat().st_size
