"""Balanced regional panel: ingestion, imputation, lags, and summaries.

A panel is a balanced R x T grid (R regions, T years) holding one matrix per
variable with NaN marking missing cells. Panels are immutable after
construction (the arrays are write-protected); derived data comes back as new
objects or fresh arrays.

CSV schema (wide): header ``region,year,<var1>,<var2>,...``; empty cells are
missing values — no sentinel numbers. Employment tables use the long schema
``region,year,industry,parent,employment``.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import os
import sys
import warnings
from bisect import bisect_left
from dataclasses import asdict, dataclass, field
from itertools import chain, compress, islice, product, repeat
from operator import attrgetter
from typing import Mapping, NamedTuple

import numpy as np

from .table import render_table

__all__ = [
    "PanelError",
    "PanelParseError",
    "RegionalPanel",
    "EmploymentTable",
    "DescriptiveStats",
    "VariableStats",
    "ImputationResult",
    "load_panel",
    "load_employment",
    "load_correlation_csv",
    "load_provenance",
    "impute_by_apportionment",
    "lag",
    "descriptive_stats",
    "correlation_matrix",
]


class PanelError(ValueError):
    """Structural or semantic panel violation."""


class PanelParseError(PanelError):
    """Malformed input row; carries the 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


def _float_fault(text: str, what: str):
    """Why ``text`` is not a finite number, or None.

    ``what`` names the cell in the message, e.g. ``"employment"``.
    """
    try:
        value = float(text)
    except ValueError:
        return f"{what} {text!r} is not numeric"
    return None if math.isfinite(value) else f"{what} {text!r} is not finite"


def _parse_float(text: str, line: int, what: str) -> float:
    """``float(text)``, or a PanelParseError naming the line unless finite."""
    fault = _float_fault(text, what)
    if fault:
        raise PanelParseError(line, fault)
    return float(text)


class _Table(NamedTuple):
    """A block of parsed CSV rows: ``columns[j]`` lists the cells of column j
    and ``lines`` the 1-based line number of each row kept (its last line,
    where a quoted cell spans lines)."""

    columns: list
    lines: list


def _records(blocks):
    """``(line, cells)`` of each row of ``_read_csv`` blocks."""
    for table in blocks:
        yield from zip(table.lines, zip(*table.columns))


# the ASCII characters str.strip() removes, "\n" aside
_ASCII_PADDING = " \t\r\x0b\x0c\x1c\x1d\x1e\x1f"
# the lines of a block; a loader holds the cells of one block at a time
_BLOCK_ROWS = 1024


def _read_csv(source):
    """The header list of a CSV path, ``os.PathLike`` or text stream, then
    ``_Table`` blocks of its rows, read line by line, ``_BLOCK_ROWS`` lines to
    a block: every cell stripped, blank and whitespace-only lines skipped and
    one leading byte-order mark dropped. Each structural fault raises
    PanelParseError in file order: empty input, a header that ``csv.reader``
    rejects, that has an empty cell or that names a column twice, then a
    ragged row or a row that ``csv.reader`` rejects (a field over its size
    limit), raised once the block of rows above it has been yielded. A caller
    that checks each block as it arrives so reports a bad cell on an earlier
    line first.
    """
    path = isinstance(source, (str, os.PathLike))
    with (open(source, newline="", encoding="utf-8") if path
          else contextlib.nullcontext(source)) as fh:
        first = next(fh, "").removeprefix("\ufeff")
        rest = chain([first] if first else [], fh)
        if not path:  # split at any line end, as open(newline="") does
            rest = chain.from_iterable(io.StringIO(line, newline="") for line in rest)
        reader = csv.reader(rest)
        try:
            header = [c.strip() for c in next(reader)]
        except csv.Error as exc:
            raise PanelParseError(reader.line_num, str(exc)) from None
        except StopIteration:
            raise PanelParseError(1, "empty input") from None
        if "" in header:
            raise PanelParseError(1, "empty column name")
        if repeated := [c for c in header if header.count(c) > 1]:
            raise PanelParseError(1, f"duplicate column {repeated[0]!r}")
        yield header
        done = reader.line_num
        while chunk := list(islice(rest, _BLOCK_ROWS)):
            # without quotes or a field over the csv size limit, every line is
            # a record and every comma a separator
            text = "".join(chunk)
            if '"' in text or max(map(len, chunk)) > csv.field_size_limit():
                break
            if "\r" in text:  # each line ends at its "\r\n", "\r" or "\n"
                text = text.replace("\r\n", "\n").replace("\r", "\n")
            lines, done = list(range(done + 1, done + len(chunk) + 1)), done + len(chunk)
            yield from _block(header, text.removesuffix("\n").split("\n"), lines, text)
        # from the first block that needs it, if any, the rest goes through csv.reader
        reader, body, lines, error = csv.reader(chain(chunk, rest)), [], [], None
        try:
            for row in reader:
                body.append(row)
                lines.append(done + reader.line_num)
                if len(body) == _BLOCK_ROWS:
                    yield from _block(header, body, lines)
                    body, lines = [], []
        except csv.Error as exc:
            error = PanelParseError(done + reader.line_num, str(exc))
        yield from _block(header, body, lines, error=error)


def _block(header, body, lines, text=None, error=None):
    """Yield the ``_Table`` of the ``body`` lines of ``text`` or, without
    ``text``, of ``csv.reader`` rows, up to its first ragged row; then raise
    that row's error, else ``error``, the fault past its last row, if any."""
    width = len(header)
    counts = [n + 1 for n in map(str.count, body, repeat(","))] if text else list(map(len, body))
    for i in [i for i, n in enumerate(counts) if n != width]:
        if any(map(str.strip, body[i].split(",") if text else body[i])):
            error = PanelParseError(lines[i], f"expected {width} cells, got {counts[i]}")
            del body[i:], lines[i:]
            break
        body[i] = "," * (width - 1) if text else [""] * width  # a blank line, dropped below
    if text:
        cells = ",".join(body).split(",") if body else []
        columns = [cells[j::width] for j in range(width)]
        if not text.isascii() or any(c in text for c in _ASCII_PADDING):
            columns = [list(map(str.strip, col)) for col in columns]
    else:
        columns = [list(map(str.strip, col)) for col in zip(*body)] or [[] for _ in header]
    if columns and "" in columns[0]:  # drop lines like " , " too
        keep = [i for i, c in enumerate(columns[0]) if c or any(col[i] for col in columns)]
        columns = [[col[i] for i in keep] for col in columns]
        lines = [lines[i] for i in keep]
    yield _Table(columns, lines)
    if error is not None:
        raise error


def _float_column(cells):
    """``float()`` of every cell, NaN where a cell is empty; None unless every
    non-empty cell is a finite number."""
    if "" in cells:
        cells = np.array(cells, dtype=object)
        empty = cells == ""
        cells[empty] = "nan"
    else:
        empty = False
    try:
        values = np.fromiter(map(float, cells), float, len(cells))
    except ValueError:
        return None
    return values if (np.isfinite(values) | empty).all() else None


def _int_column(cells):
    """``int()`` of every cell, or None unless every cell is an integer."""
    try:
        ints = list(map(int, cells))
    except ValueError:
        return None
    try:
        return np.array(ints, dtype=np.int64)
    except OverflowError:  # an object array keeps a value beyond int64 exact
        return np.array(ints, dtype=object)


def _empty_fault(what):
    """The fault of a key cell named ``what``: the message where it is empty."""
    return lambda text: not text and f"empty {what}"


def _year_fault(text):
    return _int_column([text]) is None and f"year {text!r} is not an integer"


def _first_error(table, checks) -> PanelParseError | None:
    """The error of the table's first bad line, or None.

    A check is ``(ok, fault, *columns)``, ``ok`` telling whether its columns
    passed their whole-column check. Where one did not, ``fault(*cells)``,
    the message naming a bad row or a false value, is read row by row. The
    earliest bad line wins; on one line, the check listed first.
    """
    errors = (next(PanelParseError(line, message) for line, *cells in zip(table.lines, *columns)
                   if (message := fault(*cells)))
              for ok, fault, *columns in checks if not ok)
    return min(errors, key=attrgetter("line"), default=None)


def _check_name(name, what: str) -> None:
    """Raise PanelError naming ``name`` unless it is a non-empty str equal to its
    own strip(): a name that a CSV cell carries, and reads back, unchanged."""
    if not (isinstance(name, str) and name and name == name.strip()):
        raise PanelError(f"{what} {name!r} is not a non-empty str without "
                         "surrounding whitespace")


@dataclass(frozen=True)
class RegionalPanel:
    """Balanced panel of named R x T variable matrices.

    NaN marks a missing cell; an infinite cell raises PanelError naming its
    variable, and so does a variable named like a key column of the CSV. A
    region or variable name must be a non-empty str equal to its own strip();
    ``to_csv`` quotes a name that holds a comma, a quote or a line end.
    """

    regions: tuple
    years: tuple
    data: dict
    meta: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        if len(self.regions) < 2 or len(self.years) < 2:
            raise PanelError("panel requires at least 2 regions and 2 years")
        for region in self.regions:
            _check_name(region, "region identifier")
        if len(set(self.regions)) != len(self.regions):
            raise PanelError("duplicate region identifiers")
        if list(self.years) != sorted(set(self.years)):
            raise PanelError("years must be strictly increasing")
        shape = (len(self.regions), len(self.years))
        frozen = {}
        for name, mat in self.data.items():
            _check_name(name, "variable")
            if name in ("region", "year"):
                raise PanelError(f"variable {name!r} has the name of a key column")
            arr = np.asarray(mat, dtype=float)
            if arr.shape != shape:
                raise PanelError(
                    f"variable {name!r} has shape {arr.shape}, expected {shape}")
            if np.isinf(arr).any():
                raise PanelError(f"variable {name!r} has an infinite cell")
            arr = arr.copy()
            arr.setflags(write=False)
            frozen[name] = arr
        object.__setattr__(self, "data", frozen)

    # -- shape -------------------------------------------------------------
    @property
    def n_regions(self) -> int:
        return len(self.regions)

    @property
    def n_years(self) -> int:
        return len(self.years)

    @property
    def n_obs(self) -> int:
        return self.n_regions * self.n_years

    @property
    def variables(self) -> tuple:
        return tuple(self.data)

    # -- access ------------------------------------------------------------
    def matrix(self, name: str) -> np.ndarray:
        """Read-only R x T view of one variable."""
        try:
            return self.data[name]
        except KeyError:
            raise PanelError(f"unknown variable {name!r}") from None

    def column(self, name: str) -> np.ndarray:
        """Region-major flattened copy, length R*T."""
        return self.matrix(name).ravel().copy()

    # -- serialization -----------------------------------------------------
    def to_csv(self) -> str:
        """The wide-schema CSV text, values at full precision (``%.17g``).

        A missing cell is written empty, the only missing marker
        ``load_panel`` reads, so the text loads back to an equal panel.
        """
        names = list(self.data)
        cells = zip(*(m.ravel().tolist() for m in self.data.values()))
        rows = [{"region": region, "year": year,
                 **{name: "" if math.isnan(v) else v for name, v in zip(names, values)}}
                for (region, year), values in zip(product(self.regions, self.years), cells)]
        return render_table(rows, ["region", "year", *names], "csv")


def load_panel(source) -> RegionalPanel:
    """Parse a wide-schema CSV stream or path into a balanced panel, every
    column after ``region,year`` a variable.

    A row repeating an earlier row's (region, year) raises, whatever its
    values. Unbalanced grids raise listing the missing cells. A header with
    an empty cell or naming a column twice raises. The first bad line (a bad
    cell, a repeated row or a ragged row) is reported, then the missing cells.
    Each block of rows is converted as it is read, and none is read past the
    first bad line.
    """
    with contextlib.closing(_read_csv(source)) as blocks:
        header = next(blocks)
        if header[:2] != ["region", "year"]:
            raise PanelParseError(1, "header must start with 'region,year'")
        names, region_at = header[2:], {}
        # convert each block as it arrives, up to the first bad or ragged line
        lines, region_index, parts, error = [], [], [], None
        # per column: the message for a bad cell, read where the whole column fails
        faults = [_empty_fault("region identifier"), _year_fault,
                  *(lambda text, what=f"{nm!r} cell": text and _float_fault(text, what)
                    for nm in names)]
        try:
            for table in blocks:
                regions, years, *cells = table.columns
                year_values, values = _int_column(years), [_float_column(c) for c in cells]
                ok = ["" not in regions, year_values is not None, *(v is not None for v in values)]
                error = _first_error(table, zip(ok, faults, [regions, years, *cells]))
                if error is not None:  # a bad cell: go on with the rows above its line
                    n = bisect_left(table.lines, error.line)
                    regions, years, cells = regions[:n], years[:n], [c[:n] for c in cells]
                    year_values, values = _int_column(years), [_float_column(c) for c in cells]
                lines += table.lines[:len(regions)]
                region_index += [region_at.setdefault(r, len(region_at)) for r in regions]
                parts.append((year_values, *values))
                if error is not None:
                    break
        except PanelParseError as exc:  # a ragged row, raised after any repeat above it
            error = exc
    year_cells, *values = map(np.concatenate, zip(*parts))
    del parts  # one copy of the cells at a time
    year_values, year_index = np.unique(year_cells, return_inverse=True)
    n_years = len(year_values)
    cell = np.array(region_index, dtype=np.intp) * n_years + year_index
    region_list, year_list = list(region_at), year_values.tolist()
    seen, first = np.unique(cell, return_index=True)
    if len(seen) < len(cell):  # report the earliest row that repeats a (region, year)
        i = int(np.setdiff1d(np.arange(len(cell)), first)[0])
        key = (region_list[region_index[i]], int(year_cells[i]))
        raise PanelParseError(lines[i], f"duplicate row {key}")
    if error is not None:
        raise error
    missing = np.setdiff1d(np.arange(len(region_list) * n_years), seen).tolist()
    if missing:
        missing_cells = [(region_list[c // n_years], year_list[c % n_years]) for c in missing]
        raise PanelError(f"unbalanced panel; missing cells: {missing_cells}")
    return RegionalPanel(regions=tuple(region_list), years=tuple(year_list),
                         data={name: column[first].reshape(len(region_list), n_years)
                               for name, column in zip(names, values)})


# ---------------------------------------------------------------------------
# employment, correlation and provenance tables


@dataclass(frozen=True, eq=False)
class EmploymentTable:
    """Long-format employment records as columns (``regions``, ``years``,
    industry ``codes``, ``employed``) with a consistent industry→sector map.

    Construction also lays the records out as read-only arrays, so the
    diversity indices reduce over them without rescanning the records:

    - ``keys``: the sorted (region, year) pairs, one per matrix row;
    - ``industries``: the sorted industry codes, one per matrix column;
    - ``counts``: employment per (region-year, industry), duplicate records
      summed and absent pairs 0;
    - ``national_counts``: the same shape, each row holding its year's
      national totals per industry;
    - ``sectors`` / ``sector_index``: the sorted parent sectors and, per
      industry column, the index of its sector.
    """

    regions: tuple
    years: tuple
    codes: tuple
    employed: np.ndarray
    parents: dict
    keys: tuple = field(init=False, repr=False)
    industries: tuple = field(init=False, repr=False)
    counts: np.ndarray = field(init=False, repr=False)
    national_counts: np.ndarray = field(init=False, repr=False)
    sectors: tuple = field(init=False, repr=False)
    sector_index: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        regions, years, inds = tuple(self.regions), tuple(self.years), tuple(self.codes)
        emp = np.array(self.employed, dtype=float)

        def rank(values):  # the sorted distinct values, and each value's index
            distinct = sorted(set(values))
            at = {v: i for i, v in enumerate(distinct)}
            return distinct, np.fromiter(map(at.__getitem__, values), np.intp, len(values))

        codes, code_index = rank(inds)
        try:
            parent_of = [self.parents[c] for c in codes]
        except KeyError as exc:
            raise PanelError(
                f"industry {exc.args[0]!r} has no parent sector mapping") from None
        sectors, sector_index = rank(parent_of)
        year_values, year_index = rank(years)
        n_years, m = len(year_values), len(codes)
        _, first, key_index = np.unique(rank(regions)[1] * n_years + year_index,
                                        return_index=True, return_inverse=True)
        keys = [(regions[i], years[i]) for i in first.tolist()]
        cell = key_index * m + code_index
        # both sums run in an order fixed by the data, never by the record
        # order, so a shuffled file gives bit-identical matrices
        order = np.lexsort((emp, cell))
        counts = np.bincount(cell[order], weights=emp[order],
                             minlength=len(keys) * m).reshape(len(keys), m)
        national = np.zeros((n_years, m))
        key_year = year_index[first]
        np.add.at(national, key_year, counts)
        if not (np.all(emp >= 0) and np.all(np.isfinite(national.sum(axis=1)))):
            raise PanelError("employment must be non-negative with finite totals")

        derived = {"regions": regions, "years": years, "codes": inds, "employed": emp,
                   "keys": tuple(keys), "industries": tuple(codes),
                   "sectors": tuple(sectors), "counts": counts,
                   "national_counts": national[key_year], "sector_index": sector_index}
        for name, value in derived.items():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
            object.__setattr__(self, name, value)

    @property
    def rows(self) -> tuple:
        """The ``(region, year, industry, parent, employment)`` records, zipped
        from the columns on each access."""
        return tuple(zip(self.regions, self.years, self.codes,
                         map(self.parents.__getitem__, self.codes), self.employed.tolist()))

    def employment(self, region: str, year: int) -> dict:
        """The non-zero employment per industry of one region-year."""
        return self._nonzero(self.counts, [key == (region, year) for key in self.keys])

    def national(self, year: int) -> dict:
        """The non-zero national employment per industry of one year."""
        return self._nonzero(self.national_counts, [y == year for _, y in self.keys])

    def _nonzero(self, matrix, match) -> dict:
        row = matrix[np.flatnonzero(match)[:1]].ravel().tolist()  # empty where none match
        return {code: e for code, e in zip(self.industries, row) if e}


def load_employment(source) -> EmploymentTable:
    """Parse the long-schema employment CSV.

    Enforces: non-empty region, industry and parent cells, non-negative
    employment, numeric cells, and that every industry code maps to exactly
    one parent sector across the whole file. The first bad line is reported;
    a ragged row comes after every earlier line. Each block of rows is
    converted as it is read, and the table holds one string per distinct
    region, industry or parent.
    """
    expected = ["region", "year", "industry", "parent", "employment"]
    with contextlib.closing(_read_csv(source)) as blocks:
        if next(blocks) != expected:
            raise PanelParseError(1, f"header must be {','.join(expected)}")
        distinct, parents, columns, employed = {}, {}, ([], [], []), []
        for table in blocks:
            region_cells, year_cells, inds, parent_cells, emp_cells = table.columns
            years, emp = _int_column(year_cells), _float_column(emp_cells)
            # an industry's parent is the one on its first line
            first_parent = list(map(parents.setdefault, inds, parent_cells))
            error = _first_error(table, [
                ("" not in region_cells, _empty_fault("region identifier"), region_cells),
                (years is not None, _year_fault, year_cells),
                ("" not in inds, _empty_fault("industry code"), inds),
                ("" not in parent_cells, _empty_fault("parent sector"), parent_cells),
                (emp is not None and (emp >= 0).all(),  # NaN, from an empty cell, fails too
                 lambda text: _float_fault(text, "employment")
                 or float(text) < 0 and f"negative employment {float(text)}", emp_cells),
                (first_parent == parent_cells,
                 lambda ind, parent: parents[ind] != parent
                 and f"industry {ind!r} mapped to both {parents[ind]!r} and {parent!r}",
                 inds, parent_cells)])
            if error is not None:
                raise error
            for column, cells in zip(columns, (region_cells, years.tolist(), inds)):
                column += map(distinct.setdefault, cells, cells)  # one object per distinct key
            employed.append(emp)
    return EmploymentTable(*columns, employed=np.concatenate(employed), parents=parents)


def load_correlation_csv(source) -> tuple:
    """(names, matrix) from a named square correlation CSV."""
    with contextlib.closing(_read_csv(source)) as blocks:
        names, rows = next(blocks)[1:], {}
        for lineno, (name, *cells) in _records(blocks):
            if not name:
                raise PanelParseError(lineno, "empty name")
            if name in rows:
                raise PanelParseError(lineno, f"duplicate row {name!r}")
            rows[name] = [_parse_float(c, lineno, f"{name!r} correlation") for c in cells]
    if sorted(rows) != sorted(names):
        raise PanelError("correlation CSV row names do not match its header")
    mat = np.array([rows[n] for n in names], dtype=float)
    return names, mat


def load_provenance(source) -> list:
    """One dict per provenance CSV row, keyed by its header.

    Every row fills ``variable,beta,source_column,x_mean,y_mean``; ``beta``,
    ``x_mean``, ``y_mean`` and ``expected`` come back as finite floats, and
    ``expected`` as None where it is absent or empty.
    """
    required = ("variable", "beta", "source_column", "x_mean", "y_mean")
    with contextlib.closing(_read_csv(source)) as blocks:
        header, rows = next(blocks), []
        if absent := [k for k in required if k not in header]:
            raise PanelParseError(1, f"provenance header lacks column {absent[0]!r}")
        for lineno, cells in _records(blocks):
            rec = dict(zip(header, cells))
            what = f"{rec['variable']!r} "
            if empty := [k for k in required if not rec[k]]:
                raise PanelParseError(lineno, what + f"{empty[0]} is empty")
            rec.setdefault("expected", "")
            for k in ("beta", "x_mean", "y_mean", "expected"):  # only expected may be empty
                rec[k] = _parse_float(rec[k], lineno, what + k) if rec[k] else None
            rows.append(rec)
    return rows


# ---------------------------------------------------------------------------
# imputation


@dataclass(frozen=True)
class ImputationResult:
    """Filled panel plus the footnote-style proxy-quality diagnostic.

    ``correlation`` relates apportionment predictions to observed values over
    fully observed years (1.0 by convention when nothing needed imputation, NaN
    when fewer than 2 cells compare or either side is exactly constant); a fully
    missing year reproduces the national total exactly. In a partly
    missing year the observed cells are kept and each fill takes its proxy
    share of the full national total, so that year's sum can exceed the total.
    """

    panel: "RegionalPanel"
    correlation: float
    filled_years: tuple
    filled_cells: int


def impute_by_apportionment(panel: RegionalPanel, target: str,
                            national: Mapping[int, float],
                            proxy: str) -> ImputationResult:
    """Fill missing target cells by splitting national totals along a proxy.

    In a year whose proxy column is complete with a nonzero sum S[t], cell
    (r, t) is predicted as ``level[t] * proxy[r, t] / S[t]``, ``level[t]``
    being ``national[t]``, else the observed year total. Missing cells take
    their prediction and observed cells are kept, so a partly missing year
    can sum above its national total. Raises for the first panel year whose
    national total is given but not finite, before any cell is filled, and
    then for the first year with a missing target cell whose proxy is
    missing, whose national total is absent, or whose proxy sums to zero.
    """
    for year in panel.years:
        # NaN, ±inf and an int beyond float range all fail this test
        if year in national and not abs(national[year]) <= sys.float_info.max:
            raise PanelError(f"national total for year {year} is not finite")
    # year-major copies, so each year's sum is the np.sum of one contiguous row
    tgt = np.ascontiguousarray(panel.matrix(target).T)
    prx = np.ascontiguousarray(panel.matrix(proxy).T)
    missing, complete = np.isnan(tgt), ~np.isnan(prx).any(axis=1)
    gap, total = missing.any(axis=1), prx.sum(axis=1)
    for t in np.flatnonzero(gap):
        year = panel.years[t]
        if not complete[t]:
            raise PanelError(
                f"proxy {proxy!r} has missing cells in year {year} needed for imputation")
        if year not in national:
            raise PanelError(f"national total for year {year} is absent")
        if total[t] == 0:
            raise PanelError(f"proxy {proxy!r} sums to zero in year {year}")
    usable = complete & (total != 0)
    level = np.fromiter(map(national.get, panel.years, tgt.sum(axis=1)), float)
    pred = np.full_like(tgt, np.nan)
    pred[usable] = level[usable, None] * prx[usable] / total[usable, None]
    tgt[missing] = pred[missing]
    # the diagnostic: predictions against observations in usable full years
    p, o = pred[usable & ~gap].ravel(), tgt[usable & ~gap].ravel()
    corr = 1.0  # vacuous when nothing is imputed: agreement is perfect
    if gap.any():
        corr = (float(np.corrcoef(p, o)[0, 1]) if o.size > 1 and np.ptp(p) and np.ptp(o)
                else math.nan)
    filled = RegionalPanel(panel.regions, panel.years, {**panel.data, target: tgt.T},
                           meta=dict(panel.meta))
    return ImputationResult(panel=filled, correlation=corr,
                            filled_years=tuple(compress(panel.years, gap)),
                            filled_cells=int(missing.sum()))


# ---------------------------------------------------------------------------
# lags


def lag(panel: RegionalPanel, variable: str, k: int) -> np.ndarray:
    """Shift a variable k years back within each region.

    The first k years of every region come back missing; values never cross
    region boundaries. k must be a positive integer below T.
    """
    if not isinstance(k, (int, np.integer)) or isinstance(k, bool) or k <= 0:
        raise PanelError("lag order must be a positive integer")
    if k >= panel.n_years:
        raise PanelError(f"lag {k} >= panel length {panel.n_years}")
    src = panel.matrix(variable)
    out = np.full_like(src, np.nan)
    out[:, k:] = src[:, :-k]
    return out


# ---------------------------------------------------------------------------
# summaries


@dataclass(frozen=True)
class VariableStats:
    count: int
    mean: float
    sd: float
    min: float
    max: float


@dataclass(frozen=True)
class DescriptiveStats:
    """Per-variable count/mean/sd/min/max (sd with ddof=1). Building one checks every record:
    finite, min <= mean <= max, sd >= 0, sd 0 where min = max, and a name that is a
    non-empty str equal to its own strip(), which ``to_csv`` quotes where it holds a
    comma, a quote or a line end; else PanelError names it."""

    variables: dict
    columns = ("name", "count", "mean", "sd", "min", "max")

    def __post_init__(self):
        for name, st in self.variables.items():
            _check_name(name, "stats name")
            if not (-math.inf < st.min <= st.mean <= st.max < math.inf
                    and 0 <= st.sd < math.inf and (st.min < st.max or st.sd == 0)):
                raise PanelError(f"inconsistent stats for {name!r}")

    def names(self) -> tuple:
        return tuple(self.variables)

    def get(self, name: str) -> VariableStats:
        try:
            return self.variables[name]
        except KeyError:
            raise PanelError(f"no descriptive statistics for {name!r}") from None

    def rows(self) -> list:
        """One dict per variable, keyed by ``columns``."""
        return [{"name": name, **asdict(st)} for name, st in self.variables.items()]

    def to_csv(self) -> str:
        """The CSV that ``from_csv`` reads, floats at full precision (``%.17g``)."""
        return render_table(self.rows(), self.columns, "csv")

    @classmethod
    def from_csv(cls, source) -> "DescriptiveStats":
        with contextlib.closing(_read_csv(source)) as blocks:
            if next(blocks) != list(cls.columns):
                raise PanelParseError(1, "stats header must be " + ",".join(cls.columns))
            out = {}
            for lineno, (name, count, *values) in _records(blocks):
                if not name:
                    raise PanelParseError(lineno, "empty name")
                if name in out:
                    raise PanelParseError(lineno, f"duplicate row {name!r}")
                if _int_column([count]) is None:
                    raise PanelParseError(lineno, f"{name!r} count {count!r} is not an integer")
                st = VariableStats(int(count), *(_parse_float(c, lineno, f"{name!r} {k}")
                                                 for k, c in zip(cls.columns[2:], values)))
                try:  # the stats rule, checked on a one-record table
                    out |= cls({name: st}).variables
                except PanelError as exc:
                    raise PanelParseError(lineno, str(exc)) from None
        return cls(variables=out)


def descriptive_stats(panel: RegionalPanel) -> DescriptiveStats:
    """Summary statistics over non-missing cells, per variable.

    All-missing variables are skipped with a warning; an sd over 1.8e308 raises.
    """
    out = {}
    for name in panel.variables:
        col = panel.column(name)
        col = col[~np.isnan(col)]
        if col.size == 0:
            warnings.warn(f"variable {name!r} is entirely missing; excluded")
            continue
        lo, hi = float(np.min(col)), float(np.max(col))
        k = math.frexp(max(-lo, hi))[1]  # the moments of col / 2**k, exact: no sum overflows
        col = np.ldexp(col, -k)
        sd = float(np.std(col, ddof=1)) if lo < hi else 0.0  # exactly 0 for a constant
        if math.frexp(sd)[1] + k > 1024:  # sd * 2**k beyond the largest float
            raise PanelError(f"sd of {name!r} is beyond the float range")
        mean = min(max(math.ldexp(float(np.mean(col)), k), lo), hi)
        out[name] = VariableStats(int(col.size), mean, math.ldexp(sd, k), lo, hi)
    return DescriptiveStats(variables=out)


def correlation_matrix(panel: RegionalPanel, variables) -> np.ndarray:
    """Pearson correlations over listwise-complete rows of the given variables.

    Unit diagonal, symmetric; a variable with no variance on the estimation
    rows raises naming it.
    """
    names = list(variables)
    if len(names) < 2:
        raise PanelError("correlation matrix needs at least 2 variables")
    cols = np.column_stack([panel.column(n) for n in names])
    keep = ~np.isnan(cols).any(axis=1)
    cols = cols[keep]
    if cols.shape[0] < 2:
        raise PanelError("fewer than 2 complete observations")
    for i, n in enumerate(names):
        if np.unique(cols[:, i]).size < 2:
            raise PanelError(f"variable {n!r} has no variance on complete rows")
    corr = np.corrcoef(cols, rowvar=False)
    corr = (corr + corr.T) / 2.0
    np.fill_diagonal(corr, 1.0)
    return corr
