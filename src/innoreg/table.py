"""The one table renderer, as CSV, JSON or markdown; it imports no numpy."""

import json
import math
from itertools import repeat

_MD_CELL = str.maketrans({"\\": "\\\\", "|": "\\|", "\r": " ", "\n": " "})


def markdown_table(header, body) -> str:
    """Markdown pipe table of a header row and body rows of cell text, a cell's
    ``\\`` written ``\\\\``, its ``|`` ``\\|`` and each line end a space: one
    cell per column, each read back as its text."""
    rule = "|" + "|".join("---" for _ in header) + "|"
    lines = ["| " + " | ".join(c.replace("\r\n", "\n").translate(_MD_CELL) for c in row)
             + " |" for row in (header, *body)]
    return "\n".join([lines[0], rule, *lines[1:]])


def _csv_cell(value) -> str:
    """``str(value)`` as a CSV cell: quoted, each quote doubled, where it holds a
    comma, a quote, a line feed or a carriage return (RFC 4180 §2.6)."""
    text = str(value)
    if "," in text or '"' in text or "\n" in text or "\r" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def render_table(rows, columns, fmt: str) -> str:
    """Text of a list of row dicts as ``csv``, ``json`` or ``md``.

    CSV has a header of ``columns`` and writes floats as ``%.17g``, so it
    carries full precision; a column a row lacks is an empty cell. Any other
    cell is a ``_csv_cell``: ``csv.reader`` reads each cell back as written.
    JSON writes each row's own keys at full precision with NaN and ±inf as
    ``null``, so it stays standard JSON. Markdown shows ``columns`` with
    floats rounded to 4 decimals, through ``markdown_table``.
    """
    if fmt == "json":
        return json.dumps([{k: None if isinstance(v, float) and not math.isfinite(v)
                            else v for k, v in r.items()} for r in rows],
                          indent=2) + "\n"
    float_text, text = ("%.4f", str) if fmt == "md" else ("%.17g", _csv_cell)
    body = [[float_text % v if isinstance(v, float) else text(v)
             for v in map(r.get, columns, repeat(""))] for r in rows]
    if fmt == "md":
        return markdown_table(columns, body) + "\n"
    # the one empty cell of a one-cell row is quoted: an empty line reads as no cells
    return "".join('""\n' if row == [""] else ",".join(row) + "\n"
                   for row in (list(map(_csv_cell, columns)), *body))
