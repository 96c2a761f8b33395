"""Columnar tables and their one writer, for csv, gnuplot and json.

A table is a header plus one column per field (a numpy array, list, tuple or
range), all of one length. It is written in blocks of ``BLOCK_ROWS`` rows: in
each block every column is formatted once, by a C-level map when its cells
share one type, and the lines are joined, so no whole table's text is held.
The bytes are those of the former cell-by-cell writers: ``csv.writer`` and
space-joined lines over ``repr`` for floats, ``1``/``0`` for bools and ``str``
otherwise; ``json.dump(records, indent=2)`` for json.
"""

from __future__ import annotations

import csv
import json
import math
import re
from json.encoder import encode_basestring_ascii
from typing import NamedTuple, Sequence

import numpy as np

BLOCK_ROWS = 1 << 10
SUFFIXES = {"csv": ".csv", "gnuplot": ".dat", "json": ".json"}


class Table(NamedTuple):
    """One output table: ``columns`` holds one sequence per ``header`` field."""

    name: str
    header: Sequence[str]
    columns: Sequence


def transpose(rows: list, width: int) -> list:
    """The ``width`` columns of a list of rows of that width."""
    return list(zip(*rows)) or [()] * width


def _text_cell(value) -> str:
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


_needs_quotes = re.compile('[,"\r\n]').search


def _csv_field(text: str) -> str:
    """``text`` quoted as ``csv.writer`` quotes it: only with a comma, a quote or a line break."""
    return '"' + text.replace('"', '""') + '"' if _needs_quotes(text) else text


# Per format: the formatter of a block whose cells share one type, by type,
# and the cell-by-cell fallback for mixed or other types.
_BOOL_TEXT = {True: "1", False: "0"}.__getitem__
_FORMATTERS = {
    "csv": (
        {float: float.__repr__, int: int.__repr__, bool: _BOOL_TEXT, str: _csv_field},
        lambda value: _csv_field(_text_cell(value)),
    ),
    "gnuplot": ({float: float.__repr__, int: int.__repr__, bool: _BOOL_TEXT, str: str}, _text_cell),
    "json": (
        {float: float.__repr__, int: int.__repr__, str: encode_basestring_ascii,
         bool: {True: "true", False: "false"}.__getitem__},
        json.dumps,
    ),
}


def _cells(column, lo: int, hi: int, fmt: str):
    """Rows ``lo:hi`` of ``column`` as strings of format ``fmt``."""
    cells = column[lo:hi]
    if isinstance(cells, np.ndarray):
        cells = cells.tolist()  # Python scalars, one type per array
    kinds = set(map(type, cells))
    kind = kinds.pop() if len(kinds) == 1 else None
    if fmt == "json" and kind is float and not all(map(math.isfinite, cells)):
        kind = None  # json.dumps spells NaN and the infinities
    by_kind, fallback = _FORMATTERS[fmt]
    return map(by_kind.get(kind, fallback), cells)


def write_table(path, table: Table, fmt: str) -> None:
    """Write ``table`` to ``path`` as ``fmt``: ``"csv"``, ``"gnuplot"`` or ``"json"``.

    Raises ``ValueError`` for an unknown format, or unless there is one
    column per header field and all columns have one length.
    """
    if fmt not in SUFFIXES:
        raise ValueError(f"unknown format {fmt!r}")
    header, columns = list(table.header), table.columns
    lengths = [len(c) for c in columns]
    if len(columns) != len(header) or len(set(lengths)) > 1:
        raise ValueError(f"table {table.name!r}: {len(header)} fields, column lengths {lengths}")
    n_rows = lengths[0] if lengths else 0
    if fmt == "json":
        keys = (json.dumps(name).replace("%", "%%") for name in header)
        line = "{" + ",".join(f"\n    {key}: %s" for key in keys) + "\n  }"
    else:
        sep, end = (",", "\r\n") if fmt == "csv" else (" ", "\n")
        line = sep.join(["%s"] * len(header)) + end
    with open(path, "w", newline="" if fmt == "csv" else None) as fh:
        if fmt == "csv":
            csv.writer(fh).writerow(header)
        elif fmt == "gnuplot":
            fh.write("# " + " ".join(header) + "\n")
        opening = "[\n  "
        for lo in range(0, n_rows, BLOCK_ROWS):
            rows = zip(*[_cells(c, lo, lo + BLOCK_ROWS, fmt) for c in columns])
            if fmt == "json":
                fh.write(opening + ",\n  ".join(map(line.__mod__, rows)))
                opening = ",\n  "
            else:
                if fmt == "csv" and len(header) == 1:  # csv.writer quotes a lone empty field
                    rows = ((cell or '""',) for (cell,) in rows)
                fh.write("".join(map(line.__mod__, rows)))
        if fmt == "json":
            fh.write("\n]" if n_rows else "[]")
