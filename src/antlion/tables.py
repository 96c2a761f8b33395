"""Columnar tables and their one writer, for csv, gnuplot and json.

A table is a header plus one column per field (a numpy array, list, range,
:class:`Coded` column or other sliceable sequence), all of one length. Tables
are written together in blocks of ``BLOCK_ROWS`` rows: in each block every
column object is formatted once, by a C-level map when its cells share one
type, and the lines are joined, so no whole table's text is held. The bytes
are those of the former cell-by-cell writers: ``csv.writer`` and
space-joined lines over ``repr`` for floats, ``1``/``0`` for bools and
``str`` otherwise; ``json.dump(records, indent=2)`` for json.
"""

from __future__ import annotations

import csv
import json
import math
import re
from contextlib import ExitStack
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


class Coded:
    """A column whose row ``i`` is ``labels[codes[i]]``: each label is
    formatted once per write. Codes must lie in ``range(len(labels))``."""

    def __init__(self, codes, labels: Sequence):
        self.codes, self.labels = np.asarray(codes), labels
        if self.codes.size and not 0 <= self.codes.min() <= self.codes.max() < len(labels):
            raise ValueError(f"codes must lie in range({len(labels)})")

    def __len__(self) -> int:
        return len(self.codes)


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


def _begin(fh, header: Sequence[str], fmt: str) -> list:
    """Write the head of a table with fields ``header`` to ``fh``; return
    the ``len(header) + 1`` text pieces around the cells of one of its rows.
    A json row's last piece ends in the row separator."""
    if fmt == "json":
        fh.write("[")
        pieces = [f",\n    {json.dumps(name)}: " for name in header] + ["\n  },"]
        return ["\n  {" + pieces[0].removeprefix(",")] + pieces[1:]
    if fmt == "csv":
        csv.writer(fh).writerow(header)
    else:
        fh.write("# " + " ".join(header) + "\n")
    sep, end = (",", "\r\n") if fmt == "csv" else (" ", "\n")
    return [""] + [sep] * (len(header) - 1) + [end] if header else [end]


def write_tables(items: Sequence, fmt: str) -> None:
    """Write each ``(path, table)`` of ``items`` as ``fmt``: ``"csv"``,
    ``"gnuplot"`` or ``"json"``.

    The tables are written together, a block of rows at a time, and may
    differ in length; a column object that several of them hold is
    formatted once per block. Raises ``ValueError``, before any file is
    opened, for an unknown format or unless every table has one column per
    header field, all of one length.
    """
    if fmt not in SUFFIXES:
        raise ValueError(f"unknown format {fmt!r}")
    for _, (name, header, columns) in items:
        lengths = [len(c) for c in columns]
        if len(columns) != len(header) or len(set(lengths)) > 1:
            raise ValueError(f"table {name!r}: {len(header)} fields, column lengths {lengths}")
    labels = {id(c.labels): c.labels for _, t in items for c in t.columns if isinstance(c, Coded)}
    labels = {key: list(_cells(values, 0, len(values), fmt)) for key, values in labels.items()}

    def cells(column, lo: int) -> list:
        """Rows ``lo:lo + BLOCK_ROWS`` as text, read by every table that holds the column."""
        if isinstance(column, Coded):
            codes = column.codes[lo : lo + BLOCK_ROWS].tolist()
            return list(map(labels[id(column.labels)].__getitem__, codes))
        return list(_cells(column, lo, lo + BLOCK_ROWS, fmt))

    with ExitStack() as stack:
        tables = []  # (file, columns, rows, one row's pieces with a slot per cell)
        for path, (_, header, columns) in items:
            fh = stack.enter_context(open(path, "w", newline="" if fmt == "csv" else None))
            n_rows = len(columns[0]) if columns else 0
            row = [text for piece in _begin(fh, header, fmt) for text in (piece, None)][:-1]
            tables.append((fh, columns, n_rows, row))
        for lo in range(0, max((n_rows for *_, n_rows, _ in tables), default=0), BLOCK_ROWS):
            live = [table for table in tables if lo < table[2]]
            block = {id(c): c for _, columns, _, _ in live for c in columns}
            block = {key: cells(c, lo) for key, c in block.items()}
            for fh, columns, n_rows, row in live:
                out = row * min(BLOCK_ROWS, n_rows - lo)
                for j, column in enumerate(columns):
                    column_text = block[id(column)]
                    if fmt == "csv" and len(columns) == 1:  # csv.writer quotes a lone empty field
                        column_text = [cell or '""' for cell in column_text]
                    out[2 * j + 1 :: len(row)] = column_text
                text = "".join(out)
                fh.write(text[:-1] if fmt == "json" and lo + BLOCK_ROWS >= n_rows else text)
            del out, text  # so the next block's text is not held beside this one's
        if fmt == "json":
            for fh, _, n_rows, _ in tables:
                fh.write("\n]" if n_rows else "]")
