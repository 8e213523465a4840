"""Deterministic CSV/JSON emission of tables.

A table is a dict that maps each column name to a list of cells, every column
of the same length; its keys, in order, are the header. Numbers are written
with 17 significant digits so files round-trip to the exact float64 values;
output is fully deterministic (no timestamps).
"""

import csv
import json
import math
import sys
from itertools import repeat
from types import SimpleNamespace

import numpy as np


def _fmt(v):
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def _jsonable(v):
    if isinstance(v, float) and math.isnan(v):
        return None
    return v


def _csv_fields(texts, sole_field):
    """Each text as the csv module writes it as one field of a row.

    csv quotes a row's only field when that field is empty, so for a table of
    one column each text is written alone, otherwise beside an empty field.
    """
    lines = []
    w = csv.writer(SimpleNamespace(write=lines.append), lineterminator="\n")
    pad = () if sole_field else ("",)
    for t in texts:
        w.writerow((t, *pad))
    return [line[:-1 - len(pad)] for line in lines]


def _csv_column(cells, sole_field):
    """The CSV field of each cell: ``_fmt`` text, quoted as csv quotes it."""
    if all(map(isinstance, cells, repeat(float))):
        # Format each distinct float64 bit pattern once. Not each value: 0.0 ==
        # -0.0, yet they print "0" and "-0". "%.17g" % v equals format(v,
        # ".17g"), and its digits, sign, ".", "e", "inf" and "nan" need no quotes.
        bits, inverse = np.unique(np.array(cells, dtype=float).view(np.int64),
                                  return_inverse=True)
        texts = list(map("%.17g".__mod__, bits.view(float).tolist()))
        return np.array(texts, dtype=object)[inverse].tolist()
    texts = [_fmt(v) for v in cells]
    distinct = dict.fromkeys(texts)
    quoted = dict(zip(distinct, _csv_fields(distinct, sole_field)))
    return [quoted[t] for t in texts]


def table_to_csv(table):
    """CSV text of ``table``: the header, then a line per row.

    Built a column at a time and joined into lines once. The text equals what
    the csv module's writer (``lineterminator="\\n"``) makes of the header and
    then of ``_fmt`` of each cell, row by row. Raises ValueError when the
    columns differ in length.
    """
    sole_field = len(table) == 1
    columns = [_csv_column(cells, sole_field) for cells in table.values()]
    lines = [",".join(_csv_fields(table, sole_field)),
             *map(",".join, zip(*columns, strict=True))]
    return "\n".join(lines) + "\n"


def table_to_json(table):
    """JSON text of ``table``: a list of one object per row, nan as null.

    Raises ValueError when the columns differ in length.
    """
    data = [dict(zip(table, map(_jsonable, row)))
            for row in zip(*table.values(), strict=True)]
    return json.dumps(data, indent=2) + "\n"


def emit_rows(table, fmt, destination):
    """Write a table as CSV or JSON to a path, or stdout when destination is '-'."""
    if fmt == "csv":
        text = table_to_csv(table)
    elif fmt == "json":
        text = table_to_json(table)
    else:
        raise ValueError(f"unknown format {fmt!r}")
    if destination == "-":
        sys.stdout.write(text)
        return
    try:
        with open(destination, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as e:
        raise OSError(f"cannot write report to {destination}: {e}") from e
