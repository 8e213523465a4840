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
from json.encoder import encode_basestring_ascii as _json_str  # json.dumps of a str
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


def _is_float_column(cells):
    return all(map(isinstance, cells, repeat(float)))


def _float_column(cells, fmt):
    """``fmt`` of each float cell, called once per distinct float64 bit pattern.

    Not once per value: 0.0 == -0.0, yet they print "0" and "-0".
    """
    bits, inverse = np.unique(np.array(cells, dtype=float).view(np.int64),
                              return_inverse=True)
    texts = list(map(fmt, bits.view(float).tolist()))
    return np.array(texts, dtype=object)[inverse].tolist()


def _csv_column(cells, sole_field):
    """The CSV field of each cell: ``_fmt`` text, quoted as csv quotes it."""
    if _is_float_column(cells):
        # "%.17g" % v equals format(v, ".17g"), and its digits, sign, ".", "e",
        # "inf" and "nan" need no quotes
        return _float_column(cells, "%.17g".__mod__)
    # ``_fmt`` of a str (not of a subclass, whose str() may differ) is itself
    texts = cells if set(map(type, cells)) == {str} else [_fmt(v) for v in cells]
    distinct = dict.fromkeys(texts)
    quoted = dict(zip(distinct, _csv_fields(distinct, sole_field)))
    return list(map(quoted.__getitem__, texts))


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


# JSON text of the floats whose repr is not JSON, nan as null
_JSON_FLOATS = {"nan": "null", "inf": "Infinity", "-inf": "-Infinity"}

# Below this many cells a JSON float column is written cell by cell: finding
# the distinct values costs about as much as formatting 20-30 cells of one
# value, and more than a column of distinct values ever saves; with it the
# one-row clone-audit table would take several times as long as json.dumps.
_DEDUPE_MIN_CELLS = 32


def _json_float(v):
    text = float.__repr__(v)  # as json writes it, also for np.float64
    return _JSON_FLOATS.get(text, text)


def _json_column(cells):
    """The JSON text of each cell, as ``json.dumps`` writes ``_jsonable`` of it."""
    if _is_float_column(cells):
        if len(cells) < _DEDUPE_MIN_CELLS:
            return list(map(_json_float, cells))
        return _float_column(cells, _json_float)
    if all(map(isinstance, cells, repeat(str))):
        texts = {t: _json_str(t) for t in dict.fromkeys(cells)}
        return [texts[t] for t in cells]
    return [json.dumps(_jsonable(v)) for v in cells]


def table_to_json(table):
    """JSON text of ``table``: a list of one object per row, nan as null.

    Built a column at a time; the text equals ``json.dumps(rows, indent=2)``
    of one dict per row, then a newline. Column names are strings. Raises
    ValueError when the columns differ in length.
    """
    columns = [_json_column(cells) for cells in table.values()]
    fields = ",\n".join(f"    {_json_str(name)}: ".replace("%", "%%") + "%s"
                        for name in table)
    template = "  {\n" + fields + "\n  }"
    objects = [template % row for row in zip(*columns, strict=True)]
    if not objects:
        return "[]\n"
    return "[\n" + ",\n".join(objects) + "\n]\n"


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
