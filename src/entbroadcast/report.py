"""Deterministic CSV/JSON emission of tables.

A table comes in two shapes, both written a line or object per row:

- a column table, a dict from each column name to its cells, every column of
  the same length, its keys in order the header; it is written cell by cell
  (the claims report, the boundary and clone-audit rows and the study tables,
  at most a few dozen rows each);
- a ``GridTable``, its grids and its block of values, one per point of the
  product of the grids (the sweep). Each grid point's text is made once, and
  all values are formatted by one ``%`` of a template built from those texts.

Both shapes give the same text for the same rows. Numbers are written with
17 significant digits so files round-trip to the exact float64 values;
output is fully deterministic (no timestamps).
"""

import csv
import json
import sys
from json.encoder import encode_basestring_ascii as _json_str  # json.dumps of a str
from types import SimpleNamespace

import numpy as np


class GridTable:
    """A table of one float value per point of a product of grids.

    ``axes`` maps each key column's name to its grid, outermost first;
    ``block`` has one axis per grid, of its length, and holds the column
    named ``value_name``. Rows run over the points as ``itertools.product``
    of the grids does; ``len()`` is their number.
    """

    def __init__(self, axes, value_name, block):
        self.axes = {name: tuple(grid) for name, grid in axes.items()}
        self.value_name = value_name
        self.block = np.asarray(block, dtype=float)
        if self.block.shape != tuple(map(len, self.axes.values())):
            raise ValueError(f"a block of shape {self.block.shape} for grids of "
                             f"lengths {tuple(map(len, self.axes.values()))}")

    def __len__(self):
        return self.block.size


def _fmt(v):
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def _csv_fields(texts):
    """Each text as the csv module writes it as a field of a row of two or more."""
    lines = []
    csv.writer(SimpleNamespace(write=lines.append), lineterminator="\n").writerows(
        (t, "") for t in texts)
    return [line[:-2] for line in lines]


# JSON text of the floats whose repr is not JSON, nan as null
_JSON_FLOATS = {"nan": "null", "inf": "Infinity", "-inf": "-Infinity"}


def _json_cell(v):
    """The JSON text of a cell, as ``json.dumps`` writes it, nan as null."""
    if isinstance(v, float):
        text = float.__repr__(v)  # as json writes it, also for np.float64
        return _JSON_FLOATS.get(text, text)
    if isinstance(v, str):
        return _json_str(v)
    return json.dumps(v)


def _grid_template(keys, slot, end, sep):
    """The rows of a grid table as one ``%`` template, a slot for each value.

    ``keys[m][i]`` is the text point ``i`` of grid ``m`` puts in each of its
    rows, with any '%' doubled. A row is its points' texts, outermost first,
    then ``slot``, then ``end``; rows are joined by ``sep``.
    """
    if not all(keys):
        return ""  # no rows
    heads = [""]
    for texts in keys[1:]:
        heads = [h + t for h in heads for t in texts]
    rows = [h + slot + end for h in heads]
    return sep.join(prefix + (sep + prefix).join(rows) for prefix in keys[0])


def _grid_to_csv(table):
    keys = [[f"{field},".replace("%", "%%") for field in _csv_fields(map(_fmt, grid))]
            for grid in table.axes.values()]
    # "%.17g" % v equals format(v, ".17g"), and needs no quotes
    return _grid_template(keys, "%.17g", "\n", "") % tuple(table.block.ravel().tolist())


def _grid_to_json(table):
    keys = [[f"    {_json_str(name)}: {_json_cell(cell)},\n".replace("%", "%%") for cell in grid]
            for name, grid in table.axes.items()]
    keys[0] = ["  {\n" + t for t in keys[0]]
    keys[-1] = [t + f"    {_json_str(table.value_name)}: ".replace("%", "%%") for t in keys[-1]]
    get = _JSON_FLOATS.get
    texts = [get(t, t) for t in map(float.__repr__, table.block.ravel().tolist())]
    return _grid_template(keys, "%s", "\n  }", ",\n") % tuple(texts)


def table_to_csv(table):
    """CSV text of ``table``: the header, then a line per row.

    The text equals what the csv module's writer (``lineterminator="\\n"``)
    makes of the header and then of ``_fmt`` of each cell, row by row.
    Raises ValueError when the columns differ in length.
    """
    lines = []
    w = csv.writer(SimpleNamespace(write=lines.append), lineterminator="\n")
    if isinstance(table, GridTable):
        w.writerow([*table.axes, table.value_name])
        lines.append(_grid_to_csv(table))
    else:
        w.writerow(table)
        w.writerows(zip(*(map(_fmt, cells) for cells in table.values()), strict=True))
    return "".join(lines)


def table_to_json(table):
    """JSON text of ``table``: a list of one object per row, nan as null.

    The text equals ``json.dumps(rows, indent=2)`` of one dict per row, then
    a newline. Column names are strings. Raises ValueError when the columns
    differ in length.
    """
    if isinstance(table, GridTable):
        objects = _grid_to_json(table)
    else:
        columns = [list(map(_json_cell, cells)) for cells in table.values()]
        fields = ",\n".join(f"    {_json_str(name)}: ".replace("%", "%%") + "%s"
                            for name in table)
        template = "  {\n" + fields + "\n  }"
        objects = ",\n".join(template % row for row in zip(*columns, strict=True))
    if not objects:
        return "[]\n"
    return "[\n" + objects + "\n]\n"


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
