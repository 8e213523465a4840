"""Deterministic CSV/JSON emission of tables.

A table comes in two shapes, both written a line or object per row:

- a column table, a dict from each column name to its cells, every column of
  the same length, its keys in order the header; it is written cell by cell
  (the claims report, the boundary and clone-audit rows and the study tables,
  at most a few dozen rows each);
- a ``GridTable``, its grids and its block of values, one per point of the
  product of the grids (the sweep). Each grid point's text is made once, and
  the rows are one ``%`` of a template built from those texts, with two
  ``%s`` slots per value.

A CSV value ``v`` with ``1e-4 <= |v| < 1`` (most of a sweep) is written
without a dtoa call. ``"%.17g" % v`` is its sign, ``"0."``, ``-k - 1``
zeros, where ``k = floor(log10 |v|)``, and the digits of
``n = round_half_even(|v| 10^(16 - k))`` without trailing zeros. ``k`` is
read exactly from comparisons with 1e-3, 1e-2 and 0.1, as each of those
doubles is the nearest to its power of ten and lies above it. ``n`` is
exact: the scale ``10^(16 - k)`` is at most 1e20, an exact double;
Dekker's two-product (Numer. Math. 18, 224 (1971)) gives ``hi + lo`` equal
to ``|v| 10^(16 - k)`` exactly; and ``hi``, at least ``10^16 > 2^53``, is
an even integer, so ``int64(hi) + rint(lo)`` rounds half to even. The
slots take ``(lead, n)``, the lead being the sign, ``"0."`` and the zeros;
a nan takes ``("nan", "")``; every other value takes ``("%.17g" % v, "")``,
as would one whose ``n`` rounded up to ``10^17`` (printed with one zero
fewer). No double does: the largest double below each of 1e-3, 1e-2, 0.1
and 1 is smaller by more than 8e-17 of it, and rounding up needs less than
5e-18. The check is kept, so that exactness does not rest on that.

Both shapes give the same text for the same rows. Numbers are written with
17 significant digits so files round-trip to the exact float64 values;
output is fully deterministic (no timestamps).
"""

import csv
import functools
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


_FLOAT_TEXT = "%.17g"  # format(v, ".17g")'s text, also for np.float64, and faster


def _fmt(v):
    return _FLOAT_TEXT % v if isinstance(v, float) else str(v)


def _csv_quoting_chars():
    """Those of ',', '"', '\\n' and '\\r' that make the running csv module's
    writer (``lineterminator="\\n"``) quote a field that holds them."""
    lines = []
    w = csv.writer(SimpleNamespace(write=lines.append), lineterminator="\n")
    for c in ',"\n\r':
        w.writerow([c, ""])
    return tuple(c for c, line in zip(',"\n\r', lines) if line.startswith('"'))


_CSV_QUOTING = _csv_quoting_chars()


def _csv_cell(v):
    """``_fmt(v)`` as the csv module writes it as a field of a row: quoted,
    its quotes doubled, when it holds a character of ``_CSV_QUOTING``, and
    bare otherwise. The module writes a row of one empty field, and only
    that row, as ``""``."""
    text = _fmt(v)
    for c in _CSV_QUOTING:
        if c in text:
            return '"' + text.replace('"', '""') + '"'
    return text


# JSON text of the floats whose repr is not JSON, nan as null
_JSON_FLOATS = {"nan": "null", "inf": "Infinity", "-inf": "-Infinity"}


def _json_cell(v):
    """The JSON text of a cell, as ``json.dumps`` writes it, nan as null."""
    if isinstance(v, float):
        text = float.__repr__(v)  # as json writes it, also for np.float64
        return _JSON_FLOATS.get(text, text)
    if isinstance(v, str):
        return _json_str(v)
    if type(v) is int:  # not bool, whose repr is not JSON
        return int.__repr__(v)  # as json writes it
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


# 10^(16 - k) for k = -4..-1, and its halves of at most 26 bits for Dekker's product
_SCALES = np.array([1e20, 1e19, 1e18, 1e17])
_SPLIT = 2.0**27 + 1  # Veltkamp's splitting constant
_SCALES_HI = _SCALES * _SPLIT - (_SCALES * _SPLIT - _SCALES)
_SCALES_LO = _SCALES - _SCALES_HI
_K_BOUNDS = np.array([1e-3, 1e-2, 0.1])  # each the double just above its power of ten
_NAN, _OTHER = 8, 9  # slot codes after those of the leads, 4 sign + k + 4
_LEADS = np.array([sign + "0." + "0" * zeros for sign in ("", "-") for zeros in (3, 2, 1, 0)]
                  + ["nan", None], dtype=object)


def _value_codes(values):
    """Each value's slot code, and its digits where the code is a lead's.

    A lead's code is ``4 sign + k + 4``, and the digits are ``n`` without
    its trailing zeros (see the module docstring); the digits of a nan
    (``_NAN``) or of any other value (``_OTHER``) are 0.
    """
    a = np.abs(values)
    at = np.flatnonzero((a >= 1e-4) & (a < 1.0))
    x = a[at]
    i = np.searchsorted(_K_BOUNDS, x, side="right")  # k + 4
    hi = x * _SCALES[i]
    xc = x * _SPLIT
    xh = xc - (xc - x)
    xl = x - xh
    sh, sl = _SCALES_HI[i], _SCALES_LO[i]
    lo = ((xh * sh - hi) + xh * sl + xl * sh) + xl * sl
    n = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    kept = n < 10**17  # n >= 10^16, as k is exact
    at, i, n = at[kept], i[kept], n[kept]
    tens = np.flatnonzero(n % 10 == 0)
    m = n[tens]
    for p in (10**16, 10**8, 10**4, 10**2, 10):  # up to 16 zeros
        q, r = np.divmod(m, p)
        m = np.where(r == 0, q, m)
    n[tens] = m
    codes = np.full(values.size, _OTHER)
    codes[np.isnan(values)] = _NAN
    codes[at] = i + 4 * np.signbit(values[at])
    digits = np.zeros(values.size, dtype=np.int64)
    digits[at] = n
    return codes, digits


def _csv_value_slots(values):
    """The two ``%s`` slot values of each float of ``values``, in order.

    The two of ``v`` print ``"%.17g" % v``; see the module docstring.
    """
    codes, digits = _value_codes(values)
    slots = [None] * (2 * values.size)
    slots[::2] = _LEADS[codes].tolist()
    slots[1::2] = digits.tolist()
    for j in np.flatnonzero(codes >= _NAN).tolist():
        slots[2 * j + 1] = ""
    other = np.flatnonzero(codes == _OTHER)
    for j, v in zip(other.tolist(), values[other].tolist()):
        slots[2 * j] = _FLOAT_TEXT % v  # _fmt's text, which needs no quotes
    return slots


def _grid_to_csv(table):
    keys = [[f"{field},".replace("%", "%%") for field in map(_csv_cell, grid)]
            for grid in table.axes.values()]
    # the slots before the template: made after it, their temporaries left the
    # heap about 2 MB larger on a 50x50x5 sweep
    slots = tuple(_csv_value_slots(table.block.ravel()))
    return _grid_template(keys, "%s%s", "\n", "") % slots


def _grid_to_json(table):
    keys = [[f"    {_json_str(name)}: {_json_cell(cell)},\n".replace("%", "%%") for cell in grid]
            for name, grid in table.axes.items()]
    keys[0] = ["  {\n" + t for t in keys[0]]
    keys[-1] = [t + f"    {_json_str(table.value_name)}: ".replace("%", "%%") for t in keys[-1]]
    get = _JSON_FLOATS.get
    texts = [get(t, t) for t in map(float.__repr__, table.block.ravel().tolist())]
    return _grid_template(keys, "%s", "\n  }", ",\n") % tuple(texts)


@functools.lru_cache(maxsize=64)
def _object_template(names):
    """A column table's row object as one ``%`` template, a slot per column."""
    fields = ",\n".join(f"    {_json_str(name)}: ".replace("%", "%%") + "%s" for name in names)
    return "  {\n" + fields + "\n  }"


def table_to_csv(table):
    """CSV text of ``table``: the header, then a line per row.

    The text equals what the csv module's writer (``lineterminator="\\n"``)
    makes of ``_fmt`` of each column name and then of each cell, row by row:
    the header is a row like any other, and a table of no columns is one
    empty line. Raises ValueError when the columns differ in length.
    """
    grid = isinstance(table, GridTable)
    columns = ([(name,) for name in (*table.axes, table.value_name)] if grid
               else [(name, *cells) for name, cells in table.items()])
    rows = zip(*(map(_csv_cell, cells) for cells in columns), strict=True)
    lines = [(",".join(row) or '""') + "\n" for row in rows] or ["\n"]
    if grid:
        lines.append(_grid_to_csv(table))
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
        template = _object_template(tuple(table))
        rows = zip(*(map(_json_cell, cells) for cells in table.values()), strict=True)
        objects = ",\n".join(template % row for row in rows)
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
