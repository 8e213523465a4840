import csv
import io
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from entbroadcast.report import _fmt, rows_to_csv


def reference_csv(rows, fieldnames):
    """The row-at-a-time writer that ``rows_to_csv`` must match byte for byte."""
    buf = io.StringIO()
    w = csv.DictWriter(buf, fieldnames=fieldnames, lineterminator="\n")
    w.writeheader()
    for r in rows:
        w.writerow({k: _fmt(r[k]) for k in fieldnames})
    return buf.getvalue()


NAN_WITH_PAYLOAD = np.array(0x7FF8000000000001, dtype=np.int64).view(np.float64).item()
SPECIAL_FLOATS = [0.0, -0.0, math.nan, -math.nan, NAN_WITH_PAYLOAD, math.inf, -math.inf,
                  5e-324, -5e-324, 1 / 3, 0.1, 1e300]
FLOATS = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats(),
                   st.floats().map(np.float64))
TEXT = st.text(st.sampled_from([",", '"', "\r", "\n", " ", "a", "0"]), max_size=4)
CELLS = st.one_of(FLOATS, st.integers(), st.booleans(), st.none(), TEXT)


@st.composite
def tables(draw):
    names = draw(st.lists(TEXT, min_size=1, max_size=4, unique=True))
    n = draw(st.integers(0, 12))
    # an all-float column takes the deduplicating path, any other the per-cell one
    columns = [draw(st.lists(draw(st.sampled_from([FLOATS, CELLS])), min_size=n, max_size=n))
               for _ in names]
    return [dict(zip(names, cells)) for cells in zip(*columns)], names


@settings(max_examples=150, deadline=None)
@given(tables())
def test_rows_to_csv_matches_row_writer(table):
    rows, names = table
    assert rows_to_csv(rows, names) == reference_csv(rows, names)


def test_equal_values_of_other_bits_or_types_keep_their_own_text():
    # 0.0 == -0.0 and True == 1, so neither path may share text by value
    rows = [{"x": x, "y": y} for x, y in ((0.0, True), (-0.0, 1), (0.0, 1.0), (-0.0, True))]
    assert rows_to_csv(rows, ["x", "y"]) == "x,y\n0,True\n-0,1\n0,1\n-0,True\n"
