import csv
import io
import json
import math
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from entbroadcast import report
from entbroadcast.report import (
    _SCALES,
    _SCALES_HI,
    _SCALES_LO,
    GridTable,
    _fmt,
    emit_rows,
    table_to_csv,
    table_to_json,
)
from entbroadcast.sweep import QUANTITIES, parse_grid, run_sweep


def as_rows(table):
    return [dict(zip(table, cells)) for cells in zip(*table.values())]


def reference_csv(rows, fieldnames):
    """The row-at-a-time writer that ``table_to_csv`` must match byte for byte."""
    buf = io.StringIO()
    w = csv.DictWriter(buf, fieldnames=fieldnames, lineterminator="\n")
    w.writeheader()
    for r in rows:
        w.writerow({k: _fmt(r[k]) for k in fieldnames})
    return buf.getvalue()


def _jsonable(v):
    if isinstance(v, float) and math.isnan(v):
        return None
    return v


def reference_json(rows, fieldnames):
    """The row-at-a-time writer that ``table_to_json`` must match byte for byte."""
    return json.dumps([{k: _jsonable(r[k]) for k in fieldnames} for r in rows],
                      indent=2) + "\n"


NAN_WITH_PAYLOAD = np.array(0x7FF8000000000001, dtype=np.int64).view(np.float64).item()
SPECIAL_FLOATS = [0.0, -0.0, math.nan, -math.nan, NAN_WITH_PAYLOAD, math.inf, -math.inf,
                  5e-324, -5e-324, 1 / 3, 0.1, 1e300]
# the last two reach the CSV writer's exact route for 1e-4 <= |v| < 1
FLOATS = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats(),
                   st.floats().map(np.float64),
                   st.floats(1e-4, 1, exclude_max=True),
                   st.floats(-1, -1e-4, exclude_min=True))
TEXT = st.text(st.sampled_from([",", '"', "\r", "\n", " ", "a", "0", "%"]), max_size=4)
CELLS = st.one_of(FLOATS, st.integers(), st.booleans(), st.none(), TEXT)


@st.composite
def tables(draw):
    names = draw(st.lists(TEXT, min_size=1, max_size=4, unique=True))
    n = draw(st.integers(0, 12))
    # columns of floats, of text, and of any mix of cells
    columns = [draw(st.lists(draw(st.sampled_from([FLOATS, TEXT, CELLS])),
                             min_size=n, max_size=n))
               for _ in names]
    return dict(zip(names, columns))


@settings(max_examples=150, deadline=None)
@given(tables())
def test_table_to_csv_matches_row_writer(table):
    assert table_to_csv(table) == reference_csv(as_rows(table), list(table))


@settings(max_examples=150, deadline=None)
@given(tables())
def test_table_to_json_matches_row_writer(table):
    assert table_to_json(table) == reference_json(as_rows(table), list(table))


def test_equal_values_of_other_bits_or_types_keep_their_own_text():
    # 0.0 == -0.0 and True == 1, so neither path may share text by value
    table = {"x": [0.0, -0.0, 0.0, -0.0], "y": [True, 1, 1.0, True]}
    assert table_to_csv(table) == "x,y\n0,True\n-0,1\n0,1\n-0,True\n"
    assert table_to_json(table) == reference_json(as_rows(table), list(table))


@pytest.mark.parametrize("table, text", [
    # a field holding '\r': CPython 3.11's csv module leaves it bare, and
    # the text follows whatever the running module does (None: no fixed text)
    ({"a": ["x\ry", "\r"], "b": [0.5, "\r\n"]}, None),
    ({"a": ["p\nq", 'say "hi"', "1,2"], "b": [",", '"', "\n"]},
     'a,b\n"p\nq",","\n"say ""hi""",""""\n"1,2","\n"\n'),
    ({"a": ["", "x", ""], "b": ["", "", 1.0]}, "a,b\n,\nx,\n,1\n"),
    ({"a": [""]}, 'a\n""\n'),  # a lone empty field, as the writer writes it
    ({"a": ["", "x,y"]}, 'a\n""\n"x,y"\n'),
])
def test_fields_a_fuzzer_finds_only_by_chance(table, text):
    written = table_to_csv(table)
    assert written == reference_csv(as_rows(table), list(table))
    assert text is None or written == text


def test_quoting_follows_the_probed_characters(monkeypatch):
    # every csv module quotes ',', '"' and '\n'; '\r' as the running one does
    assert {",", '"', "\n"} <= set(report._CSV_QUOTING) <= {",", '"', "\n", "\r"}
    monkeypatch.setattr(report, "_CSV_QUOTING", (",", '"', "\n", "\r"))
    assert table_to_csv({"a": ["x\ry", "z"], "b": [1.0, "\r"]}) == 'a,b\n"x\ry",1\nz,"\r"\n'


class _Shouting(str):
    def __str__(self):
        return self.upper()


def test_str_subclass_keeps_its_own_text():
    # a column of str subclasses is not all str: each cell keeps _fmt's text
    table = {"q": [_Shouting("a,b"), "a,b", _Shouting("c")] * 12}
    for write, reference in ((table_to_csv, reference_csv), (table_to_json, reference_json)):
        assert write(table) == reference(as_rows(table), list(table))
    assert table_to_csv(table).startswith('q\n"A,B"\n"a,b"\nC\n')


@pytest.mark.parametrize("write", [table_to_csv, table_to_json])
@pytest.mark.parametrize("table", [{"x": [1.0, 2.0], "y": ["a"]},
                                   {"x": [], "y": [None]},
                                   {"x": [1.0], "y": ["a", "b"]}])
def test_columns_of_unequal_length_raise(write, table):
    with pytest.raises(ValueError):
        write(table)


def test_unknown_format_raises(capsys):
    with pytest.raises(ValueError, match="unknown format 'xml'"):
        emit_rows({"x": [1.0]}, "xml", "-")
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("write, reference", [(table_to_csv, reference_csv),
                                              (table_to_json, reference_json)])
def test_long_float_columns_match_row_writer(write, reference):
    # each special float many times in a column, as float and as np.float64
    cells = SPECIAL_FLOATS + [np.float64(v) for v in SPECIAL_FLOATS]
    table = {"x": cells * 3, "y": cells[::-1] * 3, "z": ["a,b", "c"] * (len(cells) * 3 // 2)}
    assert write(table) == reference(as_rows(table), list(table))


def grid_case(names, xis, alpha_sqs, quantities, values):
    """A grid table of three axes, and its rows built without it."""
    points = list(product(xis, alpha_sqs, quantities))
    rows = [dict(zip(names, (*point, v))) for point, v in zip(points, values, strict=True)]
    shape = (len(xis), len(alpha_sqs), len(quantities))
    table = GridTable(dict(zip(names, (xis, alpha_sqs, quantities))), names[3],
                      np.array(values, dtype=float).reshape(shape))
    return table, rows


@st.composite
def grid_cases(draw):
    names = draw(st.lists(TEXT, min_size=4, max_size=4, unique=True))
    xis = draw(st.lists(FLOATS, max_size=4))
    alpha_sqs = draw(st.lists(FLOATS, max_size=4))
    quantities = draw(st.lists(CELLS, min_size=1, max_size=3))
    n = len(xis) * len(alpha_sqs) * len(quantities)
    return grid_case(names, xis, alpha_sqs, quantities,
                     draw(st.lists(FLOATS, min_size=n, max_size=n)))


SWEEP_NAMES = ["xi", "alpha_sq", "quantity", "value"]


@settings(max_examples=150, deadline=None)
@given(grid_cases())
@example(grid_case(SWEEP_NAMES, [0.2], [0.5], ["bellM"], [math.nan]))
@example(grid_case(SWEEP_NAMES, [0.0, -0.0, 0.0], [-0.0, np.float64(0.5), -0.0],
                   ["q", "q%s", "q"],
                   (SPECIAL_FLOATS + [np.float64(v) for v in SPECIAL_FLOATS] * 2)[:27]))
def test_grid_table_matches_row_writer(case):
    # written from its grids, and as the column table of its rows
    table, rows = case
    names = [*table.axes, table.value_name]
    columns = {name: [row[name] for row in rows] for name in names}
    assert len(table) == len(rows)
    for write, reference in ((table_to_csv, reference_csv), (table_to_json, reference_json)):
        assert write(table) == reference(rows, names)
        assert write(columns) == reference(rows, names)


def test_grid_table_rejects_a_block_not_of_the_grids_shape():
    with pytest.raises(ValueError, match=r"shape \(3,\) for grids of lengths \(2,\)"):
        GridTable({"xi": [0.1, 0.2]}, "value", [1.0, 2.0, 3.0])


# -- the CSV writer's exact route for 1e-4 <= |v| < 1 --------------------------

def assert_written_as_dtoa(values):
    """Each value's text in a sweep-shaped CSV is ``"%.17g" % v``, byte for byte."""
    values = np.asarray(values, dtype=float)
    text = table_to_csv(GridTable({"i": range(values.size)}, "v", values))
    want = "".join(f"{i},{'%.17g' % v}\n" for i, v in enumerate(values.tolist()))
    if text != "i,v\n" + want:
        got = [line.split(",")[1] for line in text.splitlines()[1:]]
        bad = [(v, g, "%.17g" % v) for v, g in zip(values.tolist(), got) if g != "%.17g" % v]
        pytest.fail(f"{len(bad)} values written wrong, first (value, text, want): {bad[:3]}")


def both_signs(values):
    return np.concatenate([values, -values])


def test_every_scale_is_its_power_of_ten_and_splits_exactly():
    for k, scale, hi, lo in zip(range(-4, 0), _SCALES, _SCALES_HI, _SCALES_LO):
        assert int(scale) == 10**(16 - k)
        assert int(hi) + int(lo) == 10**(16 - k)
        for half in (hi, lo):  # at most 26 bits each, so their products are exact
            assert (math.frexp(half)[0] * 2**26).is_integer()


@pytest.mark.parametrize("j", [18, 19, 20, 21])
def test_half_way_candidates_round_half_to_even(j):
    # every c / 2^j in [10^k, 10^(k+1)), k = 17 - j: its decimal expansion has
    # 18 significant digits, so an odd c is an exact tie at the 17th digit
    k = 17 - j
    c = np.arange(math.ceil(10.0**k * 2**j), 2**j * 10**(k + 1), dtype=float)
    assert_written_as_dtoa(both_signs(c / 2**j))


@pytest.mark.parametrize("center", [1e-4, 1e-3, 1e-2, 0.1, 1.0, 0.5, 0.25, 0.125])
def test_ulp_neighbourhoods(center):
    # where k and the class bounds switch, and where up to 16 zeros are stripped
    bits = np.array(center).view(np.int64) + np.arange(-3000, 3001)
    assert_written_as_dtoa(both_signs(bits.view(np.float64)))


def test_random_bit_patterns():
    # nans of both signs, subnormals and huge values among them, and the special floats
    bits = np.random.default_rng(20260131).integers(0, 2**64, 200_000, dtype=np.uint64)
    assert_written_as_dtoa(np.concatenate([SPECIAL_FLOATS, bits.view(np.float64)]))


def test_random_uniform_values():
    assert_written_as_dtoa(np.random.default_rng(31).uniform(-1, 1, 200_000))


def test_sweep_of_every_value_class_matches_row_writer():
    # values with 1e-4 <= |v| < 1 of both signs and with trailing zeros, values
    # at or above 1 and below 1e-4, zeros and nans
    table = run_sweep(xi_grid=parse_grid("0:0.5:41"), alpha_sq_grid=parse_grid("0:1:41"),
                      quantities=QUANTITIES, analysis_only=True)
    values = table.block.ravel()
    a = np.abs(values)
    exact = (a >= 1e-4) & (a < 1)
    for present in (exact & (values > 0), exact & (values < 0), a >= 1,
                    (a > 0) & (a < 1e-4), a == 0, np.isnan(values)):
        assert present.any()
    assert any(len(("%.17g" % v).lstrip("-0.")) < 17 for v in values[exact].tolist())
    names = [*table.axes, table.value_name]
    rows = [dict(zip(names, (*point, v)))
            for point, v in zip(product(*table.axes.values()), values.tolist(), strict=True)]
    assert table_to_csv(table) == reference_csv(rows, names)
