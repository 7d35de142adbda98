"""The column encoders of fraclat.output against a per-cell reference.

`reference_csv` and `reference_json` keep the per-cell encoders that the
column encoders replaced; every table must encode to the same bytes as the
reference applied to its rows of Python scalars.  Numeric columns are drawn
as numpy arrays, contiguous or strided, whose cells repeat so that each
column has few distinct values; text columns as lists of str; and mixed
columns as lists of any cell type, which the encoders spell cell by cell.
Any of these may also be drawn factored, as the (cells, index) pair of the
pool and each row's position in it.  Derandomised, so every run draws the
same examples.  Tables of up to two blocks and one row check that the row
blocks join to the same text at every block edge.
"""
import json
import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fraclat import output
from fraclat.output import (
    OutputRecord,
    format_real,
    parse_csv,
    parse_json,
    record_to_csv,
    record_to_json,
)

B = output._BLOCK_ROWS  # rows per block of encoded text

NAN_PAYLOAD = struct.unpack("<d", struct.pack("<Q", 0x7FF8000000000001))[0]
EDGE_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 1.797e308, -1.797e308, 1.0, 0.1, 1e16, 1e17,
               math.nan, -math.nan, NAN_PAYLOAD, math.inf, -math.inf)
EDGE_INTS = (0, 1, -1, 2**53 + 1, 2**63 - 1, -(2**63))
# the last five sit next to the pad byte 0xFF or the space it replaces: U+00FF
# (UTF-8 C3 BF), the last code point, a lone surrogate and spaces
STRINGS = ("ok", "singular", "", "a%sb", "%s", "%d%%", "x,y", '"q"', "é∞", "%(k)s", "\x00", "a\x00",
           "ÿ", "\U0010ffff", "\ud800", " a ", ", ")


def _reference_cell(value) -> str:
    if isinstance(value, bool):
        raise TypeError("boolean cells are not part of the table contract")
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return format_real(value)
    return str(value)


def _reference_scalar(value) -> str:
    if isinstance(value, bool):
        raise TypeError("boolean cells are not part of the table contract")
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if math.isnan(value):
            return "NaN"
        if math.isinf(value):
            return "Infinity" if value > 0 else "-Infinity"
        return format_real(value)
    return json.dumps(str(value))


def reference_csv(record: OutputRecord) -> str:
    lines = [f"# command: {record.command}"]
    for key, value in record.parameters.items():
        lines.append(f"# parameter {key}: {_reference_cell(value)}")
    for key, value in record.metadata.items():
        lines.append(f"# metadata {key}: {_reference_cell(value)}")
    lines.append(",".join(record.columns))
    for row in record.rows:
        lines.append(",".join(_reference_cell(cell) for cell in row))
    return "\n".join(lines) + "\n"


def reference_json(record: OutputRecord) -> str:
    def obj(mapping: dict) -> str:
        inner = ", ".join(f"{json.dumps(str(k))}: {_reference_scalar(v)}" for k, v in mapping.items())
        return "{" + inner + "}"

    rows = ", ".join(
        "[" + ", ".join(_reference_scalar(cell) for cell in row) + "]" for row in record.rows
    )
    parts = [
        f'"command": {json.dumps(record.command)}',
        f'"parameters": {obj(record.parameters)}',
        f'"columns": {json.dumps(list(record.columns))}',
        f'"rows": [{rows}]',
        f'"metadata": {obj(record.metadata)}',
    ]
    return "{" + ", ".join(parts) + "}\n"


def make_record(table) -> OutputRecord:
    return OutputRecord(
        "table", {"alpha": 1.3, "cut": "plane_110"}, tuple(f"c{j}" for j in range(len(table))),
        table, {"version": "1.0.0", "tol": 1e-12},
    )


def assert_encodes_as_reference(record: OutputRecord) -> None:
    assert record_to_csv(record) == reference_csv(record)
    assert record_to_json(record) == reference_json(record)


floats = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=True, allow_infinity=True))
ints = st.one_of(st.sampled_from(EDGE_INTS), st.integers(min_value=-(2**63), max_value=2**63 - 1))
strings = st.one_of(st.sampled_from(STRINGS), st.text(max_size=4))


def factored(cells, rows, dtype=np.uint8) -> tuple:
    """The factored column of `cells` whose rows hold cells[i] for i in rows."""
    return cells, np.array(rows, dtype=dtype)


def expand(column):
    cells, index = column
    return cells[index] if isinstance(cells, np.ndarray) else [cells[i] for i in index]


@st.composite
def columns(draw, length):
    """A float64 or int64 array, contiguous or strided, or a list of str, of
    `length` cells drawn from a pool of 1-5 values, so cells repeat; or the
    factored column of the pool, in any unsigned index dtype."""
    kind = draw(st.sampled_from(("float", "int", "str")))
    pool = draw(st.lists({"float": floats, "int": ints, "str": strings}[kind], min_size=1, max_size=5))
    rows = draw(st.lists(st.integers(0, len(pool) - 1), min_size=length, max_size=length))
    if draw(st.booleans()):
        if kind != "str":
            pool = np.array(pool, dtype=np.float64 if kind == "float" else np.int64)
        return factored(pool, rows, draw(st.sampled_from((np.uint8, np.uint16, np.uint32, np.uint64))))
    cells = [pool[i] for i in rows]
    if kind == "str":
        return cells
    array = np.array(cells, dtype=np.float64 if kind == "float" else np.int64)
    if draw(st.booleans()):  # a strided view, as a column of a 2D array
        array = np.repeat(array, 2)[::2]
    return array


@st.composite
def tables(draw):
    """1-4 columns of 0-40 rows."""
    length = draw(st.integers(min_value=0, max_value=40))
    width = draw(st.integers(min_value=1, max_value=4))
    return make_record([draw(columns(length)) for _ in range(width)])


@settings(derandomize=True, max_examples=60, deadline=None)
@given(record=tables())
def test_column_encoders_match_per_cell_reference(record):
    assert_encodes_as_reference(record)


mixed_cells = st.one_of(
    floats,
    floats.map(np.float64),
    st.integers(min_value=-(10**30), max_value=10**30),
    st.integers(min_value=-5, max_value=5).map(np.int64),
    strings,
)


@st.composite
def mixed_tables(draw):
    """1-4 columns, each a list of cells of any type, of 0-12 rows."""
    length = draw(st.integers(min_value=0, max_value=12))
    width = draw(st.integers(min_value=1, max_value=4))
    return make_record([draw(st.lists(mixed_cells, min_size=length, max_size=length)) for _ in range(width)])


@settings(derandomize=True, max_examples=25, deadline=None)
@given(record=mixed_tables())
def test_encoders_match_per_cell_reference(record):
    assert_encodes_as_reference(record)


def test_each_bit_pattern_keeps_its_spelling():
    # 0.0 and -0.0 compare equal but are spelled apart; each NaN is spelled NaN in JSON
    values = np.array([0.0, -0.0, 0.0, math.nan, NAN_PAYLOAD, -math.inf, 1e16, -0.0])
    record = make_record([values, np.arange(8) % 3, ["%s", "\x00", "%s", "é∞", "", "\x00", "a", "a"]])
    assert record_to_csv(record).splitlines()[-8:] == [
        "0,0,%s", "-0,1,\x00", "0,2,%s", "nan,0,é∞", "nan,1,", "-inf,2,\x00", "10000000000000000,0,a",
        "-0,1,a",
    ]
    assert record_to_json(record).endswith(
        '"rows": [[0, 0, "%s"], [-0, 1, "\\u0000"], [0, 2, "%s"], [NaN, 0, "\\u00e9\\u221e"], '
        '[NaN, 1, ""], [-Infinity, 2, "\\u0000"], [10000000000000000, 0, "a"], [-0, 1, "a"]], '
        '"metadata": {"version": "1.0.0", "tol": 9.9999999999999998e-13}}\n'
    )
    assert_encodes_as_reference(record)


@pytest.mark.parametrize("table", [
    [],
    [np.zeros(0), np.zeros(0, dtype=np.int64), []],
    [np.array([1.5, -0.0, 1.5]), ["ok", "singular", "ok"]],
    [np.arange(3), np.array([1.0, math.inf, math.nan])],
    [["%s", "é"], [math.nan, 2]],
    [list(STRINGS), [*STRINGS[1:], 0.5]],
    # factored cells need be neither sorted nor distinct, nor all used
    [factored(np.array([1.5, -0.0, math.nan, 0.0, math.inf, -math.inf, NAN_PAYLOAD, 1.5]),
              [7, 1, 2, 3, 4, 5, 6, 1, 3, 2]),
     factored(np.array([7, -(2**63), 0, 2**63 - 1, -1, 7]), [0, 1, 2, 3, 4, 5, 2, 0, 3, 1]),
     factored(list(STRINGS), [16, 14, 0, 12, 13, 15, 14, 1, 4, 2], np.uint64)],
    [factored(["ok", "singular"], [1, 0, 0]), factored(np.array([2.5, -0.0]), [0, 1, 1], np.uint16)],
    [factored(np.array([3.0]), []), factored(np.zeros(0, dtype=np.int64), []), factored([], [])],
], ids=["no columns", "no rows", "text last", "nan last", "mixed last", "pad neighbours",
        "factored", "factored last", "factored no rows"])
def test_edge_tables_match_reference(table):
    # the JSON encoder trims the final row's ", " from the last column's last cell
    record = make_record(table)
    assert_encodes_as_reference(record)
    # a factored column encodes as its cells written out row by row
    expanded = make_record([expand(column) if isinstance(column, tuple) else column for column in table])
    for encode in (record_to_csv, record_to_json):
        assert encode(record) == encode(expanded)


def test_record_checks_its_table():
    with pytest.raises(ValueError, match="2 table columns do not match 3 columns"):
        OutputRecord("t", {}, ("a", "b", "c"), (np.zeros(2), np.zeros(2)))
    with pytest.raises(ValueError, match="differ in length"):
        OutputRecord("t", {}, ("a", "b"), (np.zeros(2), ["x"]))
    with pytest.raises(ValueError, match="differ in length"):
        OutputRecord("t", {}, ("a", "b"), (np.zeros(2), factored(["x"], [0, 0, 0])))


@pytest.mark.parametrize("column, message", [
    (factored(["x", "y"], [0, 2]), "index 2 is past its 2 cells"),
    (factored([], [0, 0]), "index 0 is past its 0 cells"),
    (factored(["x", "y"], [0, 1], np.int64), "unsigned"),
    (factored(["x", "y"], [0, 1], np.float64), "unsigned"),
    (factored(["x", "y"], [0, 1], bool), "unsigned"),
    (factored(["x", "y"], [[0], [1]]), "1-D"),
    ((["x", "y"], [0, 1]), "1-D unsigned integer array"),
    ((["x", "y"], np.array([0, 1], np.uint8), None), "pair"),
], ids=["past the cells", "no cells", "signed", "float", "bool", "2-D", "list", "triple"])
def test_record_refuses_a_bad_factored_column(column, message):
    # a gather past the cells would repeat the last cell, as np.take clips
    with pytest.raises(ValueError, match=message):
        OutputRecord("t", {}, ("a", "b"), (np.zeros(2), column))


def test_rows_are_python_scalars():
    record = make_record([np.array([1.5, -0.0]), np.array([7, 8]), ["ok", "singular"],
                          factored(np.array([0.5, -0.0]), [1, 0]), factored(np.array([3, 9]), [1, 1]),
                          factored(["ok", "singular"], [1, 0], np.uint32)])
    assert record.rows == ((1.5, 7, "ok", -0.0, 9, "singular"), (-0.0, 8, "singular", 0.5, 9, "ok"))
    assert [type(cell) for cell in record.rows[0]] == [float, int, str] * 2
    # a table of no columns has no rows: an empty header line ends its CSV
    assert make_record([]).rows == () and record_to_csv(make_record([])).endswith("e-13\n\n")


@pytest.mark.parametrize("encode", [record_to_csv, record_to_json])
def test_boolean_cells_raise(encode):
    for column in (np.array([False, True]), [1.0, True], ["ok", False]):
        with pytest.raises(TypeError, match="boolean cells"):
            encode(make_record([np.array([1.0, 2.0]), column]))


def _bits(value) -> bytes:
    return struct.pack("<d", float(value))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(values=st.lists(
    st.one_of(st.sampled_from([v for v in EDGE_FLOATS if math.isfinite(v)]),
              st.floats(allow_nan=False, allow_infinity=False)),
    max_size=40,
))
def test_round_trips_are_bit_exact_for_finite_floats(values):
    record = make_record([np.arange(len(values)), np.array(values, dtype=np.float64)])
    for parsed in (parse_csv(record_to_csv(record)), parse_json(record_to_json(record))):
        assert parsed["columns"] == record.columns
        assert [row[0] for row in parsed["rows"]] == list(range(len(values)))
        assert [_bits(row[1]) for row in parsed["rows"]] == [_bits(v) for v in values]


def block_table(rows: int, special=None) -> OutputRecord:
    """A float, a str, an int, an object and a float column of `rows` rows; the
    float columns, first and last in each row, hold `special` on the first and
    last row of every block."""
    reals = (np.arange(rows) % 7 - 3) * 0.1
    if special is not None:
        reals[np.arange(0, rows, B)] = reals[np.arange(B - 1, rows, B)] = reals[rows - 1:] = special
    return make_record([
        reals,
        [("ok", "singular", "é∞", "%s")[i % 4] for i in range(rows)],
        np.arange(rows) % 5 - 2,
        [(-0.0, 7, "x", math.nan)[i % 4] for i in range(rows)],
        reals.copy(),
    ])


@pytest.mark.parametrize("rows", [0, 1, B - 1, B, B + 1, 2 * B + 1])
def test_blocks_join_to_the_reference_at_block_edges(rows):
    record = block_table(rows, math.nan)
    assert "".join(output._blocks(record, "csv")) == record_to_csv(record) == reference_csv(record)
    assert "".join(output._blocks(record, "json")) == record_to_json(record) == reference_json(record)


@pytest.mark.parametrize("special, text", [(-0.0, "-0"), (math.nan, "NaN"), (math.inf, "Infinity"),
                                           (-math.inf, "-Infinity")])
def test_special_cells_at_block_edges_in_json(special, text):
    record = block_table(2 * B + 1, special)
    head, first, second, third, tail = output._blocks(record, "json")
    # each block's first row opens with the cell, and its last row closes with it
    for block, end in ((first, "], "), (second, "], "), (third, "]")):
        assert block.startswith(f"[{text}, ") and block.endswith(f", {text}{end}")
    assert head + first + second + third + tail == reference_json(record)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_no_piece_is_longer_than_one_block(fmt):
    # a table of three blocks arrives as its head, one piece per block, and its tail
    record = block_table(2 * B + 1)
    head, *row_blocks, tail = output._blocks(record, fmt)
    row_start = "\n" if fmt == "csv" else "["  # one per row: a CSV row's end, a JSON row's start
    assert [block.count(row_start) for block in row_blocks] == [B, B, 1]
    assert head.count("\n") + tail.count("\n") <= len(record.parameters) + len(record.metadata) + 2


def test_lone_surrogate_is_kept():
    record = make_record([["\ud800", "ÿ"], np.array([1.0, 2.0])])
    assert record_to_csv(record).endswith("\ud800,1\nÿ,2\n")
    assert record_to_json(record).endswith('[["\\ud800", 1], ["\\u00ff", 2]], "metadata": '
                                           '{"version": "1.0.0", "tol": 9.9999999999999998e-13}}\n')


@pytest.mark.parametrize("fmt, reference", [("csv", reference_csv), ("json", reference_json)])
def test_narrowest_and_widest_numbers_across_a_block_edge(fmt, reference):
    # 0.0 spells one character and -5e-324 24, the widest %.17g text; the int
    # column holds both int64 extremes; the table's rows pass one block edge
    rows = np.arange(B + 2)
    reals = np.where(rows % 2 == 0, 0.0, -5e-324)
    ints = np.where(rows % 3 == 0, np.int64(-(2**63)), np.int64(2**63 - 1))
    record = make_record([reals, ints])
    head, first, second, tail = output._blocks(record, fmt)
    assert head + first + second + tail == reference(record)
    if fmt == "csv":
        assert first.endswith("\n-4.9406564584124654e-324,-9223372036854775808\n")
        assert second == "0,9223372036854775807\n-4.9406564584124654e-324,9223372036854775807\n"
    else:
        assert first.endswith(", [-4.9406564584124654e-324, -9223372036854775808], ")
        assert second == "[0, 9223372036854775807], [-4.9406564584124654e-324, 9223372036854775807]"


def test_spelled_distinct_floats_stay_compact():
    # 10^5 distinct floats of a plain column are held as one padded row of
    # bytes each, its 24 character field and its separators, with no per-row
    # index beside them and not as one str object each, from the moment their
    # spelling is done
    record = make_record([np.arange(1, 100_001) / 7.0])
    for fmt, reference, held_bar, peak_bar in (("csv", reference_csv, 2.6e6, 4.0e6),
                                               ("json", reference_json, 2.9e6, 4.4e6)):
        tracemalloc.start()
        try:
            pieces = output._blocks(record, fmt)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held <= held_bar and peak <= peak_bar, (fmt, held, peak)
        assert "".join(pieces) == reference(record)
