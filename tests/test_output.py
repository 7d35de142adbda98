"""The run encoders of fraclat.output against a per-cell reference.

`reference_csv` and `reference_json` keep the per-cell encoders the run
encoders replaced; every table must encode to the same bytes.  Tables are
drawn as segments of repeated rows so that row counts around the run size
and type changes inside a run both occur.  Derandomised, so every run draws
the same examples.
"""
import json
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fraclat.output import (
    _RUN_ROWS,
    OutputRecord,
    format_real,
    parse_csv,
    parse_json,
    record_to_csv,
    record_to_json,
)

K = _RUN_ROWS
ROW_COUNTS = (0, 1, K - 1, K, K + 1, 2 * K + 1)
EDGE_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 1.797e308, -1.797e308, 1.0, 0.1, 1e16, 1e17,
               math.nan, math.inf, -math.inf)
STRINGS = ("ok", "singular", "", "a%sb", "%d%%", "x,y", '"q"', "é∞", "%(k)s")


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


def make_record(columns: int, rows) -> OutputRecord:
    return OutputRecord(
        "table", {"alpha": 1.3, "cut": "plane_110"}, tuple(f"c{j}" for j in range(columns)),
        rows, {"version": "1.0.0", "tol": 1e-12},
    )


floats = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=True, allow_infinity=True))
cells = st.one_of(
    floats,
    floats.map(np.float64),
    st.integers(min_value=-(10**30), max_value=10**30),
    st.integers(min_value=-5, max_value=5).map(np.int64),
    st.sampled_from(STRINGS),
    st.text(max_size=4),
)


@st.composite
def tables(draw):
    """0-4 columns; segments of a few distinct rows repeated up to 2K+1 times."""
    width = draw(st.integers(min_value=0, max_value=4))
    rows = []
    for _ in range(draw(st.integers(min_value=1, max_value=2))):
        distinct = draw(st.lists(st.tuples(*[cells] * width), min_size=1, max_size=3))
        count = draw(st.one_of(st.sampled_from(ROW_COUNTS), st.integers(0, 9)))
        rows += [distinct[i % len(distinct)] for i in range(count)]
    return make_record(width, rows)


@settings(derandomize=True, max_examples=25, deadline=None)
@given(record=tables())
def test_encoders_match_per_cell_reference(record):
    assert record_to_csv(record) == reference_csv(record)
    assert record_to_json(record) == reference_json(record)


@pytest.mark.parametrize("count", ROW_COUNTS)
def test_run_boundaries(count):
    # a type change and a NaN land in different runs as the count grows
    rows = [(p, 0.1 * p, "ok" if p % 7 else "s%,\"") for p in range(count)]
    rows += [(1.5, math.nan if p == count // 2 else -0.0, np.float64(p)) for p in range(count)]
    record = make_record(3, rows)
    assert record_to_csv(record) == reference_csv(record)
    assert record_to_json(record) == reference_json(record)


@pytest.mark.parametrize("encode", [record_to_csv, record_to_json])
def test_boolean_cells_raise(encode):
    record = make_record(2, [(1.0, 2)] * (K + 3) + [(1.0, True)])
    with pytest.raises(TypeError, match="boolean cells"):
        encode(record)


def _bits(value) -> bytes:
    return struct.pack("<d", float(value))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(values=st.lists(
    st.one_of(st.sampled_from([v for v in EDGE_FLOATS if math.isfinite(v)]),
              st.floats(allow_nan=False, allow_infinity=False)),
    max_size=40,
))
def test_round_trips_are_bit_exact_for_finite_floats(values):
    record = make_record(2, [(i, v) for i, v in enumerate(values)])
    for parsed in (parse_csv(record_to_csv(record)), parse_json(record_to_json(record))):
        assert parsed["columns"] == record.columns
        assert [row[0] for row in parsed["rows"]] == list(range(len(values)))
        assert [_bits(row[1]) for row in parsed["rows"]] == [_bits(v) for v in values]
