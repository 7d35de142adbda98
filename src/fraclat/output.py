"""Tabular output records with deterministic 17 significant digit encoding.

Every command produces one OutputRecord: a named table plus the parameters
and metadata that produced it.  Two encodings are supported, CSV (parameters
and metadata as comment lines, then a header row and data rows) and JSON (a
single object).  Real cells are always written through the same fixed format
so identical inputs give byte identical payloads and parsing recovers every
float bit exactly.

A record stores its table by column: numpy float64 or int64 arrays for
numbers, lists of str for text.  The encoders spell each column on its own,
and each distinct cell of a column once: float arrays are keyed by their bits
(so -0.0 stays apart from 0.0), int arrays by value and str lists through a
dict.  A distinct cell is spelled with its row separator folded into its
text, and the texts are gathered back by the inverse index and interleaved
row by row between the table's head and tail: head, rows and tail are one
join.  Any other column (an object or mixed list, or an array of another
dtype) is spelled cell by cell.  The bytes equal a per-cell encoding of the
rows.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "OutputRecord",
    "format_real",
    "record_to_csv",
    "record_to_json",
    "parse_csv",
    "parse_json",
]


def format_real(value: float) -> str:
    """Fixed 17 significant digit encoding; round-trips every finite float."""
    return "%.17g" % value


def _csv_cell(value) -> str:
    if isinstance(value, bool):
        raise TypeError("boolean cells are not part of the table contract")
    return format_real(value) if isinstance(value, float) else str(value)


_JSON_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_cell(value) -> str:
    """The CSV spelling, but NaN and Infinity as JSON spells them, and a string quoted."""
    text = _csv_cell(value)
    if isinstance(value, (int, float)):
        return _JSON_NON_FINITE.get(text, text)
    return json.dumps(text)


def _parse_cell(text: str):
    if text == "-0":  # only the float -0.0 is written so; int() would drop its sign
        return -0.0
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


@dataclass(frozen=True)
class OutputRecord:
    """One tabular result: command name, parameters, columns, table, metadata.

    The table holds one equal-length sequence per column: a numpy float64 or
    int64 array, or a list of short strings.  Metadata carries the tool
    version, never timestamps, so that repeated runs stay byte identical.  A
    route's error bound is a parameter.
    """

    command: str
    parameters: dict
    columns: tuple
    table: tuple
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "columns", tuple(self.columns))
        object.__setattr__(self, "table", tuple(self.table))
        if len(self.table) != len(self.columns):
            raise ValueError(f"{len(self.table)} table columns do not match {len(self.columns)} columns")
        if len({len(column) for column in self.table}) > 1:
            raise ValueError("table columns differ in length")

    @property
    def rows(self) -> tuple:
        """The table as row tuples of Python scalars."""
        return tuple(zip(*(c.tolist() if isinstance(c, np.ndarray) else c for c in self.table)))


def _spelled(column, spell, before: str, after: str) -> list:
    """before + spell(cell) + after for each cell, each distinct cell spelled once."""
    if isinstance(column, np.ndarray):
        if column.dtype == np.float64:  # by bits, so -0.0 stays apart from 0.0
            keys, inverse = np.unique(column.view(np.int64), return_inverse=True)
            distinct, real = keys.view(np.float64), before + "%.17g" + after
            texts = [real % v for v in distinct.tolist()]
            for i in np.flatnonzero(~np.isfinite(distinct)).tolist():  # JSON's NaN and Infinity
                texts[i] = before + spell(distinct[i].item()) + after
        elif column.dtype.kind in "iu":
            distinct, inverse = np.unique(column, return_inverse=True)
            integer = before + "%d" + after
            texts = [integer % v for v in distinct.tolist()]
        else:  # any other dtype (bool, object): its cells as Python scalars
            return _spelled(column.tolist(), spell, before, after)
        return np.array(texts, dtype=object)[inverse].tolist()
    if set(map(type, column)) <= {str}:
        texts = {s: before + spell(s) + after for s in dict.fromkeys(column)}
        return list(map(texts.__getitem__, column))
    return [before + spell(v) + after for v in column]


def _joined(record: OutputRecord, spell, head: list, first: str, between: str, last: str,
            end: str, tail: str) -> str:
    """The strings of `head`, the data rows and `tail` as one join.  A row spells
    its first cell after `first`, each other cell after `between`, and ends in
    `last`; the final row ends in `end` instead."""
    table, width, start = record.table, len(record.table), len(head)
    stop = start + width * len(table[0]) if table else start
    parts = [None] * (stop + 1)
    parts[:start], parts[stop] = head, tail
    for j, column in enumerate(table):
        parts[start + j:stop:width] = _spelled(column, spell, between if j else first,
                                               last if j == width - 1 else "")
    if stop > start:
        parts[stop - 1] = parts[stop - 1][:-len(last)] + end
    return "".join(parts)


def record_to_csv(record: OutputRecord) -> str:
    head = [f"# command: {record.command}\n"]
    head += [f"# parameter {key}: {_csv_cell(value)}\n" for key, value in record.parameters.items()]
    head += [f"# metadata {key}: {_csv_cell(value)}\n" for key, value in record.metadata.items()]
    head.append(",".join(record.columns) + "\n")
    return _joined(record, _csv_cell, head, "", ",", "\n", "\n", "")


def _json_object(mapping: dict) -> str:
    return "{" + ", ".join(f"{json.dumps(str(k))}: {_json_cell(v)}" for k, v in mapping.items()) + "}"


def record_to_json(record: OutputRecord) -> str:
    # hand assembled so float cells go through the same 17 digit format as
    # the CSV encoder
    head = [f'{{"command": {json.dumps(record.command)}, "parameters": {_json_object(record.parameters)}, '
            f'"columns": {json.dumps(list(record.columns))}, "rows": [']
    tail = f'], "metadata": {_json_object(record.metadata)}}}\n'
    return _joined(record, _json_cell, head, "[", ", ", "], ", "]", tail)


def parse_csv(text: str) -> dict:
    """Recover columns and typed rows from an emitted CSV record."""
    comments = {"parameter": {}, "metadata": {}}
    command, columns, rows = None, None, []
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("#"):
            kind, _, body = line[1:].strip().partition(" ")
            if kind == "command:":
                command = body.strip()
            elif kind in comments:
                key, value = body.split(":", 1)
                comments[kind][key.strip()] = _parse_cell(value.strip())
        elif columns is None:
            columns = line.split(",")
        else:
            rows.append(tuple(_parse_cell(cell) for cell in line.split(",")))
    if columns is None:
        raise ValueError("no header row found")
    return {
        "command": command,
        "parameters": comments["parameter"],
        "columns": tuple(columns),
        "rows": tuple(rows),
        "metadata": comments["metadata"],
    }


def parse_json(text: str) -> dict:
    data = json.loads(text, parse_int=_parse_cell)
    data["columns"] = tuple(data["columns"])
    data["rows"] = tuple(tuple(row) for row in data["rows"])
    return data
