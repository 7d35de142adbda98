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
text, and each row keeps an int32 index into its column's texts.  Any other
column (an object or mixed list, or an array of another dtype) is spelled
cell by cell.  One encoder, `_blocks`, spells every column first, then
yields the table's head, its rows in blocks of at most _BLOCK_ROWS rows, each
gathered by those indices and interleaved row by row in one join, and its
tail; `record_to_csv` and `record_to_json` join those pieces, and the CLI
writes them one at a time, so a table on its way to a file is never held as
one string and the peak memory of a large table is its record, its distinct
texts and one block.  The bytes equal a per-cell encoding of the rows.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

# rows per block: a table's text is made, and reaches its writer, one block at a time
_BLOCK_ROWS = 1 << 14

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


def _spelled(column, spell, before: str, after: str) -> tuple:
    """(texts, inverse): before + spell(cell) + after for each distinct cell, as
    an object array, and each row's index into it, as int32 while that holds it."""
    index_type = np.int32 if len(column) <= 1 << 31 else np.intp
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
        inverse = inverse.astype(index_type)
    elif set(map(type, column)) <= {str}:
        index = {s: i for i, s in enumerate(dict.fromkeys(column))}
        texts = [before + spell(s) + after for s in index]
        inverse = np.fromiter(map(index.__getitem__, column), index_type, len(column))
    else:
        texts = [before + spell(v) + after for v in column]
        inverse = np.arange(len(column), dtype=index_type)
    return np.array(texts, dtype=object), inverse


def _json_object(mapping: dict) -> str:
    return "{" + ", ".join(f"{json.dumps(str(k))}: {_json_cell(v)}" for k, v in mapping.items()) + "}"


def _blocks(record: OutputRecord, fmt: str):
    """The `fmt` ("csv" or "json") text of `record` as an iterator over its
    head, its data rows in blocks of at most _BLOCK_ROWS rows, and its tail.
    Every distinct cell is spelled before this returns."""
    if fmt == "csv":
        head = [f"# command: {record.command}\n"]
        head += [f"# parameter {key}: {_csv_cell(value)}\n" for key, value in record.parameters.items()]
        head += [f"# metadata {key}: {_csv_cell(value)}\n" for key, value in record.metadata.items()]
        head.append(",".join(record.columns) + "\n")
        tail = ""
        # a row spells its first cell after `first`, each other cell after
        # `between`, and ends in `last`; the final row ends in `end` instead
        spell, first, between, last, end = _csv_cell, "", ",", "\n", "\n"
    else:
        # hand assembled so float cells go through the same 17 digit format as
        # the CSV encoder
        head = [f'{{"command": {json.dumps(record.command)}, "parameters": {_json_object(record.parameters)}, '
                f'"columns": {json.dumps(list(record.columns))}, "rows": [']
        tail = f'], "metadata": {_json_object(record.metadata)}}}\n'
        spell, first, between, last, end = _json_cell, "[", ", ", "], ", "]"
    table, width = record.table, len(record.table)
    rows = len(table[0]) if table else 0
    spelled = [_spelled(column, spell, between if j else first, last if j == width - 1 else "")
               for j, column in enumerate(table)]

    def pieces():
        yield "".join(head)
        for start in range(0, rows, _BLOCK_ROWS):
            stop = min(start + _BLOCK_ROWS, rows)
            parts = [None] * (width * (stop - start))
            for j, (texts, inverse) in enumerate(spelled):
                parts[j::width] = texts[inverse[start:stop]].tolist()
            if stop == rows:
                parts[-1] = parts[-1][:-len(last)] + end
            yield "".join(parts)
        yield tail

    return pieces()


def record_to_csv(record: OutputRecord) -> str:
    return "".join(_blocks(record, "csv"))


def record_to_json(record: OutputRecord) -> str:
    return "".join(_blocks(record, "json"))


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
