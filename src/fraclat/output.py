"""Tabular output records with deterministic 17 significant digit encoding.

Every command produces one OutputRecord: a named table plus the parameters
and metadata that produced it.  Two encodings are supported, CSV (parameters
and metadata as comment lines, then a header row and data rows) and JSON (a
single object).  Real cells are always written through the same fixed format
so identical inputs give byte identical payloads and parsing recovers every
float bit exactly.

A record stores its table by column: numpy float64 or int64 arrays for
numbers, lists of str for text, or a factored column, the pair (cells,
index) of such an array or list and a 1-D unsigned integer array giving each
row's cell, for a column whose cells repeat in a pattern its builder knows.
The encoders spell each column as it is handed over and look for no repeats
of their own: a plain column row by row, and each cell of a factored column
once.  A cell is spelled with its row separator folded into its text.  Any
other column (an object or mixed list, or an array of another dtype) is
spelled cell by cell.

A column's cells are the rows of one uint8 matrix: each row is the
cell's UTF-8 text padded to the column's width with the byte 0xFF, which
UTF-8 never contains, so deleting every 0xFF from a run of rows leaves their
texts exactly.  Floats and ints are spelled by one % format per chunk of
cells into a field of fixed width (24 characters, the widest %.17g text, or
the widest of the column's least and greatest int), left-justified; the spaces
that pad the field become 0xFF.  Only the field's spaces are swapped, as no
%.17g or %d text holds a space while JSON's ", " separator, folded into the
same row, does.  A str cell is encoded by itself, lone surrogates kept.

One encoder, `_blocks`, spells every column first, then yields the table's
head, its rows in blocks of at most _BLOCK_ROWS rows, and its tail.  A block
copies its rows of each plain column's matrix, and gathers those of a
factored column's matrix by its index, side by side into one byte matrix,
whose bytes, the 0xFF deleted, decode to the block's text.  `record_to_csv`
and `record_to_json` join those pieces, and the CLI writes them one at a
time, so a table on its way to a file is never held as one string and the
peak memory of a large table is its record, its columns' matrices, and one
block.  The bytes equal a per-cell encoding of the rows, factored columns
expanded.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

# rows per block: a table's text is made, and reaches its writer, one block at a time
_BLOCK_ROWS = 1 << 14
# numbers spelled by one % format
_SPELL_CHUNK = 1 << 14
# pads each cell's UTF-8 text to its column's width: UTF-8 never holds it
_PAD = b"\xff"
# characters of the widest %.17g text, -4.9406564584124654e-324
_REAL_WIDTH = 24

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


def _length(column) -> int:
    return len(column[1]) if isinstance(column, tuple) else len(column)


def _expanded(column) -> list:
    """A column's cells as Python scalars, a factored column's row by row."""
    if isinstance(column, tuple):
        cells, index = column
        column = cells[index] if isinstance(cells, np.ndarray) else [cells[i] for i in index.tolist()]
    return column.tolist() if isinstance(column, np.ndarray) else column


@dataclass(frozen=True)
class OutputRecord:
    """One tabular result: command name, parameters, columns, table, metadata.

    The table holds one column per name, each of equal length: a numpy
    float64 or int64 array, a list of short strings, or a factored column,
    the tuple (cells, index) of such an array or list and a 1-D unsigned
    integer array whose entry for each row is the position of its cell in
    cells.  The encoders spell a plain column row by row and each cell of a
    factored column once, so a builder that knows a column's cells repeat
    hands it over factored.  Metadata carries the tool version, never
    timestamps, so that repeated runs stay byte identical.  A route's error
    bound is a parameter.
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
        for column in self.table:
            if isinstance(column, tuple):
                _check_factored(column)
        if len({_length(column) for column in self.table}) > 1:
            raise ValueError("table columns differ in length")

    @property
    def rows(self) -> tuple:
        """The table as row tuples of Python scalars, factored columns expanded."""
        return tuple(zip(*map(_expanded, self.table)))


def _check_factored(column: tuple) -> None:
    """ValueError unless the column is (cells, index), index a 1-D unsigned
    integer array of positions in cells: the encoder's gather would repeat
    the last cell for a position past it."""
    index = column[1] if len(column) == 2 else None
    if not (isinstance(index, np.ndarray) and index.ndim == 1 and index.dtype.kind == "u"):
        raise ValueError("a factored column is a (cells, index) pair, index a 1-D unsigned integer array")
    cells = column[0]
    if len(index) and index.max() >= len(cells):
        raise ValueError(f"factored column index {index.max()} is past its {len(cells)} cells")


def _fields(values: np.ndarray, before: str, width: int, conversion: str, after: str) -> np.ndarray:
    """before + the `conversion` ("d" or ".17g") of v, left-justified in a field
    of `width` characters, + after for each v, one row each of a uint8 matrix;
    the spaces that pad the field become _PAD.  One % per chunk of _SPELL_CHUNK
    values."""
    start = len(before)
    matrix = np.empty((len(values), start + width + len(after)), dtype=np.uint8)
    cell = f"{before}%-{width}{conversion}{after}"
    for i in range(0, len(values), _SPELL_CHUNK):
        chunk = values[i:i + _SPELL_CHUNK].tolist()
        rows = matrix[i:i + len(chunk)]
        rows[:] = np.frombuffer((cell * len(chunk) % tuple(chunk)).encode(), np.uint8).reshape(rows.shape)
        padding = rows[:, start:start + width]
        # no %.17g or %d text holds a space; JSON's ", " lies outside the field
        padding[padding == ord(" ")] = ord(_PAD)
    return matrix


def _texts(texts: list) -> np.ndarray:
    """Each text's UTF-8 bytes, lone surrogates kept, as one row of a uint8
    matrix padded with _PAD to the longest."""
    encoded = [text.encode("utf-8", "surrogatepass") for text in texts]
    width = max(map(len, encoded), default=0)
    padded = b"".join(cell.ljust(width, _PAD) for cell in encoded)
    return np.frombuffer(padded, np.uint8).reshape(len(encoded), width)


def _spelled(column, spell, before: str, after: str) -> tuple:
    """(matrix, index): before + spell(cell) + after for each cell of the
    column, as the _PAD padded UTF-8 rows of one uint8 matrix, and each row's
    index into it: a factored column's own index, a plain column's None, its
    rows spelled in row order."""
    cells, index = column if isinstance(column, tuple) else (column, None)
    if isinstance(cells, np.ndarray) and cells.dtype == np.float64:
        matrix = _fields(cells, before, _REAL_WIDTH, ".17g", after)
        for i in np.flatnonzero(~np.isfinite(cells)).tolist():  # JSON's NaN and Infinity
            text = spell(cells[i].item()).encode().ljust(_REAL_WIDTH, _PAD)
            matrix[i, len(before):len(before) + _REAL_WIDTH] = np.frombuffer(text, np.uint8)
    elif isinstance(cells, np.ndarray) and cells.dtype.kind in "iu":
        # the widest int is the least or the greatest
        width = max(len(str(v)) for v in (cells.min(), cells.max())) if len(cells) else 1
        matrix = _fields(cells, before, width, "d", after)
    else:
        cells = cells.tolist() if isinstance(cells, np.ndarray) else cells  # any other dtype
        matrix = _texts([before + spell(c) + after for c in cells])
    return matrix, index


def _json_object(mapping: dict) -> str:
    return "{" + ", ".join(f"{json.dumps(str(k))}: {_json_cell(v)}" for k, v in mapping.items()) + "}"


def _block(spelled: list, start: int, stop: int, trim: int) -> str:
    """Rows start:stop of the spelled columns as one text: each row's cells are
    copied, or gathered by a factored column's index, side by side into one
    padded byte matrix, the final row loses its last `trim` bytes, and the pad
    bytes are deleted."""
    widths = [matrix.shape[1] for matrix, _ in spelled]
    data = bytearray((stop - start) * sum(widths))
    block = np.frombuffer(data, np.uint8).reshape(stop - start, sum(widths))
    at = 0
    for (matrix, index), width in zip(spelled, widths):
        if index is None:
            block[:, at:at + width] = matrix[start:stop]
        else:
            np.take(matrix, index[start:stop], axis=0, out=block[:, at:at + width], mode="clip")
        at += width
    if trim:  # the last column closes every row in its final bytes before the padding
        final = block[-1]
        kept = np.flatnonzero(final != ord(_PAD))[-1] + 1
        final[kept - trim:kept] = ord(_PAD)
    del block  # so the padded bytes are freed before the text is decoded
    data = data.translate(None, _PAD)
    return data.decode("utf-8", "surrogatepass")


def _blocks(record: OutputRecord, fmt: str):
    """The `fmt` ("csv" or "json") text of `record` as an iterator over its
    head, its data rows in blocks of at most _BLOCK_ROWS rows, and its tail.
    Every cell is spelled before this returns."""
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
    rows = _length(table[0]) if table else 0
    spelled = [_spelled(column, spell, between if j else first, last if j == width - 1 else "")
               for j, column in enumerate(table)]

    def pieces():
        yield "".join(head)
        for start in range(0, rows, _BLOCK_ROWS):
            stop = min(start + _BLOCK_ROWS, rows)
            # `end` is `last` cut short
            yield _block(spelled, start, stop, len(last) - len(end) if stop == rows else 0)
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
