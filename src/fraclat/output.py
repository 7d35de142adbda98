"""Tabular output records with deterministic 17 significant digit encoding.

Every command produces one OutputRecord: a named table plus the parameters
and metadata that produced it.  Two encodings are supported, CSV (parameters
and metadata as comment lines, then a header row and data rows) and JSON (a
single object).  Real cells are always written through the same fixed format
so identical inputs give byte identical payloads and parsing recovers every
float bit exactly.

Data rows are encoded by runs: consecutive rows with one tuple of cell types,
at most _RUN_ROWS of them, go through a single % operation whose format is
the row's format repeated once per row.  A float cell's slot is %.17g (as
format_real), every other cell's is %s (as str).  JSON quotes string cells
beforehand, and a float column of a run that holds NaN or an infinity gets a
%s slot over cells spelled by _json_scalar, since % spells those nan and inf.
The bytes equal a per-cell encoding; header and comment lines are encoded
per cell.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import chain, groupby, islice

__all__ = [
    "OutputRecord",
    "format_real",
    "record_to_csv",
    "record_to_json",
    "parse_csv",
    "parse_json",
]

# rows formatted by one % operation: a bound on the size of each format string
_RUN_ROWS = 4096


def format_real(value: float) -> str:
    """Fixed 17 significant digit encoding; round-trips every finite float."""
    return "%.17g" % value


def _format_cell(value) -> str:
    if isinstance(value, bool):
        raise TypeError("boolean cells are not part of the table contract")
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return format_real(value)
    return str(value)


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
    """One tabular result: command name, parameters, columns, rows, metadata.

    Rows hold ints, floats and short strings; metadata carries the tool
    version and the tolerances in effect, never timestamps, so that repeated
    runs stay byte identical.
    """

    command: str
    parameters: dict
    columns: tuple
    rows: tuple
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "columns", tuple(self.columns))
        rows = tuple(tuple(row) for row in self.rows)
        for row in rows:
            if len(row) != len(self.columns):
                raise ValueError(
                    f"row width {len(row)} does not match {len(self.columns)} columns"
                )
        object.__setattr__(self, "rows", rows)


def _row_runs(rows):
    """Consecutive rows with one tuple of cell types, cut into runs of at most _RUN_ROWS.

    Yields (types, run); a boolean cell type raises TypeError.
    """
    for types, group in groupby(rows, key=lambda row: tuple(map(type, row))):
        if bool in types:
            raise TypeError("boolean cells are not part of the table contract")
        while run := list(islice(group, _RUN_ROWS)):
            yield types, run


def _slots(types) -> list:
    """One % conversion per cell: format_real for floats, str for the rest."""
    return ["%.17g" if issubclass(t, float) else "%s" for t in types]


def record_to_csv(record: OutputRecord) -> str:
    lines = [f"# command: {record.command}"]
    for key, value in record.parameters.items():
        lines.append(f"# parameter {key}: {_format_cell(value)}")
    for key, value in record.metadata.items():
        lines.append(f"# metadata {key}: {_format_cell(value)}")
    lines.append(",".join(record.columns))
    pieces = ["\n".join(lines) + "\n"]
    for types, run in _row_runs(record.rows):
        row = ",".join(_slots(types)) + "\n"
        pieces.append((row * len(run)) % tuple(chain.from_iterable(run)))
    return "".join(pieces)


def _json_scalar(value) -> str:
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


def _all_finite(values) -> bool:
    try:
        return math.isfinite(math.fsum(values))
    except (OverflowError, ValueError):  # partial sums overflowed, or inf + -inf
        return False


def _json_rows(rows):
    """JSON row arrays, one text per run; every text after the first starts with ", "."""
    sep = ""
    for types, run in _row_runs(rows):
        width = len(types)
        cells = list(chain.from_iterable(run))
        slots = _slots(types)
        for j, t in enumerate(types):
            if issubclass(t, float):
                column = cells[j::width]
                if not _all_finite(column):
                    # NaN and the infinities have no %-conversion in JSON's spelling
                    slots[j] = "%s"
                    cells[j::width] = map(_json_scalar, column)
            elif t is str:  # equal strings quote equally: quote each distinct one once
                column = cells[j::width]
                quoted = {s: json.dumps(s) for s in set(column)}
                cells[j::width] = map(quoted.__getitem__, column)
            elif not issubclass(t, int):
                cells[j::width] = [json.dumps(str(v)) for v in cells[j::width]]
        row = "[" + ", ".join(slots) + "]"
        yield (sep + ", ".join([row] * len(run))) % tuple(cells)
        sep = ", "


def record_to_json(record: OutputRecord) -> str:
    # hand assembled so float cells go through the same 17 digit format as
    # the CSV encoder
    def obj(mapping: dict) -> str:
        inner = ", ".join(f"{json.dumps(str(k))}: {_json_scalar(v)}" for k, v in mapping.items())
        return "{" + inner + "}"

    head = (
        f'{{"command": {json.dumps(record.command)}, '
        f'"parameters": {obj(record.parameters)}, '
        f'"columns": {json.dumps(list(record.columns))}, '
        '"rows": ['
    )
    rows = list(_json_rows(record.rows))
    tail = f'], "metadata": {obj(record.metadata)}}}\n'
    return "".join([head, *rows, tail])


def parse_csv(text: str) -> dict:
    """Recover columns and typed rows from an emitted CSV record."""
    columns = None
    rows = []
    command = None
    parameters = {}
    metadata = {}
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if body.startswith("command:"):
                command = body.split(":", 1)[1].strip()
            elif body.startswith("parameter "):
                key, value = body[len("parameter ") :].split(":", 1)
                parameters[key.strip()] = _parse_cell(value.strip())
            elif body.startswith("metadata "):
                key, value = body[len("metadata ") :].split(":", 1)
                metadata[key.strip()] = _parse_cell(value.strip())
            continue
        if columns is None:
            columns = line.split(",")
            continue
        rows.append(tuple(_parse_cell(cell) for cell in line.split(",")))
    if columns is None:
        raise ValueError("no header row found")
    return {
        "command": command,
        "parameters": parameters,
        "columns": tuple(columns),
        "rows": tuple(rows),
        "metadata": metadata,
    }


def parse_json(text: str) -> dict:
    data = json.loads(text, parse_int=_parse_cell)
    data["columns"] = tuple(data["columns"])
    data["rows"] = tuple(tuple(row) for row in data["rows"])
    return data
