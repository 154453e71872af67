"""Machine-readable result tables with deterministic CSV/JSON export.

A table's cells are one read-only float64 array of shape (rows, len(columns)),
from the runner that builds it to the exporter that writes it.  CSV layout:
leading ``# key=value`` metadata lines, a header row of column names, then one
newline-terminated row per sweep point with every number printed to 17
significant digits, so re-import is bit-exact and re-export byte-identical.
Both formats stream in 2,048-row blocks, each writing a constant column's text
once and an integer column with %d; from_csv parses with numpy's C reader.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from importlib import resources
from itertools import chain
from pathlib import Path
from typing import Iterator

import numpy as np

#: Rows per text chunk the writers yield; it bounds their scratch memory, not the table.
_BLOCK = 2048


@dataclass(frozen=True, eq=False)
class ResultTable:
    """Rectangular numeric table plus a metadata block.

    ``cells`` is stored as a read-only float64 view of shape
    (rows, len(columns)); compare two tables' cells with ``np.array_equal``.
    """

    columns: tuple[str, ...]
    cells: np.ndarray
    meta: dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        width = len(self.columns)
        cells = np.asarray(self.cells, dtype=float).view()
        if cells.shape == (0,):  # an empty sweep has no row to give the width
            cells = cells.reshape(0, width)
        if cells.ndim != 2 or cells.shape[1] != width:
            raise ValueError(f"cells have shape {cells.shape}, expected (rows, {width})")
        cells.flags.writeable = False
        object.__setattr__(self, "cells", cells)

    @property
    def rows(self) -> tuple[tuple[float, ...], ...]:
        """The cells as one tuple of Python floats per row (built on each access)."""
        return tuple(map(tuple, self.cells.tolist()))


def _meta_value(value: object) -> str:
    return format(value, ".17g") if isinstance(value, float) else str(value)


def _row_specs(block: np.ndarray, fmt: str, whole: str) -> tuple[list[str], list[float]]:
    """Each column's text in the block's row template, and the cells left to format.

    A finite column whose cells all have row 0's bits is formatted once.  One of integers
    below 2^53 in magnitude, none -0.0 (bits -2^63), takes ``whole``, which writes them
    as ``fmt`` does; the rest take ``fmt``, so every non-finite cell is left to format.
    """
    bits = block.view(np.int64)
    same = (bits[-1] == bits[0]) & np.isfinite(block[0])
    same[same] = (bits[:, same] == bits[0, same]).all(axis=0)  # only where rows 0, -1 pass
    integer = ~same & (block[0] == np.trunc(block[0]))
    c = block[:, integer]
    integer[integer] = ((abs(c) < 2**53) & (c == np.trunc(c)) & (c.view("i8") != -(2**63))).all(0)
    kinds = zip(block[0].tolist(), same, integer)
    specs = [fmt % x if fixed else whole if is_int else fmt for x, fixed, is_int in kinds]
    return specs, block.compress(~same, axis=1).ravel().tolist()


def _csv_chunks(table: ResultTable) -> Iterator[str]:
    head = [f"# {key}={_meta_value(value)}" for key, value in table.meta.items()]
    yield "\n".join([*head, ",".join(table.columns)]) + "\n"
    for start in range(0, len(table.cells), _BLOCK):
        block = table.cells[start : start + _BLOCK]
        # "%.17g" % x gives the same text as format(x, ".17g") for every float.
        specs, values = _row_specs(block, "%.17g", "%d")
        yield ((",".join(specs) + "\n") * len(block)) % tuple(values)


def _json_chunks(table: ResultTable) -> Iterator[str]:
    head = {"meta": table.meta, "columns": list(table.columns), "rows": []}
    text = json.dumps(head, indent=2, allow_nan=False)  # ends with '"rows": []\n}'
    yield text[:-3] + "\n" if len(table.cells) else text + "\n"
    for start in range(0, len(table.cells), _BLOCK):
        block = table.cells[start : start + _BLOCK]
        specs, values = _row_specs(block, "%s", "%d.0")
        if not np.isfinite(block).all():
            values = [x if math.isfinite(x) else "null" for x in values]
        row = "    [" + ",".join("\n      " + s for s in specs) + "\n    ]" if specs else "    []"
        end = ",\n" if start + _BLOCK < len(table.cells) else "\n  ]\n}\n"
        yield (",\n".join([row] * len(block)) + end) % tuple(values)


def to_csv(table: ResultTable) -> str:
    return "".join(_csv_chunks(table))


def to_json(table: ResultTable) -> str:
    """JSON export, byte for byte ``json.dumps(payload, indent=2, allow_nan=False)``.

    The head goes through json.dumps, so a non-finite meta value is still refused.  The
    rows take the CSV's row template with "%s", as json writes a float's repr, and a
    non-finite cell (the documented singular snr = inf) is null.
    """
    return "".join(_json_chunks(table))


def _parse_meta_value(text: str) -> object:
    # A bool or number only when it re-formats to the same text, so re-export
    # stays byte-identical; non-finite values stay text, as JSON cannot hold them.
    if text in ("True", "False"):
        return text == "True"
    for parse in (int, float):
        try:
            value = parse(text)
        except ValueError:
            continue
        if _meta_value(value) == text and text not in ("inf", "-inf", "nan"):
            return value
    return text


def from_csv(text: str) -> ResultTable:
    meta: dict[str, object] = {}
    columns, parts, start = (), [], 0
    while start < len(text):
        # ~64 characters per _BLOCK row, cut just after a "\n", where every line break ends.
        end = text.find("\n", start + _BLOCK * 64) + 1 or len(text)
        rows = []
        for ln in filter(None, text[start:end].splitlines()):
            if ln.startswith("#"):
                key, _, value = ln[1:].strip().partition("=")
                key = key.strip()
                meta[key] = value if key in _TEXT_META else _parse_meta_value(value)
            elif not columns:
                columns = tuple(ln.split(","))
            else:
                rows.append(ln)
        width, done, start = len(columns), sum(map(len, parts)), end
        if not rows:
            continue
        try:  # numpy's C reader; reshape refuses a chunk whose rows share one wrong width
            parts.append(np.loadtxt(rows, delimiter=",", comments=None).reshape(len(rows), width))
        except ValueError as exc:
            # Per row: a count over the chunk would miss a short row beside a long one.
            for i in (i for i, ln in enumerate(rows) if ln.count(",") != width - 1):
                n = rows[i].count(",") + 1
                raise ValueError(f"CSV row {done + i} has {n} cells, expected {width}") from None
            raise ValueError(f"in CSV rows {done}-{done + len(rows) - 1}: {exc}") from exc
    if not columns:
        raise ValueError("CSV has no header row")
    return ResultTable(columns, np.concatenate(parts) if parts else (), meta)


def schema_text() -> str:
    """The shipped JSON schema for exported tables."""
    return resources.files(__package__).joinpath("result_table.schema.json").read_text()


#: Meta keys the schema types as strings; from_csv keeps their values as text.
_META_SCHEMA = json.loads(schema_text())["properties"]["meta"]["properties"]
_TEXT_META = {key for key, spec in _META_SCHEMA.items() if spec["type"] == "string"}


def _chunks(table: ResultTable, fmt: str) -> Iterator[str]:
    """The table as ``fmt`` ("csv" or "json"), a block at a time, its head formed on the call."""
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown format {fmt!r} (expected 'csv' or 'json')")
    chunks = _csv_chunks(table) if fmt == "csv" else _json_chunks(table)
    return chain([next(chunks)], chunks)  # a table to_json refuses raises before a byte is written


def export(table: ResultTable, fmt: str, destination: str | Path) -> Path:
    """Write the table as ``fmt`` ("csv" or "json") to ``destination``, a block at a time."""
    chunks = _chunks(table, fmt)  # its head is formed before the file is opened
    path = Path(destination)
    try:
        with path.open("w", encoding="utf-8") as out:
            out.writelines(chunks)
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc
    return path
