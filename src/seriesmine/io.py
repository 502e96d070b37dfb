"""Series ingestion from files and result-document serialization.

Canonical input is plain text, one decimal value per line; CSV with a
0-based column selector is accepted as a convenience. Result documents
round-trip losslessly: JSON uses Python's shortest-repr floats, CSV prints
every numeric with 17 significant digits. Non-finite sentinel cells
(unpopulated profile entries, empty matrix cells) serialize as null/empty.
"""

from __future__ import annotations

import csv
import io as _io
import json
import sys

import numpy as np

from .exceptions import SeriesMineError
from .series import DataSeries, ingest

SCHEMA_VERSION = 1


class InputFormatError(SeriesMineError):
    """Unparseable input file content."""


def read_series(path: str, column: int | None = None) -> DataSeries:
    """Load a series file: one value per line, or one CSV column."""
    values = []
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            if column is None:
                for lineno, line in enumerate(fh, 1):
                    text = line.strip()
                    if not text:
                        continue
                    try:
                        values.append(float(text))
                    except ValueError:
                        raise InputFormatError(f"{path}:{lineno}: not a number: {text!r}")
            else:
                header = True   # a header may lead the first non-blank row
                for lineno, row in enumerate(csv.reader(fh), 1):
                    if not row:
                        continue
                    if not 0 <= column < len(row):
                        raise InputFormatError(f"{path}:{lineno}: no column {column}")
                    try:
                        values.append(float(row[column]))
                    except ValueError:
                        if not header:
                            raise InputFormatError(
                                f"{path}:{lineno}: not a number: {row[column]!r}")
                    header = False
    except UnicodeDecodeError as exc:
        raise InputFormatError(f"{path}: not UTF-8 text ({exc.reason})") from None
    return ingest(values)


def _clean(x):
    """Recursively convert numpy scalars/arrays and map non-finite to None."""
    if isinstance(x, dict):
        return {k: _clean(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_clean(v) for v in x]
    if isinstance(x, np.ndarray):
        return [_clean(v) for v in x.tolist()]
    if isinstance(x, (np.integer,)):
        return int(x)
    if isinstance(x, (np.floating, float)):
        x = float(x)
        return x if np.isfinite(x) else None
    return x


def make_document(command: str, params: dict, series_n: int, payload: dict,
                  wall_seconds: float | None = None) -> dict:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "parameters": _clean(params),
        "series_length": int(series_n),
        **_clean(payload),
    }
    doc["timing"] = {"wall_seconds": wall_seconds}
    return doc


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return str(x)
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return "%.17g" % float(x)
    if isinstance(x, list):
        return " ".join(_fmt(v) for v in x)
    return str(x)


def _is_table(value) -> bool:
    return isinstance(value, list) and bool(value) and isinstance(value[0], dict)


def document_to_csv(doc: dict) -> str:
    """Flatten a result document into CSV sections.

    Scalar fields come first as key,value rows, and lists of scalars as
    space-separated values. Every list-of-dicts payload field becomes its own
    section with a header row. A list of dicts inside such a row becomes a
    further section, ``[parent.field]``, whose rows lead with the parent
    row's first column.
    """
    out = _io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    tables = []

    def walk(prefix, value):
        if _is_table(value):
            tables.append((prefix, value))
        elif isinstance(value, dict):
            for sub, x in value.items():
                walk(f"{prefix}.{sub}" if prefix else sub, x)
        else:
            writer.writerow([prefix, _fmt(value)])

    writer.writerow(["key", "value"])
    for key, value in doc.items():
        walk(key, value)
    for key, rows in tables:    # nested tables join the list as they are found
        cols = [c for c, x in rows[0].items() if not _is_table(x)]
        for c in [c for c in rows[0] if c not in cols]:
            tables.append((f"{key}.{c}", [{cols[0]: row[cols[0]], **sub}
                                          for row in rows for sub in row[c]]))
        writer.writerow([])
        writer.writerow([f"[{key}]"])
        writer.writerow(cols)
        for row in rows:
            writer.writerow([_fmt(row.get(c)) for c in cols])
    return out.getvalue()


def write_document(doc: dict, path: str | None, fmt: str = "json"):
    if fmt == "json":
        text = json.dumps(doc, indent=2, allow_nan=False) + "\n"
    elif fmt == "csv":
        text = document_to_csv(doc)
    else:
        raise ValueError(f"unknown output format {fmt!r}")
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
