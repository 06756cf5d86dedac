"""Canonical JSON tuple files and report serialization.

A tuple file is UTF-8 JSON with fields

    version   "1"
    d, n      counts, JSON integers >= 1
    matrices  nested lists, shape d x n x n x 2, complex entries as [re, im]
              pairs of JSON numbers (``true`` and ``false`` are not numbers)
    nu        optional list of d weights, JSON numbers in [0, 1]
    metadata  optional free-form object

Complex entries are stored as two-element [re, im] arrays so that the
format is unambiguous across implementations.  Reports are emitted as JSON
(numbers round-trip exactly through Python's shortest-repr floats) or as
flat CSV tables.
"""

from __future__ import annotations

import csv
import io
import json

import numpy as np

from .exceptions import ParseError

__all__ = ["load_tuple_file", "save_tuple_file", "render_report"]


def _fail(path: str, message: str):
    raise ParseError(f"{path}: {message}")


def _is_number(v) -> bool:
    """Whether ``v`` is a JSON number; JSON's ``true`` and ``false`` are not."""
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _parse_complex(entry, where: str, path: str) -> complex:
    if (
        not isinstance(entry, (list, tuple))
        or len(entry) != 2
        or not all(_is_number(v) for v in entry)
    ):
        _fail(path, f"{where} must be a [re, im] pair, got {entry!r}")
    try:
        return complex(entry[0], entry[1])
    except OverflowError:
        _fail(path, f"{where} must be finite, got {entry!r}")


def load_tuple_file(path: str):
    """Read a tuple file; returns ``(x, nu, metadata)``.

    ``x`` has shape ``(d, n, n)``; ``nu`` is ``None`` when absent.  Shape or
    type violations raise :class:`ParseError` naming the offending field.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise ParseError(f"{path}: no such file")
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON ({exc})")

    if not isinstance(doc, dict):
        _fail(path, "top level must be an object")
    if str(doc.get("version")) != "1":
        _fail(path, f"unsupported version {doc.get('version')!r}")
    for field in ("d", "n"):
        value = doc.get(field)
        if type(value) is not int or value < 1:
            _fail(path, f"field {field!r} must be an integer >= 1, got {value!r}")
    d, n = doc["d"], doc["n"]

    matrices = doc.get("matrices")
    if not isinstance(matrices, list) or len(matrices) != d:
        _fail(path, f"'matrices' must list {d} matrices")
    x = np.zeros((d, n, n), dtype=complex)
    for i, mat in enumerate(matrices):
        if not isinstance(mat, list) or len(mat) != n:
            _fail(path, f"matrices[{i}] must have {n} rows")
        for r, row in enumerate(mat):
            if not isinstance(row, list) or len(row) != n:
                _fail(path, f"matrices[{i}][{r}] must have {n} entries")
            for c, entry in enumerate(row):
                x[i, r, c] = _parse_complex(entry, f"matrices[{i}][{r}][{c}]", path)
    if not np.isfinite(x).all():
        _fail(path, "'matrices' entries must be finite")

    nu = None
    if doc.get("nu") is not None:
        raw = doc["nu"]
        if not isinstance(raw, list) or len(raw) != d:
            _fail(path, f"'nu' must list {d} weights")
        if not all(_is_number(v) for v in raw):
            _fail(path, "'nu' entries must be numbers")
        if not all(0.0 <= v <= 1.0 for v in raw):
            _fail(path, f"'nu' entries must lie in [0, 1], got {raw}")
        nu = np.array(raw, dtype=float)

    metadata = doc.get("metadata") or {}
    if not isinstance(metadata, dict):
        _fail(path, "'metadata' must be an object")
    return x, nu, metadata


def save_tuple_file(path: str, x, nu=None, metadata=None):
    xa = np.asarray(x, dtype=complex)
    payload = {
        "version": "1",
        "d": int(xa.shape[0]),
        "n": int(xa.shape[1]),
        "matrices": [
            [[[float(v.real), float(v.imag)] for v in row] for row in mat]
            for mat in xa
        ],
    }
    if nu is not None:
        payload["nu"] = [float(v) for v in np.asarray(nu)]
    if metadata:
        payload["metadata"] = metadata
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def render_report(report, fmt: str = "json") -> str:
    """Serialize a report dict (or list of row dicts) deterministically."""
    if fmt == "json":
        return json.dumps(report, indent=2, sort_keys=True) + "\n"
    if fmt == "csv":
        rows = [report] if isinstance(report, dict) else list(report)
        if not rows:
            return ""
        fieldnames = sorted({k for row in rows for k in row})
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=fieldnames, lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
        return buf.getvalue()
    raise ParseError(f"unknown report format {fmt!r}")
