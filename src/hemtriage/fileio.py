"""Atomic file writes, the one CSV reader and writer, and the one JSON reader.

Every artifact this package emits goes through a temp-file-plus-rename so an
interrupted run never leaves a half-written file behind. Every CSV table
goes through ``write_csv`` and ``read_csv``; every JSON model or threshold
file goes through ``read_json``.
"""

from __future__ import annotations

import csv
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from .errors import FormatError


def atomic_write_bytes(path: str | Path, data: bytes) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write_text(path: str | Path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def write_csv(path, header, rows) -> None:
    """Write ``header`` then ``rows`` as newline-terminated CSV text, atomically."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    atomic_write_text(path, buf.getvalue())


def read_csv(path, columns, parse, what: str):
    """Yield ``(line, parse(cells))`` per non-blank record, ``cells`` being its
    values for ``columns``. A column missing from the header, a record not as
    long as the header, text that is not UTF-8 CSV, or a ``ValueError`` from
    ``parse`` raises a ``FormatError`` naming the file and the line."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, [])
            if set(columns) - set(header):
                raise FormatError(f"{path}: {what} must have columns {columns}")
            picks = [header.index(column) for column in columns]
            for record in reader:
                if record:
                    if len(record) != len(header):
                        raise ValueError(f"{len(record)} cells but the header has {len(header)}")
                    yield reader.line_num, parse([record[i] for i in picks])
        except (csv.Error, ValueError) as exc:  # ValueError covers UnicodeDecodeError
            raise FormatError(f"{path}: line {reader.line_num}: {exc}") from exc


def _reject_constant(name: str):
    raise ValueError(f"{name} is not a JSON number")


def read_json(path, what: str):
    """The JSON value in ``path``. Text that is not UTF-8 JSON, including the
    non-standard ``NaN`` and ``Infinity``, raises a ``FormatError`` naming the
    file. A number too large for a float still reads as infinite, so callers
    range-check the numbers they take."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh, parse_constant=_reject_constant)
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError are ValueErrors
        raise FormatError(f"{path}: {what} is not UTF-8 JSON: {exc}") from exc


def is_finite_number(value) -> bool:
    """Whether a value read from JSON is a number a float holds finitely: an
    int or a float, not a bool or a string, and not NaN, infinite or an
    integer past float range."""
    return type(value) in (int, float) and abs(value) <= sys.float_info.max


def parse_flags(cells) -> list[bool]:
    if any(cell not in ("0", "1") for cell in cells):
        raise ValueError(f"flag cells must be 0 or 1, got {cells}")
    return [cell == "1" for cell in cells]


def read_scan_table(path, columns, parse, what: str) -> dict:
    """``scan_id`` (the first of ``columns``) -> ``parse`` of the other cells,
    in file order. A repeated ``scan_id`` is a ``FormatError``."""
    table = {}
    for line, (scan_id, value) in read_csv(
            path, columns, lambda cells: (cells[0], parse(cells[1:])), what):
        if scan_id in table:
            raise FormatError(f"{path}: line {line}: duplicate scan_id {scan_id!r}")
        table[scan_id] = value
    return table


def read_slice_table(path, columns, parse, what: str) -> dict[str, np.ndarray]:
    """``scan_id`` -> array of ``parse`` over the value cells, one row per slice,
    of a table keyed by ``scan_id, slice_index`` (the first two of ``columns``).
    Each scan's slice indices must run 0..N-1 with no repeat."""
    per_scan: dict[str, dict[int, list]] = {}
    for line, (scan_id, index, values) in read_csv(
            path, columns, lambda cells: (cells[0], int(cells[1]), parse(cells[2:])), what):
        slot = per_scan.setdefault(scan_id, {})
        if index in slot:
            raise FormatError(f"{path}: line {line}: duplicate slice {index} for scan {scan_id}")
        slot[index] = values
    for scan_id, slot in per_scan.items():
        if sorted(slot) != list(range(len(slot))):
            raise FormatError(f"{path}: slice indices for scan {scan_id} are not contiguous from 0")
    return {scan_id: np.array([slot[i] for i in range(len(slot))])
            for scan_id, slot in per_scan.items()}
