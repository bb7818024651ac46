"""Atomic file writes, the one CSV reader and writer, and the one JSON reader.

Every artifact this package emits goes through a temp-file-plus-rename so an
interrupted run never leaves a half-written file behind. Every CSV table goes
through ``write_csv``; every JSON model or threshold file goes through
``read_json``.

CSV tables are read column by column. ``CsvColumns`` takes the whole file in
one pass of ``csv.reader``, checks every record's width at once and keeps the
asked-for columns as cells. ``read_scan_table`` and ``read_slice_table``
convert each value column in one call of its parser (``int``, ``float`` or
the flag parser mapped over the column), and the slice table groups its rows
by scan with array operations. A bad table fails on its first bad record in
file order, with the message a record-by-record read would give. A line
number is worked out only when an error names one, by reading the file again
up to that record.
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
    """Write ``header`` then ``rows`` as newline-terminated CSV text, atomically.
    A float cell is written as its repr, which reads back to the same float."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    atomic_write_text(path, buf.getvalue())


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


_ENCODING = "utf-8-sig"  # skips the byte-order mark a spreadsheet export may start with
_FLAG_CELLS = frozenset(("0", "1"))


def parse_flags(cells) -> list[bool]:
    if not _FLAG_CELLS.issuperset(cells):
        raise ValueError(f"flag cells must be 0 or 1, got {cells}")
    return list(map("1".__eq__, cells))


def parse_floats(cells) -> list[float]:
    return list(map(float, cells))


def _parse_ints(cells) -> list[int]:
    return list(map(int, cells))


class CsvColumns:
    """The cells of ``columns`` in a CSV file, one tuple per column, over its
    non-blank records before the first bad one (``size`` of them).

    A column missing from the header, or a header that is not UTF-8 CSV,
    raises a ``FormatError`` at once. A record is bad when it is not as long
    as the header, when ``csv.reader`` stops at it (text that is not UTF-8
    CSV), or when ``convert`` or ``reject`` finds it so. ``check`` raises the
    ``FormatError`` of the first bad record in file order, naming the file and
    the line.
    """

    def __init__(self, path, columns, what: str):
        self.path = path
        self._failure = None  # (message, line or None) of record ``size``
        with open(path, newline="", encoding=_ENCODING) as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader, [])
            except (csv.Error, ValueError) as exc:  # ValueError covers UnicodeDecodeError
                raise FormatError(f"{path}: line {reader.line_num}: {exc}") from exc
            if set(columns) - set(header):
                raise FormatError(f"{path}: {what} must have columns {columns}")
            records = []
            try:
                records.extend(filter(None, reader))  # keeps the records read before an error
            except (csv.Error, ValueError) as exc:
                self._failure = (str(exc), reader.line_num)
        self.size = len(records)
        width = len(header)
        if records and set(map(len, records)) != {width}:
            row = next(row for row, record in enumerate(records) if len(record) != width)
            self.reject(row, f"{len(records[row])} cells but the header has {width}")
            del records[row:]
        cells = list(zip(*records)) or [()] * width
        self.cells = [cells[header.index(column)] for column in columns]

    def reject(self, row: int, message: str) -> None:
        """Mark record ``row`` bad. Every check reads only the records before
        the first bad one, so ``row`` becomes the first."""
        self.size, self._failure = row, (message, None)

    def convert(self, columns: slice, parse) -> list[list]:
        """``parse`` of each of the ``columns`` of ``cells`` over the records
        before the first bad one. When a column does not parse, the first
        record whose cells in ``columns``, passed to ``parse`` as one list, do
        not parse is rejected with the parser's message."""
        cells = [column[:self.size] for column in self.cells[columns]]
        try:
            return [parse(column) for column in cells]
        except ValueError:
            for row, record in enumerate(zip(*cells)):
                try:
                    parse(list(record))
                except ValueError as exc:
                    self.reject(row, str(exc))
                    return self.convert(columns, parse)
            raise

    def line(self, row: int) -> int:
        """The line that record ``row`` ends on, from reading the file again up to it."""
        with open(self.path, newline="", encoding=_ENCODING) as fh:
            reader = csv.reader(fh)
            next(reader)
            records = filter(None, reader)
            for _ in range(row + 1):
                next(records)
            return reader.line_num

    def check(self) -> None:
        """Raise the first bad record's ``FormatError``, if a record is bad."""
        if self._failure is not None:
            message, line = self._failure
            line = self.line(self.size) if line is None else line
            raise FormatError(f"{self.path}: line {line}: {message}")


def read_scan_table(path, columns, parse, what: str, text: int = 0):
    """The ``scan_id`` column (the first of ``columns``) in file order, the
    cells of the ``text`` columns after it, and a (scans, k) array of
    ``parse`` over the k columns after those. A repeated ``scan_id`` is a
    ``FormatError``."""
    table = CsvColumns(path, columns, what)
    values = table.convert(slice(1 + text, None), parse)
    scan_ids = table.cells[0][:table.size]
    if len(set(scan_ids)) < len(scan_ids):
        first = {}
        row = next(row for row, scan_id in enumerate(scan_ids)
                   if first.setdefault(scan_id, row) != row)
        table.reject(row, f"duplicate scan_id {scan_ids[row]!r}")
    table.check()
    return list(scan_ids), table.cells[1:1 + text], np.array(values).T


def read_slice_table(path, columns, parse, what: str, bounds=None) -> dict[str, np.ndarray]:
    """``scan_id`` -> array of ``parse`` over the value cells, one row per slice,
    of a table keyed by ``scan_id, slice_index`` (the first two of
    ``columns``), scans in order of first appearance. Each scan's slice
    indices must run 0..N-1 with no repeat. With ``bounds`` (low, high),
    every value must lie in [low, high]: the first that does not, in file
    order, fails naming its line, column and scan."""
    table = CsvColumns(path, columns, what)
    (indices,) = table.convert(slice(1, 2), _parse_ints)
    values = table.convert(slice(2, None), parse)
    size = table.size
    scan_ids, indices = table.cells[0][:size], indices[:size]
    first = dict.fromkeys(scan_ids)
    scans = np.fromiter(map(dict(zip(first, range(len(first)))).__getitem__, scan_ids),
                        np.intp, size)
    slots = indices
    if size and (min(indices) < 0 or max(indices) >= size):
        # Such an index leaves a gap; each distinct one gets its own slot past
        # the table, so that a repeat of it still shows.
        outside = {}
        slots = [index if 0 <= index < size else size + outside.setdefault(index, len(outside))
                 for index in indices]
    slots = np.array(slots, dtype=np.intp)
    # A stable sort on (scan, slot): each scan's rows in slot order, repeats
    # in file order, so the later row of each adjacent equal pair repeats.
    order = np.lexsort((slots, scans))
    scans, slots = scans[order], slots[order]
    repeats = order[1:][(scans[1:] == scans[:-1]) & (slots[1:] == slots[:-1])]
    if len(repeats):
        row = int(repeats.min())
        table.reject(row, f"duplicate slice {indices[row]} for scan {scan_ids[row]}")
    table.check()
    counts = np.bincount(scans, minlength=len(first))
    gaps = slots != np.arange(size) - np.repeat(np.cumsum(counts) - counts, counts)
    if gaps.any():
        raise FormatError(f"{path}: slice indices for scan {list(first)[scans[gaps].min()]} "
                          "are not contiguous from 0")
    rows = np.array(values).T
    del values
    if bounds is not None:
        low, high = bounds
        outside = np.argwhere(~((rows >= low) & (rows <= high)))
        if len(outside):
            row, column = outside[0].tolist()
            raise FormatError(f"{path}: line {table.line(row)}: {columns[2 + column]} "
                              f"{float(rows[row, column])!r} for scan {scan_ids[row]} "
                              f"outside [{low:g}, {high:g}]")
    return dict(zip(first, np.split(rows[order], np.cumsum(counts)[:-1])))
