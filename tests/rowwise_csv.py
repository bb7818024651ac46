"""The record-by-record CSV readers that ``hemtriage.fileio`` replaced with a
column read, kept as the reference the column read is tested against.

Each loader below reads a table the way the package's loader of the same
name did: one record at a time through a generator, keyed into dicts. Files
are opened as ``utf-8-sig``, as the package opens them, so both skip a
leading byte-order mark. The one deliberate difference is the range error of
``load_slice_probs``, which the package now gives with the line, column and
scan of the first bad cell in file order.
"""

import csv

import numpy as np

from hemtriage.errors import FormatError
from hemtriage.volume import HEMORRHAGE_TYPES, ManifestRow, ScanLabels, check_manifest_coverage

MANIFEST_COLUMNS = ("scan_id", "patient_id", "path") + HEMORRHAGE_TYPES
DECISION_COLUMNS = ("scan_id",) + HEMORRHAGE_TYPES
SLICE_LABEL_COLUMNS = ("scan_id", "slice_index") + HEMORRHAGE_TYPES
PROB_COLUMNS = ("scan_id", "slice_index") + tuple(f"p_{t}" for t in HEMORRHAGE_TYPES)


def parse_flags(cells) -> list[bool]:
    if any(cell not in ("0", "1") for cell in cells):
        raise ValueError(f"flag cells must be 0 or 1, got {cells}")
    return [cell == "1" for cell in cells]


def read_csv(path, columns, parse, what: str):
    """Yield ``(line, parse(cells))`` per non-blank record, ``cells`` being its
    values for ``columns``. A column missing from the header, a record not as
    long as the header, text that is not UTF-8 CSV, or a ``ValueError`` from
    ``parse`` raises a ``FormatError`` naming the file and the line."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
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


def load_manifest(path) -> list[ManifestRow]:
    table = read_scan_table(path, MANIFEST_COLUMNS,
                            lambda cells: (cells[0], cells[1], parse_flags(cells[2:])), "manifest")
    if not table:
        raise FormatError(f"{path}: manifest has no rows")
    return [ManifestRow(scan_id, patient_id, volume_path, ScanLabels.from_vector(flags))
            for scan_id, (patient_id, volume_path, flags) in table.items()]


def load_decisions(path, rows) -> np.ndarray:
    table = read_scan_table(path, DECISION_COLUMNS, parse_flags, "decisions CSV")
    check_manifest_coverage(path, "decisions CSV", table, rows)
    return np.array([table[row.scan_id] for row in rows], dtype=bool)


def load_slice_labels(path) -> dict[str, np.ndarray]:
    return read_slice_table(path, SLICE_LABEL_COLUMNS, parse_flags, "slice label CSV")


def load_slice_probs(path) -> dict[str, np.ndarray]:
    result = read_slice_table(path, PROB_COLUMNS, lambda cells: [float(c) for c in cells],
                              "probability CSV")
    for scan_id, rows in result.items():
        if rows.min() < 0.0 or rows.max() > 1.0 or not np.isfinite(rows).all():
            raise FormatError(f"{path}: probabilities for scan {scan_id} outside [0, 1]")
    return result
