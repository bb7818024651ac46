"""The CSV table layer: a well-formed table loads, and a malformed one fails
with a PipelineError that names the file, never with a bare exception."""

import csv
import io

import pytest
from hypothesis import given, settings, strategies as st

from hemtriage.cli import _load_decisions
from hemtriage.errors import PipelineError
from hemtriage.fileio import read_csv, write_csv
from hemtriage.slicemodel import load_slice_probs
from hemtriage.volume import (HEMORRHAGE_TYPES, ManifestRow, ScanLabels, load_manifest,
                              load_slice_labels)

flag_cells = st.lists(st.sampled_from(("0", "1")), min_size=5, max_size=5)
prob_cells = st.lists(st.floats(0.0, 1.0).map(repr), min_size=5, max_size=5)
cell_text = st.text(alphabet='01x.-e, "\n', max_size=4)


def manifest_rows(scan_ids):
    return [ManifestRow(scan_id, "p", "x.ctv", ScanLabels.from_vector([0] * 5))
            for scan_id in scan_ids]


@st.composite
def scan_table(draw, columns, cells):
    """A well-formed per-scan table: header, then one row per scan."""
    num_scans = draw(st.integers(1, 3))
    scan_ids = [f"s{i}" for i in range(num_scans)]
    return scan_ids, list(columns), [[scan_id] + draw(cells) for scan_id in scan_ids]


@st.composite
def slice_table(draw, columns, cells):
    """A well-formed per-slice table: each scan's slices numbered from 0."""
    scan_ids, header, _ = draw(scan_table(columns, cells))
    rows = [[scan_id, str(index)] + draw(cells)
            for scan_id in scan_ids for index in range(draw(st.integers(1, 3)))]
    return scan_ids, header, rows


READERS = {
    "manifest": (
        scan_table(("scan_id", "patient_id", "path") + HEMORRHAGE_TYPES,
                   flag_cells.map(lambda flags: ["p0", "x.ctv"] + flags)),
        lambda path, scan_ids: load_manifest(path)),
    "decisions": (
        scan_table(("scan_id",) + HEMORRHAGE_TYPES, flag_cells),
        lambda path, scan_ids: _load_decisions(path, manifest_rows(scan_ids))),
    "slice labels": (
        slice_table(("scan_id", "slice_index") + HEMORRHAGE_TYPES, flag_cells),
        lambda path, scan_ids: load_slice_labels(path)),
    "probabilities": (
        slice_table(("scan_id", "slice_index") + tuple(f"p_{t}" for t in HEMORRHAGE_TYPES),
                    prob_cells),
        lambda path, scan_ids: load_slice_probs(path)),
}

edits = st.lists(st.one_of(
    st.tuples(st.just("truncate"), st.integers(0, 99), st.integers(1, 8)),
    st.tuples(st.just("extend"), st.integers(0, 99), cell_text),
    st.tuples(st.just("drop column"), st.integers(0, 99)),
    st.tuples(st.just("extra column"), cell_text),
    st.tuples(st.just("garble"), st.integers(0, 99), st.integers(0, 99), cell_text),
    st.tuples(st.just("repeat"), st.integers(0, 99)),
    st.tuples(st.just("empty")),
), max_size=3)


def apply_edit(header, rows, edit):
    kind, *args = edit
    if kind == "empty":
        return [], []
    if kind == "extra column":
        return header + ["extra"], [row + [args[0]] for row in rows]
    if kind == "drop column" and header:
        j = args[0] % len(header)
        return header[:j] + header[j + 1:], [row[:j] + row[j + 1:] for row in rows]
    if not rows:
        return header, rows
    i = args[0] % len(rows)
    row = rows[i]
    if kind == "truncate":
        row = row[:max(0, len(row) - args[1])]
    elif kind == "extend":
        row = row + [args[1]]
    elif kind == "garble" and row:
        row = list(row)
        row[args[1] % len(row)] = args[2]
    elif kind == "repeat":
        return header, rows + [row]
    return header, rows[:i] + [row] + rows[i + 1:]


@pytest.mark.parametrize("reader", sorted(READERS))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_reader_fails_only_with_pipeline_error_naming_file(tmp_path_factory, reader, data):
    table, load = READERS[reader]
    scan_ids, header, rows = data.draw(table)
    changes = data.draw(edits)
    for edit in changes:
        header, rows = apply_edit(header, rows, edit)
    buf = io.StringIO()
    if header:
        csv.writer(buf, lineterminator="\n").writerows([header] + rows)
    path = tmp_path_factory.getbasetemp() / f"fuzz_{reader.replace(' ', '_')}.csv"
    path.write_text(buf.getvalue())
    try:
        load(path, scan_ids)
    except PipelineError as exc:
        assert str(path) in str(exc)
        assert changes, f"well-formed table rejected: {exc}"


def test_write_then_read_round_trips_cells_and_lines(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ("a", "b"), [("x", 1), ("y, z", 2)])
    assert path.read_text() == 'a,b\nx,1\n"y, z",2\n'
    assert list(read_csv(path, ("b", "a"), tuple, "table")) == [(2, ("1", "x")),
                                                                (3, ("2", "y, z"))]
