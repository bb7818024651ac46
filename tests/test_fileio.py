"""The table and JSON layers: a well-formed file loads, and a malformed one
fails with a PipelineError that names the file, never with a bare exception."""

import copy
import csv
import io
import json
from functools import cache

import numpy as np

import pytest
from hypothesis import given, settings, strategies as st

import rowwise_csv
from hemtriage import gbdt
from hemtriage.cli import _load_decisions
from hemtriage.errors import FormatError, PipelineError
from hemtriage.fileio import CsvColumns, write_csv
from hemtriage.slicemodel import (FEATURE_LENGTH, SliceInput, load_slice_model,
                                  load_slice_probs, save_slice_model, save_slice_probs)
from hemtriage.stacker import load_stacker_model, save_stacker_model, window_length
from hemtriage.thresholds import PUBLISHED_THRESHOLDS, load_thresholds, save_thresholds
from hemtriage.volume import (DEFAULT_WINDOWS, HEMORRHAGE_TYPES, ManifestRow, ScanLabels,
                              load_manifest, load_slice_labels)

flag_cells = st.lists(st.sampled_from(("0", "1")), min_size=5, max_size=5)
prob_cells = st.lists(st.floats(0.0, 1.0).map(repr), min_size=5, max_size=5)
cell_text = st.text(alphabet='01x.-e, "\n', max_size=4)
# Scan ids the writer has to quote (a comma, a quote, a newline) or keeps as is.
scan_id_text = st.sampled_from(("s0", "s1", "s,2", 's"3', "s\n4", "s\r\n5", " s6"))
# Line endings, and the records that a blank line goes before.
dialects = st.tuples(st.sampled_from(("\n", "\r\n")), st.sets(st.integers(0, 12), max_size=3))


def manifest_rows(scan_ids):
    return [ManifestRow(scan_id, "p", "x.ctv", ScanLabels.from_vector([0] * 5))
            for scan_id in scan_ids]


@st.composite
def scan_table(draw, columns, cells):
    """A well-formed per-scan table: header, then one row per scan."""
    scan_ids = draw(st.lists(scan_id_text, min_size=1, max_size=3, unique=True))
    return scan_ids, list(columns), [[scan_id] + draw(cells) for scan_id in scan_ids]


@st.composite
def slice_table(draw, columns, cells):
    """A well-formed per-slice table: each scan's slices numbered from 0, the
    rows of all scans in any order."""
    scan_ids, header, _ = draw(scan_table(columns, cells))
    rows = [[scan_id, str(index)] + draw(cells)
            for scan_id in scan_ids for index in range(draw(st.integers(1, 3)))]
    return scan_ids, header, draw(st.permutations(rows))


# Each reader: a strategy for its well-formed table, the package's loader and
# the record-by-record reference loader, both called as load(path, scan_ids).
READERS = {
    "manifest": (
        scan_table(("scan_id", "patient_id", "path") + HEMORRHAGE_TYPES,
                   flag_cells.map(lambda flags: ["p0", "scans, 1/x.ctv"] + flags)),
        lambda path, scan_ids: load_manifest(path),
        lambda path, scan_ids: rowwise_csv.load_manifest(path)),
    "decisions": (
        scan_table(("scan_id",) + HEMORRHAGE_TYPES, flag_cells),
        lambda path, scan_ids: _load_decisions(path, manifest_rows(scan_ids)),
        lambda path, scan_ids: rowwise_csv.load_decisions(path, manifest_rows(scan_ids))),
    "slice labels": (
        slice_table(("scan_id", "slice_index") + HEMORRHAGE_TYPES, flag_cells),
        lambda path, scan_ids: load_slice_labels(path),
        lambda path, scan_ids: rowwise_csv.load_slice_labels(path)),
    "probabilities": (
        slice_table(rowwise_csv.PROB_COLUMNS, prob_cells),
        lambda path, scan_ids: load_slice_probs(path),
        lambda path, scan_ids: rowwise_csv.load_slice_probs(path)),
}

edits = st.lists(st.one_of(
    st.tuples(st.just("truncate"), st.integers(0, 99), st.integers(1, 8)),
    st.tuples(st.just("extend"), st.integers(0, 99), cell_text),
    st.tuples(st.just("drop column"), st.integers(0, 99)),
    st.tuples(st.just("extra column"), cell_text),
    st.tuples(st.just("garble"), st.integers(0, 99), st.integers(0, 99), cell_text),
    st.tuples(st.just("garble"), st.integers(0, 99), st.integers(0, 99),
              st.sampled_from(("nan", "-inf", "1e999", "1.5", "-1e-300", "+1", " 1 ", "1_0"))),
    st.tuples(st.just("repeat"), st.integers(0, 99)),
    st.tuples(st.just("empty")),
), max_size=3)
# Bytes put into the written file at a fraction of its length: not UTF-8, or
# a byte-order mark (leading, it is skipped; inside, it is a character).
csv_byte_edits = st.one_of(st.none(), st.tuples(st.floats(0.0, 1.0),
                                                st.sampled_from((b"\xff", b"\xef\xbb\xbf"))))


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


def write_table(path, header, rows, dialect=("\n", ()), insert=None):
    """``header`` and ``rows`` as CSV with the dialect's line ending and blank
    lines; nothing at all when ``header`` is empty. ``insert`` is a
    (fraction, bytes) put into the file's bytes."""
    terminator, blanks = dialect
    buf = io.StringIO()
    if header:
        writer = csv.writer(buf, lineterminator=terminator)
        writer.writerow(header)
        for i, row in enumerate(rows):
            if i in blanks:
                buf.write(terminator)
            writer.writerow(row)
    raw = buf.getvalue().encode()
    if insert is not None:
        at = int(insert[0] * len(raw))
        raw = raw[:at] + insert[1] + raw[at:]
    path.write_bytes(raw)


def draw_table(data, reader):
    table = READERS[reader][0]
    scan_ids, header, rows = data.draw(table)
    changes = data.draw(edits)
    for edit in changes:
        header, rows = apply_edit(header, rows, edit)
    return scan_ids, header, rows, changes


@pytest.mark.parametrize("reader", sorted(READERS))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_reader_fails_only_with_pipeline_error_naming_file(tmp_path_factory, reader, data):
    scan_ids, header, rows, changes = draw_table(data, reader)
    path = tmp_path_factory.getbasetemp() / f"fuzz_{reader.replace(' ', '_')}.csv"
    write_table(path, header, rows, data.draw(dialects))
    try:
        READERS[reader][1](path, scan_ids)
    except PipelineError as exc:
        assert str(path) in str(exc)
        assert changes, f"well-formed table rejected: {exc}"


def outcome(load, path, scan_ids):
    """What ``load`` returns, or the exception it raises."""
    try:
        return load(path, scan_ids)
    except Exception as exc:  # the comparison below wants the class and message of any
        return exc


def first_probability_outside(path):
    """The range error for the first probability outside [0, 1] in file
    order, found record by record."""
    parse = lambda cells: (cells[0], [float(cell) for cell in cells[2:]])  # noqa: E731
    for line, (scan_id, values) in rowwise_csv.read_csv(path, rowwise_csv.PROB_COLUMNS, parse,
                                                        "probability CSV"):
        for column, value in zip(rowwise_csv.PROB_COLUMNS[2:], values):
            if not 0.0 <= value <= 1.0:
                return FormatError(f"{path}: line {line}: {column} {value!r} "
                                   f"for scan {scan_id} outside [0, 1]")
    raise AssertionError("no probability outside [0, 1]")


def assert_same(got, expected):
    """Same exception class and message, or same keys in the same order and
    arrays of the same dtype, shape and bytes."""
    if isinstance(expected, Exception):
        assert (type(got), str(got)) == (type(expected), str(expected))
        return
    assert not isinstance(got, Exception), got
    if isinstance(expected, np.ndarray):
        got, expected = [got], [expected]
    elif isinstance(expected, dict):
        assert list(got) == list(expected)
        got, expected = list(got.values()), list(expected.values())
    if expected and isinstance(expected[0], np.ndarray):
        for a, b in zip(got, expected, strict=True):
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
    else:
        assert got == expected


@pytest.mark.parametrize("reader", sorted(READERS))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_column_read_matches_rowwise_reference(tmp_path_factory, reader, data):
    scan_ids, header, rows, _ = draw_table(data, reader)
    path = tmp_path_factory.getbasetemp() / f"oracle_{reader.replace(' ', '_')}.csv"
    write_table(path, header, rows, data.draw(dialects), data.draw(csv_byte_edits))
    _, load, reference = READERS[reader]
    expected = outcome(reference, path, scan_ids)
    if isinstance(expected, FormatError) and "probabilities for scan" in str(expected):
        expected = first_probability_outside(path)
    assert_same(outcome(load, path, scan_ids), expected)


@pytest.mark.parametrize("repeat_at", [None, 5, 590])
def test_bytes_that_are_not_utf8_past_the_first_read_fail_in_file_order(tmp_path, repeat_at):
    """The reader decodes the file in chunks, so text that is not UTF-8 far
    into a large file stops it after the records before that chunk; a bad
    record among those still fails first."""
    rows = [[f"s{i}", "0", "0.25", "0.5", "0.75", "1.0", "0.0"] for i in range(600)]
    if repeat_at is not None:
        rows[repeat_at] = list(rows[repeat_at - 1])
    path = tmp_path / "probs.csv"
    write_table(path, list(rowwise_csv.PROB_COLUMNS), rows, insert=(0.8, b"\xff"))
    _, load, reference = READERS["probabilities"]
    expected = outcome(reference, path, None)
    assert isinstance(expected, FormatError)
    assert ("duplicate slice" if repeat_at == 5 else "can't decode") in str(expected)
    assert_same(outcome(load, path, None), expected)


HUGE = str(10 ** 30)  # past int64


@pytest.mark.parametrize("keys", [
    ["s0 0", f"s0 {HUGE}"],
    ["s0 0", f"s0 {HUGE}", "s1 0", f"s0 {HUGE}"],
    ["s0 -1", "s0 0", "s0 -1"],
    ["s0 1", "s1 0", "s0 x", "s1 0"],
    ["s0 0", "s1 0", "s1 0", "s0 x"],
    ["s0 0", "s1 0", "s1 0", "s0 0"],
    ["s0 0", "s1 x 2"],
    ["s0 0", "s1 0 2", "s0 x"],
    ["s1 1", "s0 2", "s0 0"],
])
def test_slice_keys_fail_like_rowwise_reference(tmp_path, keys):
    """Each key is "scan slice", or "scan slice flag" with that flag cell
    put in the first flag column."""
    path = tmp_path / "labels.csv"
    rows = [key.split() for key in keys]
    write_table(path, list(rowwise_csv.SLICE_LABEL_COLUMNS),
                [row[:2] + (row[2:] or ["0"]) + ["0"] * 4 for row in rows])
    _, load, reference = READERS["slice labels"]
    expected = outcome(reference, path, None)
    assert isinstance(expected, FormatError)
    assert_same(outcome(load, path, None), expected)


def test_write_then_read_round_trips_cells_and_lines(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ("a", "b"), [("x", 1), ("y, z", 2)])
    assert path.read_text() == 'a,b\nx,1\n"y, z",2\n'
    table = CsvColumns(path, ("b", "a"), "table")
    assert table.cells == [("1", "2"), ("x", "y, z")]
    assert [table.line(0), table.line(1)] == [2, 3]


def test_probability_outside_range_names_first_bad_cell_in_file_order(tmp_path):
    path = tmp_path / "probs.csv"
    header = ",".join(rowwise_csv.PROB_COLUMNS)
    path.write_text(f"{header}\na,0,0.1,0.1,0.1,0.1,0.1\nb,0,0.1,0.1,nan,0.1,0.1\n"
                    f"a,1,1.5,0.1,0.1,0.1,0.1\n")
    with pytest.raises(FormatError,
                       match=r"probs\.csv: line 3: p_sah nan for scan b outside \[0, 1\]$"):
        load_slice_probs(path)


@settings(max_examples=50, deadline=None)
@given(values=st.lists(st.one_of(st.floats(0.0, 1.0),
                                 st.sampled_from((0.0, 1.0, 5e-324, 1 - 2 ** -53))),
                       min_size=5, max_size=60).map(lambda v: v[:len(v) // 5 * 5]))
def test_slice_probs_round_trip_bit_for_bit(tmp_path_factory, values):
    probs = np.array(values, dtype=np.float64).reshape(-1, 5)
    table = {"a": probs[:len(probs) // 2], "b,1": probs[len(probs) // 2:]}
    table = {scan_id: rows for scan_id, rows in table.items() if len(rows)}
    path = tmp_path_factory.getbasetemp() / "round_trip.csv"
    save_slice_probs(table, path)
    loaded = load_slice_probs(path)
    assert list(loaded) == list(table)
    for scan_id, rows in table.items():
        assert loaded[scan_id].dtype == np.float64
        assert loaded[scan_id].tobytes() == rows.tobytes()


def test_probability_csv_with_byte_order_mark_loads_the_same(tmp_path):
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    rng = np.random.default_rng(0)
    save_slice_probs({"s0": rng.random((3, 5)), "s1": rng.random((2, 5))}, plain)
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    assert_same(load_slice_probs(marked), load_slice_probs(plain))


@cache
def small_models(num_features):
    """Five two-round boosters, one per type, on a fixed random table."""
    rng = np.random.default_rng(0)
    features = rng.random((24, num_features))
    config = gbdt.GbdtConfig(rounds=2, max_leaves=3)
    return tuple(gbdt.train(features, features[:, t] > 0.5, config) for t in range(5))


def write_slice_model(path):
    save_slice_model(gbdt.GbdtEnsemble(groups=(small_models(FEATURE_LENGTH),)), "fuzz",
                     SliceInput(DEFAULT_WINDOWS, (8, 8)), path)


def write_stacker_model(path):
    save_stacker_model(gbdt.GbdtEnsemble(groups=(small_models(window_length(1)),)), 1, path)


JSON_LOADERS = {
    "thresholds": (lambda path: save_thresholds(PUBLISHED_THRESHOLDS, path), load_thresholds),
    "slice model": (write_slice_model, load_slice_model),
    "stacker model": (write_stacker_model, load_stacker_model),
}


@pytest.mark.parametrize("write, load, kind", [
    (write_slice_model, load_stacker_model, "stacker-model"),
    (write_stacker_model, load_slice_model, "slice-model"),
])
def test_model_file_of_the_other_kind_rejected(tmp_path, write, load, kind):
    path = tmp_path / "model.json"
    write(path)
    with pytest.raises(PipelineError, match=f"model.json: not a hemtriage/{kind} record"):
        load(path)


OVERFLOW = "overflowing number"  # written as 1e999, which reads as infinity
odd_values = st.sampled_from([None, True, "x", [], {}, [1, 2], [[0]], {"a": 1}, 0, -1, 0.5,
                              2 ** 31, -2 ** 63, 10 ** 30, float("nan"), float("inf"),
                              float("-inf"), 1e308, OVERFLOW]).map(copy.deepcopy)
json_edits = st.lists(st.one_of(
    st.tuples(st.just("drop"), st.integers(0, 10 ** 6)),
    st.tuples(st.just("extra"), st.integers(0, 10 ** 6), odd_values),
    st.tuples(st.just("replace"), st.integers(0, 10 ** 6), odd_values),
), max_size=3)
byte_edits = st.one_of(
    st.none(),
    st.tuples(st.just("truncate"), st.floats(0.0, 1.0, exclude_max=True)),
    st.tuples(st.just("not utf-8"), st.floats(0.0, 1.0),
              st.sampled_from([b"\xff\xfe", b"\x80", b"\xc3("])),
)


def dump(payload) -> bytes:
    return json.dumps(payload).encode().replace(f'"{OVERFLOW}"'.encode(), b"1e999")


def number_slots(payload):
    return [(container, key) for container, key in value_slots(payload)
            if type(container[key]) in (int, float)]


def value_slots(node):
    """Every (container, key) pair in a JSON value, parents before children."""
    children = (node.items() if isinstance(node, dict)
                else enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield node, key
        yield from value_slots(child)


def apply_json_edit(payload, edit):
    kind, index, *value = edit
    slots = list(value_slots(payload))
    if not slots:
        return payload if kind == "drop" else value[0]
    container, key = slots[index % len(slots)]
    if kind == "drop":
        del container[key]
    elif kind == "replace":
        container[key] = value[0]
    elif isinstance(container, dict):
        container["extra"] = value[0]
    else:
        container.append(value[0])
    return payload


@pytest.mark.parametrize("loader", sorted(JSON_LOADERS))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_json_loader_fails_only_with_pipeline_error_naming_file(tmp_path_factory, loader, data):
    write, load = JSON_LOADERS[loader]
    path = tmp_path_factory.getbasetemp() / f"fuzz_{loader.replace(' ', '_')}.json"
    write(path)
    payload = json.loads(path.read_text())
    changes = data.draw(json_edits)
    for edit in changes:
        payload = apply_json_edit(payload, edit)
    raw = dump(payload)
    cut = data.draw(byte_edits)
    if cut is not None:
        at = int(cut[1] * len(raw))
        raw = raw[:at] + (cut[2] + raw[at:] if cut[0] == "not utf-8" else b"")
    path.write_bytes(raw)
    try:
        load(path)
    except PipelineError as exc:
        assert str(path) in str(exc)
        assert changes or cut, f"well-formed file rejected: {exc}"


@pytest.mark.parametrize("loader", sorted(JSON_LOADERS))
def test_json_loader_names_file_on_bytes_that_are_not_utf8(tmp_path, loader):
    path = tmp_path / "model.json"
    path.write_bytes(b"\xff\xfe{}")
    with pytest.raises(PipelineError, match="model.json"):
        JSON_LOADERS[loader][1](path)


@pytest.mark.parametrize("loader", sorted(JSON_LOADERS))
def test_json_loader_rejects_a_number_that_overflows_anywhere(tmp_path, loader):
    write, load = JSON_LOADERS[loader]
    path = tmp_path / "model.json"
    write(path)
    text = path.read_text()
    for i in range(len(number_slots(json.loads(text)))):
        payload = json.loads(text)
        container, key = number_slots(payload)[i]
        container[key] = OVERFLOW
        path.write_bytes(dump(payload))
        with pytest.raises(PipelineError, match="model.json"):
            load(path)
