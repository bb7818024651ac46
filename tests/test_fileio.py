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

from hemtriage import gbdt
from hemtriage.cli import _load_decisions
from hemtriage.errors import PipelineError
from hemtriage.fileio import read_csv, write_csv
from hemtriage.slicemodel import (FEATURE_LENGTH, SliceInput, load_slice_model,
                                  load_slice_probs, save_slice_model)
from hemtriage.stacker import load_stacker_model, save_stacker_model, window_length
from hemtriage.thresholds import PUBLISHED_THRESHOLDS, load_thresholds, save_thresholds
from hemtriage.volume import (DEFAULT_WINDOWS, HEMORRHAGE_TYPES, ManifestRow, ScanLabels,
                              load_manifest, load_slice_labels)

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
