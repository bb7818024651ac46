import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from hemtriage.errors import ArityError, ConfigError, DataError, FormatError
from hemtriage.volume import (DEFAULT_WINDOWS, HEMORRHAGE_TYPES, HU_MAX, HU_MIN, CtVolume,
                              ManifestRow, ScanLabels, WindowSpec, apply_window, load_manifest,
                              load_manifest_volumes, load_slice_labels, load_volume,
                              save_manifest, save_slice_labels, slice_truth, stack_channels,
                              store_volume, window_table)

from conftest import make_volume

BRAIN = WindowSpec(40, 80)


def header_with(**literals):
    """A volume header line for a 1x1x2 volume, with some fields replaced by
    the given JSON literals."""
    fields = {"scan_id": '"s"', "patient_id": '"p"', "height": "1", "width": "2",
              "num_slices": "1", "slice_thickness_mm": "5.0", **literals}
    return "{" + ", ".join(f'"{key}": {value}' for key, value in fields.items()) + "}"


class TestApplyWindow:
    def test_center_maps_to_midpoint(self):
        assert apply_window(np.array([40]), BRAIN)[0] == 0.5

    def test_lower_edge_is_zero(self):
        assert apply_window(np.array([0]), BRAIN)[0] == 0.0

    def test_above_upper_edge_clamps_to_one(self):
        assert apply_window(np.array([200]), BRAIN)[0] == 1.0

    def test_linear_inside_window(self):
        # (60 - 0) / 80
        assert apply_window(np.array([60]), BRAIN)[0] == pytest.approx(0.75)

    def test_exact_edges(self):
        out = apply_window(np.array([0, 80]), BRAIN)
        assert out[0] == 0.0 and out[1] == 1.0

    def test_nonpositive_width_rejected(self):
        with pytest.raises(ConfigError):
            WindowSpec(40, 0)
        with pytest.raises(ConfigError):
            WindowSpec(40, -10)

    @pytest.mark.parametrize("center, width", [(float("nan"), 80), (float("inf"), 80),
                                               (40, float("inf")), (40, float("nan"))])
    def test_non_finite_window_rejected(self, center, width):
        with pytest.raises(ConfigError):
            WindowSpec(center, width)

    @given(st.integers(-1024, 4095), st.integers(-1024, 4095),
           st.floats(-500, 1500), st.floats(1, 2000))
    def test_monotone_in_hu(self, hu1, hu2, center, width):
        spec = WindowSpec(center, width)
        lo, hi = sorted((hu1, hu2))
        out = apply_window(np.array([lo, hi]), spec)
        assert out[0] <= out[1]
        assert 0.0 <= out[0] <= 1.0 and 0.0 <= out[1] <= 1.0


class TestStackChannels:
    def test_uniform_brain_value_across_default_windows(self):
        # Hand evaluation of clamp((hu - (c - w/2)) / w, 0, 1) at hu = 40:
        #   brain (40, 80):      (40 - 0) / 80    = 0.5
        #   subdural (80, 200):  (40 + 20) / 200  = 0.30
        #   soft (40, 380):      (40 + 150) / 380 = 0.5
        image = stack_channels(np.full((4, 4), 40), DEFAULT_WINDOWS)
        assert image.shape == (3, 4, 4)
        np.testing.assert_allclose(image[:, 0, 0], [0.5, 0.30, 0.5])

    def test_identical_specs_give_identical_channels(self):
        image = stack_channels(np.arange(16).reshape(4, 4), (BRAIN, BRAIN, BRAIN))
        assert np.array_equal(image[0], image[1]) and np.array_equal(image[1], image[2])

    def test_all_air_is_zero_for_defaults(self):
        image = stack_channels(np.full((4, 4), -1024), DEFAULT_WINDOWS)
        assert np.all(image == 0.0)

    def test_channel_k_equals_apply_window(self):
        hu = np.random.default_rng(3).integers(-1024, 4096, (4, 6, 5))  # a whole volume
        image = stack_channels(hu, DEFAULT_WINDOWS)
        assert image.shape == (3, 4, 6, 5)
        for k, spec in enumerate(DEFAULT_WINDOWS):
            assert np.array_equal(image[k], apply_window(hu, spec))

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), dtype=st.sampled_from([np.int16, np.int32, np.int64, np.uint16]),
           specs=st.tuples(*[st.builds(
               WindowSpec,
               center=st.one_of(st.floats(HU_MIN - 50, HU_MAX + 50), st.floats(-1e4, 1e4)),
               width=st.floats(0.01, 3000.0))] * 3))
    def test_channels_are_apply_window_bytes(self, data, dtype, specs):
        # uint16 holds only the non-negative part of the HU range.
        low = max(HU_MIN, np.iinfo(dtype).min)
        if data.draw(st.booleans(), label="every HU value"):
            hu = np.arange(low, HU_MAX + 1, dtype=dtype)
        else:
            shape = data.draw(st.tuples(st.integers(1, 4), st.integers(1, 6), st.integers(1, 6)))
            hu = data.draw(arrays(dtype, shape, elements=st.one_of(
                st.integers(low, HU_MAX), st.sampled_from([low, HU_MAX]))), label="hu")
        image = stack_channels(hu, specs)
        assert image.shape == (3,) + hu.shape and image.dtype == np.float64
        for channel, spec in zip(image, specs):
            assert channel.tobytes() == apply_window(hu, spec).tobytes()

    @pytest.mark.parametrize("hu", [np.zeros((2, 2)), np.array([40.0]), np.array([True])])
    def test_non_integer_hu_rejected(self, hu):
        with pytest.raises(DataError, match="integer HU"):
            stack_channels(hu)

    @pytest.mark.parametrize("hu", [np.array([HU_MIN - 1], dtype=np.int32),
                                    np.array([[0, HU_MAX + 1]], dtype=np.int64),
                                    np.array([65535], dtype=np.uint16)])
    def test_out_of_range_hu_rejected(self, hu):
        with pytest.raises(DataError, match=re.escape(f"[{HU_MIN}, {HU_MAX}]")):
            stack_channels(hu)

    @pytest.mark.parametrize("hu, count", [(np.zeros((2, 2)), 2), (np.zeros((2, 2)), 4),
                                           (np.full((2, 2), HU_MAX + 1), 4)])
    def test_wrong_spec_count(self, hu, count):
        # Checked before the dtype and the range.
        with pytest.raises(ArityError):
            stack_channels(hu, (BRAIN,) * count)


class TestWindowTable:
    def test_is_apply_window_over_the_hu_range(self):
        spec = WindowSpec(-7.5, 0.01)
        table = window_table(spec)
        assert table.shape == (HU_MAX - HU_MIN + 1,)
        assert table.tobytes() == apply_window(np.arange(HU_MIN, HU_MAX + 1), spec).tobytes()

    def test_is_read_only(self):
        table = window_table(BRAIN)
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0] = 1.0

    def test_equal_specs_share_one_table(self):
        assert window_table(WindowSpec(40.0, 80.0)) is window_table(WindowSpec(40, 80))
        assert window_table(WindowSpec(40.0, 80.0)) is not window_table(WindowSpec(40.0, 81.0))


class TestCtVolume:
    def test_rejects_empty(self):
        with pytest.raises(DataError):
            CtVolume("s", "p", np.zeros((0, 4, 4), dtype=np.int16), 5.0)

    def test_rejects_out_of_range_hu(self):
        bad = np.full((1, 2, 2), 5000)
        with pytest.raises(DataError):
            CtVolume("s", "p", bad, 5.0)

    def test_any_derivation(self):
        assert not ScanLabels.from_vector([0, 0, 0, 0, 0]).vector().any()
        assert ScanLabels.from_vector([0, 0, 0, 0, 1]).vector().any()


class TestVolumeFile:
    def test_round_trip_bytes_identical(self, tmp_path):
        volume = make_volume(num_slices=2, height=4, width=4, seed=9)
        path = tmp_path / "v.ctv"
        store_volume(volume, path)
        first = path.read_bytes()
        again = tmp_path / "w.ctv"
        store_volume(load_volume(path), again)
        assert again.read_bytes() == first

    def test_round_trip_preserves_fields(self, tmp_path):
        volume = make_volume(scan_id="abc", patient_id="xyz", num_slices=3, seed=4)
        path = tmp_path / "v.ctv"
        store_volume(volume, path)
        loaded = load_volume(path)
        assert loaded.scan_id == "abc"
        assert loaded.patient_id == "xyz"
        assert loaded.slice_thickness_mm == 5.0
        assert np.array_equal(loaded.slices, volume.slices)

    def test_truncated_payload(self, tmp_path):
        volume = make_volume(num_slices=2, seed=1)
        path = tmp_path / "v.ctv"
        store_volume(volume, path)
        data = path.read_bytes()
        path.write_bytes(data[:-3])
        with pytest.raises(FormatError, match="truncated"):
            load_volume(path)

    def test_trailing_bytes(self, tmp_path):
        volume = make_volume(num_slices=2, seed=1)
        path = tmp_path / "v.ctv"
        store_volume(volume, path)
        path.write_bytes(path.read_bytes() + b"xx")
        with pytest.raises(FormatError, match="trailing"):
            load_volume(path)

    def test_zero_slices_header(self, tmp_path):
        path = tmp_path / "v.ctv"
        header = (b'{"scan_id": "s", "patient_id": "p", "height": 2, "width": 2, '
                  b'"num_slices": 0, "slice_thickness_mm": 5.0}\n')
        path.write_bytes(header)
        with pytest.raises(FormatError, match="empty volume"):
            load_volume(path)

    @pytest.mark.parametrize("header, message", [
        ("not json", "malformed header"),
        (header_with(height="4.7"), "height"),
        (header_with(height='"4"'), "height"),
        (header_with(width="true"), "width"),
        (header_with(num_slices="2.9"), "num_slices"),
        (header_with(scan_id="7"), "scan_id"),
        (header_with(patient_id="null"), "patient_id"),
        (header_with(slice_thickness_mm="Infinity"), "slice_thickness_mm"),
        (header_with(slice_thickness_mm="NaN"), "slice_thickness_mm"),
    ])
    def test_malformed_header(self, tmp_path, header, message):
        path = tmp_path / "v.ctv"
        path.write_bytes(header.encode() + b"\n" + b"\x00" * 4)
        with pytest.raises(FormatError, match=rf"{re.escape(str(path))}: .*{message}"):
            load_volume(path)

    @pytest.mark.parametrize("hu", [-2000, HU_MIN - 1, HU_MAX + 1])
    def test_out_of_range_payload(self, tmp_path, hu):
        path = tmp_path / "v.ctv"
        header = (b'{"scan_id": "s", "patient_id": "p", "height": 1, "width": 2, '
                  b'"num_slices": 1, "slice_thickness_mm": 5.0}\n')
        payload = np.array([[hu, 0]], dtype="<i2").tobytes()
        path.write_bytes(header + payload)
        with pytest.raises(FormatError, match=rf"{re.escape(str(path))}: HU values must lie in "
                                              rf"\[{HU_MIN}, {HU_MAX}\]"):
            load_volume(path)


class TestManifest:
    def test_round_trip(self, tmp_path):
        rows = [
            ManifestRow("s0", "p0", "volumes/s0.ctv", ScanLabels.from_vector([1, 0, 0, 0, 1])),
            ManifestRow("s1", "p0", "volumes/s1.ctv", ScanLabels.from_vector([0, 0, 0, 0, 0])),
        ]
        path = tmp_path / "manifest.csv"
        save_manifest(rows, path)
        loaded = load_manifest(path)
        assert [r.scan_id for r in loaded] == ["s0", "s1"]
        assert loaded[0].labels.edh and loaded[0].labels.iph and not loaded[0].labels.sdh
        assert not loaded[1].labels.vector().any()

    def test_bad_label_cell(self, tmp_path):
        path = tmp_path / "manifest.csv"
        path.write_text("scan_id,patient_id,path,edh,sdh,sah,ivh,iph\ns0,p0,x,2,0,0,0,0\n")
        with pytest.raises(FormatError):
            load_manifest(path)

    def test_missing_column(self, tmp_path):
        path = tmp_path / "manifest.csv"
        path.write_text("scan_id,patient_id,edh,sdh,sah,ivh,iph\ns0,p0,0,0,0,0,0\n")
        with pytest.raises(FormatError):
            load_manifest(path)

    def test_repeated_scan_id_rejected(self, tmp_path):
        # A repeated id would collapse in the fold map (breaking patient
        # grouping) and be counted twice by the metrics.
        path = tmp_path / "manifest.csv"
        path.write_text("scan_id,patient_id,path,edh,sdh,sah,ivh,iph\n"
                        "s0,pA,a.ctv,0,0,0,0,0\ns1,pA,b.ctv,0,0,0,0,0\ns0,pB,c.ctv,1,0,0,0,0\n")
        with pytest.raises(FormatError, match=r"manifest\.csv: line 4: duplicate scan_id 's0'"):
            load_manifest(path)


class TestSliceLabelCsv:
    def test_round_trip(self, tmp_path):
        matrices = {"s0": np.array([[0, 0, 1, 0, 0], [0, 0, 0, 0, 0]], dtype=bool)}
        path = tmp_path / "slices.csv"
        save_slice_labels(matrices, path)
        loaded = load_slice_labels(path)
        assert np.array_equal(loaded["s0"], matrices["s0"])

    def test_gap_in_indices_rejected(self, tmp_path):
        path = tmp_path / "slices.csv"
        path.write_text("scan_id,slice_index,edh,sdh,sah,ivh,iph\n"
                        "s0,0,0,0,0,0,0\ns0,2,0,0,0,0,0\n")
        with pytest.raises(FormatError, match="contiguous"):
            load_slice_labels(path)

    def test_short_row_names_file_and_line(self, tmp_path):
        path = tmp_path / "slices.csv"
        path.write_text("scan_id,slice_index,edh,sdh,sah,ivh,iph\n"
                        "s0,0,0,0,0,0,0\ns1\n")
        with pytest.raises(FormatError, match=r"slices\.csv: line 3: 1 cells but the header has 7"):
            load_slice_labels(path)


def manifest_row(scan_id, flags=(0,) * 5):
    return ManifestRow(scan_id, f"p{scan_id}", f"{scan_id}.ctv", ScanLabels.from_vector(flags))


flag_cells = st.integers(0, 2) | st.booleans()


@settings(max_examples=50, deadline=None)
@given(st.lists(st.lists(st.lists(flag_cells, min_size=5, max_size=5), max_size=4),
                min_size=1, max_size=4),
       st.sampled_from([bool, np.uint8, np.int64]))
def test_slice_label_csv_bytes_match_rowwise_formatting(tmp_path_factory, matrices, dtype):
    """Each flag is written as 0 or 1 (nonzero is 1), one row per slice."""
    matrices = {f"s{i}": np.array(m, dtype=dtype).reshape(-1, 5) for i, m in enumerate(matrices)}
    path = tmp_path_factory.getbasetemp() / "rowwise_slices.csv"
    save_slice_labels(matrices, path)
    lines = ["scan_id,slice_index," + ",".join(HEMORRHAGE_TYPES)]
    lines += [f"{scan_id},{index}," + ",".join(str(int(bool(v))) for v in row)
              for scan_id, matrix in matrices.items() for index, row in enumerate(matrix)]
    assert path.read_bytes() == ("\n".join(lines) + "\n").encode()


@settings(max_examples=50, deadline=None)
@given(st.lists(st.lists(st.booleans(), min_size=5, max_size=5), max_size=5))
def test_manifest_bytes_match_rowwise_formatting(tmp_path_factory, flags):
    rows = [manifest_row(f"s{i}", row_flags) for i, row_flags in enumerate(flags)]
    path = tmp_path_factory.getbasetemp() / "rowwise_manifest.csv"
    save_manifest(iter(rows), path)
    lines = ["scan_id,patient_id,path," + ",".join(HEMORRHAGE_TYPES)]
    lines += [f"{row.scan_id},{row.patient_id},{row.path},"
              + ",".join(str(int(v)) for v in row_flags)
              for row, row_flags in zip(rows, flags)]
    assert path.read_bytes() == ("\n".join(lines) + "\n").encode()


class TestManifestVolumes:
    """load_manifest_volumes reads pixels only; slice_truth is the one place the
    manifest's scan flags and the per-slice label CSV are joined and checked
    against each other and the slice counts."""

    def test_rows_and_volumes_in_row_order(self, tmp_path):
        rows = [manifest_row("s1", (0, 1, 0, 0, 0)), manifest_row("s0")]
        for row, n in zip(rows, (2, 4)):
            store_volume(make_volume(row.scan_id, row.patient_id, num_slices=n, seed=n),
                         tmp_path / row.path)
        save_manifest(rows, tmp_path / "manifest.csv")
        loaded_rows, volumes = load_manifest_volumes(tmp_path / "manifest.csv")
        assert loaded_rows == rows
        assert [(v.scan_id, v.num_slices) for v in volumes] == [("s1", 2), ("s0", 4)]

    @pytest.mark.parametrize("matrix, match", [
        ([[0, 0, 1, 0, 0], [0, 0, 0, 0, 0], [0, 0, 0, 0, 0]], "OR over slice labels"),
        ([[0, 0, 0, 0, 0], [0, 0, 0, 0, 0]], "slice count"),
    ])
    def test_slice_labels_must_agree_with_manifest_and_volume(self, tmp_path, matrix, match):
        labels = tmp_path / "labels.csv"
        save_slice_labels({"s0": np.array(matrix, dtype=bool)}, labels)
        with pytest.raises(FormatError, match=rf"labels\.csv: scan s0: .*{match}"):
            slice_truth([manifest_row("s0")], {"s0": 3}, labels)

    def test_scan_outside_manifest_rejected(self, tmp_path):
        labels = tmp_path / "labels.csv"
        save_slice_labels({"s0": np.zeros((3, 5), dtype=bool),
                           "ghost": np.zeros((2, 5), dtype=bool)}, labels)
        with pytest.raises(ConfigError, match=rf"labels\.csv: slice label CSV has 1 scans "
                                              rf"not in the manifest: \['ghost'\]"):
            slice_truth([manifest_row("s0")], {"s0": 3}, labels)

    def test_unlabelled_scan_broadcasts_its_flags(self, tmp_path):
        labels = tmp_path / "labels.csv"
        save_slice_labels({"s0": np.zeros((3, 5), dtype=bool)}, labels)
        flags = np.array([0, 1, 0, 0, 1], dtype=bool)
        with pytest.warns(UserWarning, match="s1: no per-slice labels; broadcasting"):
            truth = slice_truth([manifest_row("s0"), manifest_row("s1", flags)],
                                {"s0": 3, "s1": 4}, labels)
        assert truth["s1"].dtype == bool
        assert np.array_equal(truth["s1"], np.tile(flags, (4, 1)))
        assert np.array_equal(truth["s0"], np.zeros((3, 5), dtype=bool))

    def test_follows_manifest_row_order(self, tmp_path):
        labels = tmp_path / "labels.csv"
        matrices = {"s0": np.eye(2, 5, dtype=bool), "s2": np.zeros((1, 5), dtype=bool)}
        save_slice_labels(matrices, labels)
        rows = [manifest_row("s2"), manifest_row("s1"), manifest_row("s0", (1, 1, 0, 0, 0))]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            truth = slice_truth(rows, {"s0": 2, "s1": 5, "s2": 1}, labels)
        assert list(truth) == ["s2", "s1", "s0"]
        assert np.array_equal(truth["s0"], matrices["s0"])
        assert truth["s1"].shape == (5, 5) and not truth["s1"].any()
