import json
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from hemtriage import gbdt, slicemodel, volume
from hemtriage.errors import DataError, FormatError
from hemtriage.slicemodel import (BLOOD_BAND, DEFAULT_REFERENCE_CONFIG, FEATURE_LENGTH,
                                  HISTOGRAM_BINS, SliceInput, extract_features,
                                  load_slice_model, load_slice_probs, predict_by_scan,
                                  save_slice_model, save_slice_probs, slice_positions,
                                  volume_features)
from hemtriage.volume import DEFAULT_WINDOWS, HU_MAX, HU_MIN, WindowSpec, apply_window

from conftest import list_layout_groups, make_volume


BRAIN = WindowSpec(40.0, 80.0)


def window_reference(hu, spec):
    """The window formula, clamp((hu - (center - width/2)) / width, 0, 1)."""
    lower = spec.center - spec.width / 2.0
    return np.clip((np.asarray(hu, dtype=np.float64) - lower) / spec.width, 0.0, 1.0)


def slice_features_reference(image, position):
    """Test oracle: the per-slice featurizer that ``extract_features``
    replaced, over one (3, height, width) windowed slice."""
    out = np.empty(FEATURE_LENGTH)
    cursor = 0
    for channel in range(3):
        pixels = image[channel].ravel()
        hist, _ = np.histogram(pixels, bins=HISTOGRAM_BINS, range=(0.0, 1.0))
        out[cursor:cursor + HISTOGRAM_BINS] = hist
        cursor += HISTOGRAM_BINS
        out[cursor] = pixels.mean()
        out[cursor + 1] = pixels.std()
        out[cursor + 2:cursor + 5] = np.percentile(pixels, (5, 50, 95))
        out[cursor + 5] = float(np.mean((pixels >= BLOOD_BAND[0]) & (pixels <= BLOOD_BAND[1])))
        cursor += 6
    out[cursor] = position
    return out


def volume_features_reference(hu, specs):
    """The oracle's rows for every slice of an HU stack, one slice at a time."""
    return np.array([slice_features_reference(np.stack([window_reference(one, spec)
                                                        for spec in specs]), position)
                     for one, position in zip(hu, slice_positions(len(hu)))])


def features_of(hu, specs=DEFAULT_WINDOWS, position=None):
    """The feature rows of a single-slice HU stack filled from ``hu``."""
    hu = np.asarray(hu, dtype=np.int16)[None]
    return extract_features(hu, [0.0] if position is None else [position], specs)[0]


@st.composite
def stacks_and_windows(draw):
    """An HU stack of 1-5 slices of 1-8 x 1-8 pixels (over the whole HU
    range, in a narrow band, or constant at a landmark value) and three
    windows: the defaults, random ones as narrow as 0.01 HU, or windows
    placed on the stack's own pixels."""
    shape = (draw(st.integers(1, 5)), draw(st.integers(1, 8)), draw(st.integers(1, 8)))
    kind = draw(st.sampled_from(["full", "band", "constant"]))
    if kind == "constant":
        hu = np.full(shape, draw(st.sampled_from([HU_MIN, 0, 40, HU_MAX])), dtype=np.int16)
    else:
        low = HU_MIN if kind == "full" else draw(st.integers(HU_MIN, HU_MAX - 8))
        high = HU_MAX if kind == "full" else low + 8
        hu = draw(arrays(np.int16, shape, elements=st.one_of(
            st.integers(low, high), st.sampled_from([low, high]))))
    placement = draw(st.sampled_from(["default", "random", "on_pixels"]))
    if placement == "default":
        return hu, DEFAULT_WINDOWS
    if placement == "random":
        window = st.builds(WindowSpec, center=st.floats(-1100.0, 4200.0),
                           width=st.floats(0.01, 3000.0))
    else:
        # A window whose lower end lies a whole number of HU below a pixel
        # puts windowed values exactly on histogram edges (k/16) and on the
        # blood band's ends (11/20 == 0.55 and 19/20 == 0.95 in floating point).
        pixels = hu.ravel().tolist()
        window = st.sampled_from([0.5, 1.0, 16.0, 20.0, 80.0]).flatmap(
            lambda width: st.builds(lambda pixel, step: WindowSpec(pixel - step + width / 2, width),
                                    st.sampled_from(pixels), st.integers(0, int(width))))
    return hu, (draw(window), draw(window), draw(window))


class TestExtractFeatures:
    @settings(max_examples=300, deadline=None)
    @given(case=stacks_and_windows())
    def test_equals_per_slice_oracle_byte_for_byte(self, case):
        hu, specs = case
        rows = extract_features(hu, slice_positions(len(hu)), specs)
        expected = volume_features_reference(hu, specs)
        assert rows.shape == expected.shape == (len(hu), FEATURE_LENGTH)
        assert rows.tobytes() == expected.tobytes()

    def test_all_zero_image(self):
        feats = features_of(np.full((8, 8), HU_MIN))  # air is 0 in every default window
        assert feats.shape == (FEATURE_LENGTH,)
        for channel in range(3):
            hist = feats[channel * 22:channel * 22 + HISTOGRAM_BINS]
            assert hist[0] == 64 and hist[1:].sum() == 0
            mean, std = feats[channel * 22 + 16], feats[channel * 22 + 17]
            assert mean == 0.0 and std == 0.0

    def test_all_half_image(self):
        feats = features_of(np.full((8, 8), 40), (BRAIN, BRAIN, BRAIN))  # the window centre
        bin_of_half = int(0.5 * HISTOGRAM_BINS)  # left-inclusive binning
        for channel in range(3):
            hist = feats[channel * 22:channel * 22 + HISTOGRAM_BINS]
            assert hist[bin_of_half] == 64
            assert feats[channel * 22 + 16] == 0.5

    def test_half_zero_half_one(self):
        hu = np.full((4, 4), HU_MIN)
        hu[:2, :] = HU_MAX
        feats = features_of(hu)
        for channel in range(3):
            hist = feats[channel * 22:channel * 22 + HISTOGRAM_BINS]
            assert hist[0] == 8 and hist[-1] == 8
            assert feats[channel * 22 + 16] == 0.5  # mean
            assert feats[channel * 22 + 17] == 0.5  # population std

    def test_histogram_sums_to_pixel_count(self, rng):
        feats = features_of(rng.integers(HU_MIN, HU_MAX + 1, (7, 5)))
        for channel in range(3):
            hist = feats[channel * 22:channel * 22 + HISTOGRAM_BINS]
            assert hist.sum() == 35

    def test_blood_band_fraction(self):
        hu = np.full((2, 2), HU_MIN)
        hu[0, 0] = 56  # 0.7 in the brain window, inside [0.55, 0.95]
        feats = features_of(hu, (BRAIN, BRAIN, BRAIN))
        assert BLOOD_BAND == (0.55, 0.95)
        for channel in range(3):
            assert feats[channel * 22 + 21] == pytest.approx(0.25)

    def test_blood_band_is_closed(self):
        # 44/80 == 0.55 and 76/80 == 0.95 lie on the band's ends; 43 and 77 lie outside.
        feats = features_of([[44, 76], [43, 77]], (BRAIN, BRAIN, BRAIN))
        for channel in range(3):
            assert feats[channel * 22 + 21] == 0.5

    def test_position_is_last_feature(self):
        feats = features_of(np.full((8, 8), HU_MIN), position=0.375)
        assert feats[-1] == 0.375

    def test_non_integer_rejected(self):
        with pytest.raises(DataError, match="integer HU"):
            extract_features(np.zeros((1, 4, 4)), [1.0])

    @pytest.mark.parametrize("shape", [(4, 4), (1, 1, 4, 4), (0, 4, 4), (1, 0, 4)])
    def test_wrong_shape_rejected(self, shape):
        with pytest.raises(DataError, match="HU stack"):
            extract_features(np.zeros(shape, dtype=np.int16), np.ones(shape[0]))

    @pytest.mark.parametrize("position", [[0.5], [0.5, 1.0, 1.0], 0.5])
    def test_position_per_slice(self, position):
        with pytest.raises(DataError, match="expected 2 slice positions"):
            extract_features(np.zeros((2, 4, 4), dtype=np.int16), position)

    @pytest.mark.parametrize("value", [HU_MIN - 1, HU_MAX + 1])
    def test_out_of_range_hu_rejected(self, value):
        hu = np.zeros((1, 2, 2), dtype=np.int32)
        hu[0, 1, 1] = value
        with pytest.raises(DataError, match=rf"\[{HU_MIN}, {HU_MAX}\]"):
            extract_features(hu, [1.0])

    def test_checks_run_in_order_dtype_shape_positions_range(self):
        # Each input fails every check after the one it is meant to fail.
        hu = np.full((2, 4), HU_MAX + 1.0)
        with pytest.raises(DataError, match=re.escape("expected integer HU values, got dtype "
                                                      "float64")):
            extract_features(hu, [0.5, 1.0, 1.0])
        hu = hu.astype(np.int32)
        with pytest.raises(DataError, match=re.escape("expected a non-empty (slices, height, "
                                                      "width) HU stack, got shape (2, 4)")):
            extract_features(hu, [0.5, 1.0, 1.0])
        hu = hu[None]
        with pytest.raises(DataError, match=re.escape("expected 1 slice positions, "
                                                      "got shape (3,)")):
            extract_features(hu, [0.5, 1.0, 1.0])
        with pytest.raises(DataError, match=re.escape(f"HU values must lie in "
                                                      f"[{HU_MIN}, {HU_MAX}]")):
            extract_features(hu, [1.0])


class TestWindowTables:
    def test_tables_are_built_once_per_window(self, monkeypatch):
        calls = []

        def counting(slice_hu, spec, out=None):
            calls.append(spec)
            return apply_window(slice_hu, spec, out)

        monkeypatch.setattr(volume, "apply_window", counting)
        volume.window_table.cache_clear()
        slicemodel._level_bounds.cache_clear()
        specs = (WindowSpec(41.25, 77.5), WindowSpec(83.5, 190.0), WindowSpec(37.75, 365.0))
        volumes = [make_volume(scan_id=f"s{n}", num_slices=n, seed=n) for n in (3, 5, 1, 4)]
        warm_up = volume_features(volumes[0], specs)
        assert calls == list(specs)  # one table over the HU range per window
        calls.clear()
        rows = [volume_features(one, specs) for one in volumes[1:]]
        assert calls == []
        for one, got in zip(volumes, [warm_up] + rows):
            assert got.tobytes() == volume_features_reference(one.slices, specs).tobytes()


def make_separable(rng, n=120):
    """Features whose column 0 linearly separates every type."""
    X = rng.random((n, FEATURE_LENGTH))
    labels = np.tile((X[:, 0] > 0.5)[:, None], (1, 5))
    return X, labels


def train_reference(X, labels):
    return gbdt.train_ensemble(X, labels, (DEFAULT_REFERENCE_CONFIG,))


class TestReferenceModel:
    def test_separable_reaches_perfect_training_accuracy(self, rng):
        X, labels = make_separable(rng)
        probs = train_reference(X, labels).predict(X)
        assert np.array_equal(probs >= 0.5, labels)

    def test_all_negative_type_constant_clipped_base_rate(self, rng):
        X, labels = make_separable(rng)
        labels = labels.copy()
        labels[:, 2] = False
        with pytest.warns(UserWarning):
            model = train_reference(X, labels)
        probs = model.predict(X)
        assert np.allclose(probs[:, 2], 1e-6)

    def test_predict_consumes_volume_features(self, rng):
        X, labels = make_separable(rng)
        out = train_reference(X, labels).predict(
            volume_features(make_volume(num_slices=4, seed=3)))
        assert out.shape == (4, 5) and np.all((out > 0) & (out < 1))


class TestPredictSlices:
    def test_row_count_matches_slices(self):
        # One predict call over every scan; rows go back to their scans in input order.
        calls = []

        def predict(rows):
            calls.append(len(rows))
            return rows[:, -1:] * np.ones(5)

        volumes = [make_volume(scan_id=f"s{n}", num_slices=n, seed=n) for n in (7, 1, 3)]
        probs = predict_by_scan(predict, {v.scan_id: volume_features(v) for v in volumes})
        assert calls == [11]
        assert list(probs) == ["s7", "s1", "s3"]
        for volume in volumes:
            expected = slice_positions(volume.num_slices)[:, None] * np.ones(5)
            np.testing.assert_array_equal(probs[volume.scan_id], expected)

    def test_positions_are_one_based_fractions(self):
        np.testing.assert_allclose(slice_positions(4), [0.25, 0.5, 0.75, 1.0])

    def test_volume_features_shape(self):
        volume = make_volume(num_slices=3, seed=8)
        feats = volume_features(volume, DEFAULT_WINDOWS)
        assert feats.shape == (3, FEATURE_LENGTH)
        np.testing.assert_allclose(feats[:, -1], [1 / 3, 2 / 3, 1.0])


class TestProbCsv:
    def test_round_trip(self, tmp_path, rng):
        probs = {"s1": rng.random((4, 5)), "s0": rng.random((2, 5))}
        path = tmp_path / "probs.csv"
        save_slice_probs(probs, path)
        loaded = load_slice_probs(path)
        assert set(loaded) == {"s0", "s1"}
        np.testing.assert_array_equal(loaded["s1"], probs["s1"])  # repr round-trips exactly

    def test_rejects_gap(self, tmp_path):
        path = tmp_path / "probs.csv"
        path.write_text("scan_id,slice_index,p_edh,p_sdh,p_sah,p_ivh,p_iph\n"
                        "s0,0,0.1,0.1,0.1,0.1,0.1\ns0,2,0.1,0.1,0.1,0.1,0.1\n")
        with pytest.raises(FormatError, match="contiguous"):
            load_slice_probs(path)

    def test_rejects_out_of_range(self, tmp_path):
        path = tmp_path / "probs.csv"
        path.write_text("scan_id,slice_index,p_edh,p_sdh,p_sah,p_ivh,p_iph\n"
                        "s0,0,0.1,0.1,1.2,0.1,0.1\n")
        with pytest.raises(FormatError):
            load_slice_probs(path)

    def test_short_row_names_file_and_line(self, tmp_path):
        path = tmp_path / "probs.csv"
        path.write_text("scan_id,slice_index,p_edh,p_sdh,p_sah,p_ivh,p_iph\n"
                        "s1,0,0.1,0.2\n")
        with pytest.raises(FormatError, match=r"probs\.csv: line 2: 4 cells but the header has 7"):
            load_slice_probs(path)


class TestSliceModelFile:
    @staticmethod
    def write(path, ensemble):
        save_slice_model(ensemble, "ref", SliceInput(DEFAULT_WINDOWS, (24, 32)), path)
        return json.loads(path.read_text())

    def test_round_trip(self, tmp_path, rng):
        path = tmp_path / "slice_model.json"
        ensemble = train_reference(*make_separable(rng, n=60))
        assert self.write(path, ensemble)["identity"] == "ref"
        restored, expected = load_slice_model(path)
        assert expected == SliceInput(DEFAULT_WINDOWS, (24, 32))
        probe = rng.random((8, FEATURE_LENGTH))
        assert np.array_equal(restored.predict(probe), ensemble.predict(probe))

    @pytest.mark.parametrize("edit, message", [
        ({"version": 1, "slice_shape": None}, "unsupported version 1"),
        ({"slice_shape": None}, "slice_shape must be two positive integers"),
        ({"slice_shape": [24]}, "slice_shape must be two positive integers"),
        ({"slice_shape": [24, 0]}, "slice_shape must be two positive integers"),
        ({"slice_shape": [24, 32.0]}, "slice_shape must be two positive integers"),
        ({"slice_shape": [24, True]}, "slice_shape must be two positive integers"),
        ({"windows": [[10 ** 400, 80]] * 3}, "malformed slice model windows"),  # past float range
        ({"windows": [[True, 80]] * 3}, "malformed slice model windows"),
        ({"windows": [["40", "80"]] * 3}, "malformed slice model windows"),
        ({"identity": 3}, "slice model identity must be a string"),
    ])
    def test_rejects_version_1_and_bad_own_fields(self, tmp_path, rng, edit, message):
        path = tmp_path / "slice_model.json"
        payload = self.write(path, train_reference(*make_separable(rng, n=60)))
        path.write_text(json.dumps({**payload, **edit}))
        with pytest.raises(FormatError, match=f"{re.escape(str(path))}: {message}"):
            load_slice_model(path)

    def test_version_2_layout_rejected(self, tmp_path, rng):
        # Version 2 kept one flat list of tagged model records.
        path = tmp_path / "slice_model_v2.json"
        record = self.write(path, train_reference(*make_separable(rng, n=60)))
        models = [{"format": "hemtriage/gbdt-model", "version": 1, **model}
                  for model in record.pop("groups")[0]]
        path.write_text(json.dumps({**record, "version": 2, "models": models}))
        with pytest.raises(FormatError, match=f"{re.escape(str(path))}: unsupported version 2"):
            load_slice_model(path)

    def test_version_3_layout_rejected(self, tmp_path, rng):
        path = tmp_path / "slice_model_v3.json"
        ensemble = train_reference(*make_separable(rng, n=60))
        record = self.write(path, ensemble)
        path.write_text(json.dumps({**record, "version": 3,
                                    "groups": list_layout_groups(ensemble)}))
        with pytest.raises(FormatError, match=f"{re.escape(str(path))}: unsupported version 3"):
            load_slice_model(path)

    @pytest.mark.parametrize("num_groups, num_types, num_features, message", [
        (1, 4, FEATURE_LENGTH, "a slice-model must cover 5 types, got 4"),
        (1, 5, FEATURE_LENGTH - 1, f"a slice model needs one group of {FEATURE_LENGTH}-feature "
                                   f"models, got 1 groups of {FEATURE_LENGTH - 1}-feature models"),
        (2, 5, FEATURE_LENGTH, f"a slice model needs one group of {FEATURE_LENGTH}-feature "
                               f"models, got 2 groups of {FEATURE_LENGTH}-feature models"),
    ])
    def test_rejects_models_of_another_shape(self, tmp_path, rng, num_groups, num_types,
                                             num_features, message):
        X = rng.random((30, num_features))
        models = tuple(gbdt.train(X, X[:, t] > 0.5, gbdt.GbdtConfig(rounds=2, max_leaves=3))
                       for t in range(num_types))
        path = tmp_path / "slice_model.json"
        self.write(path, gbdt.GbdtEnsemble(groups=(models,) * num_groups))
        with pytest.raises(FormatError, match=f"{re.escape(str(path))}: {message}"):
            load_slice_model(path)
