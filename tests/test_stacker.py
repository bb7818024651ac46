import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hemtriage import gbdt
from hemtriage.errors import ArityError, ConfigError, DataError, FormatError
from hemtriage.metrics import compute_auc
from hemtriage.stacker import (apply_stacker_all, build_windows, load_stacker_model,
                               save_stacker_model, stack_training_data, train_stacker,
                               window_length)

from conftest import list_layout_groups

# Small synthetic scans routinely leave some type without positives; the
# base-rate fallback warning is expected there.
pytestmark = pytest.mark.filterwarnings("ignore:all labels belong to one class")


def prob_rows(*rows):
    return np.array(rows, dtype=np.float64)


def apply_one(ensemble, rows, delta_s):
    """Refined rows of a single scan."""
    return apply_stacker_all(ensemble, {"s": rows}, delta_s)["s"]


class TestBuildWindows:
    def test_zero_delta_is_identity(self, rng):
        rows = rng.random((6, 5))
        assert np.array_equal(build_windows(rows, 0), rows)

    def test_delta_one_edge_replication(self):
        a, b, c = [np.full(5, v) for v in (0.1, 0.5, 0.9)]
        windows = build_windows(prob_rows(a, b, c), 1)
        assert windows.shape == (3, 15)
        np.testing.assert_array_equal(windows[0], np.concatenate([a, a, b]))
        np.testing.assert_array_equal(windows[1], np.concatenate([a, b, c]))
        np.testing.assert_array_equal(windows[2], np.concatenate([b, c, c]))

    def test_single_slice_repeats_seven_times(self):
        row = np.array([[0.1, 0.2, 0.3, 0.4, 0.5]])
        windows = build_windows(row, 3)
        assert windows.shape == (1, 35)
        np.testing.assert_array_equal(windows.reshape(7, 5), np.tile(row, (7, 1)))

    def test_center_block_is_own_row(self, rng):
        rows = rng.random((9, 5))
        delta_s = 2
        windows = build_windows(rows, delta_s)
        center = windows[:, 5 * delta_s:5 * delta_s + 5]
        assert np.array_equal(center, rows)

    def test_translation_consistency(self, rng):
        # Interior windows of the full scan equal windows of the shifted scan
        # wherever no clamping applies.
        rows = rng.random((10, 5))
        full = build_windows(rows, 2)
        shifted = build_windows(rows[1:9], 2)
        np.testing.assert_array_equal(full[3:7], shifted[2:6])

    def test_negative_delta_rejected(self):
        with pytest.raises(ConfigError):
            build_windows(np.zeros((2, 5)), -1)

    def test_out_of_range_rejected(self):
        bad = np.full((2, 5), 1.5)
        with pytest.raises(DataError):
            build_windows(bad, 1)


def synthetic_scans(rng, num_scans=40, span=3, noise_rate=0.15):
    """Scans whose true positives occupy >= span consecutive slices while
    noise spikes hit single slices."""
    probs = {}
    labels = {}
    for i in range(num_scans):
        n = int(rng.integers(8, 14))
        rows = rng.uniform(0.0, 0.15, (n, 5))
        matrix = np.zeros((n, 5), dtype=bool)
        if i % 2 == 0:
            t = int(rng.integers(0, 5))
            start = int(rng.integers(0, n - span + 1))
            rows[start:start + span, t] = rng.uniform(0.7, 0.95, span)
            matrix[start:start + span, t] = True
        if rng.random() < noise_rate * 4:
            rows[int(rng.integers(0, n)), int(rng.integers(0, 5))] = rng.uniform(0.7, 0.95)
        probs[f"s{i:03d}"] = np.clip(rows, 0, 1)
        labels[f"s{i:03d}"] = matrix
    return probs, labels


class TestTrainApply:
    def test_reads_center_block(self, rng):
        # Labels equal the thresholded center block: the stacker can read its
        # own center, so training AUC should be essentially perfect.
        probs, _ = synthetic_scans(rng, 30)
        labels = {k: rows >= 0.5 for k, rows in probs.items()}
        configs = [gbdt.GbdtConfig(rounds=40, learning_rate=0.2, growth="leafwise",
                                   max_leaves=8, l2_reg=0.1)]
        ensemble = train_stacker(probs, labels, delta_s=1, configs=configs)
        X, Y = stack_training_data(probs, labels, 1)
        refined = ensemble.predict(X)
        for t in range(5):
            if Y[:, t].any() and not Y[:, t].all():
                assert compute_auc(refined[:, t], Y[:, t]) >= 0.999

    def test_multi_slice_coherence_beats_raw(self, rng):
        # Single-slice spikes are noise; true positives span 3+ slices.
        probs, labels = synthetic_scans(rng, 60, noise_rate=0.3)
        configs = [gbdt.GbdtConfig(rounds=60, learning_rate=0.1, growth="leafwise",
                                   max_leaves=15, l2_reg=1.0)]
        ensemble = train_stacker(probs, labels, delta_s=2, configs=configs)
        refined = apply_stacker_all(ensemble, probs, 2)
        scan_truth = np.array([labels[k].any() for k in sorted(probs)])
        raw_scores = np.array([probs[k].max() for k in sorted(probs)])
        stacked_scores = np.array([refined[k].max() for k in sorted(probs)])
        raw_auc = compute_auc(raw_scores, scan_truth)
        stacked_auc = compute_auc(stacked_scores, scan_truth)
        assert stacked_auc > raw_auc

    def test_determinism(self, rng):
        probs, labels = synthetic_scans(rng, 20)
        configs = [gbdt.GbdtConfig(rounds=10, growth="leafwise")]
        a = train_stacker(probs, labels, 1, configs)
        b = train_stacker(probs, labels, 1, configs)
        probe = build_windows(probs["s001"], 1)
        assert np.array_equal(a.predict(probe), b.predict(probe))

    def test_apply_preserves_shape_and_range(self, rng):
        probs, labels = synthetic_scans(rng, 20)
        configs = [gbdt.GbdtConfig(rounds=8, growth="leafwise")]
        ensemble = train_stacker(probs, labels, 2, configs)
        rows = probs["s003"]
        refined = apply_one(ensemble, rows, 2)
        assert refined.shape == rows.shape
        assert np.all((refined > 0) & (refined < 1))

    def test_zero_tree_models_give_half(self):
        models = tuple(gbdt.GbdtModel.from_trees(0.0, (), 15) for _ in range(5))
        ensemble = gbdt.GbdtEnsemble(groups=(models,))
        refined = apply_one(ensemble, np.full((4, 5), 0.3), 1)
        assert np.all(refined == 0.5)

    def test_delta_mismatch_rejected(self, rng):
        probs, labels = synthetic_scans(rng, 10)
        configs = [gbdt.GbdtConfig(rounds=4, growth="leafwise")]
        ensemble = train_stacker(probs, labels, 1, configs)
        with pytest.raises(ConfigError, match="delta_s"):
            apply_one(ensemble, probs["s001"], 2)

    def test_empty_input_gives_empty_output(self):
        assert apply_stacker_all(center_reader_ensemble(1), {}, 1) == {}

    def test_missing_labels_rejected(self, rng):
        probs, labels = synthetic_scans(rng, 6)
        del labels["s002"]
        with pytest.raises(ConfigError):
            stack_training_data(probs, labels, 1)

    def test_label_shape_mismatch_rejected(self, rng):
        probs, labels = synthetic_scans(rng, 6)
        labels["s002"] = labels["s002"][:-1]
        with pytest.raises(ArityError):
            stack_training_data(probs, labels, 1)


@pytest.fixture(scope="module")
def preset_ensemble():
    probs, labels = synthetic_scans(np.random.default_rng(7), 20)
    return train_stacker(probs, labels, 1, gbdt.default_presets(rounds=6))


class TestBatchEquivalence:
    @settings(max_examples=30, deadline=None)
    @given(lengths=st.lists(st.integers(1, 15), min_size=1, max_size=12),
           seed=st.integers(0, 2**32 - 1))
    def test_all_scans_at_once_equals_one_scan_at_a_time(self, preset_ensemble, lengths, seed):
        rng = np.random.default_rng(seed)
        probs = {f"s{i:02d}": rng.random((n, 5)) for i, n in enumerate(lengths)}
        batched = apply_stacker_all(preset_ensemble, probs, 1)
        assert list(batched) == list(probs)
        for scan_id, rows in probs.items():
            assert np.array_equal(batched[scan_id], apply_one(preset_ensemble, rows, 1))


def center_reader_ensemble(delta_s, scale=4.0):
    """Hand-built ensemble whose trees read only the center block: per type,
    one stump splitting the center probability at 0.5."""
    models = []
    for t in range(5):
        feature = 5 * delta_s + t
        tree = gbdt.Tree(
            feature=np.array([feature, -1, -1], dtype=np.int32),
            threshold=np.array([0.5, 0.0, 0.0]),
            left=np.array([1, -1, -1], dtype=np.int32),
            right=np.array([2, -1, -1], dtype=np.int32),
            value=np.array([0.0, -scale, scale]),
        )
        models.append(gbdt.GbdtModel.from_trees(0.0, (tree,), window_length(delta_s)))
    return gbdt.GbdtEnsemble(groups=(tuple(models),))


class TestSliceDuplicationInvariance:
    def test_duplicating_slices_with_doubled_window(self, rng):
        # For center-reading models, doubling every slice while doubling the
        # window leaves the refined predictions of the original slices
        # unchanged (away from clamped boundaries).
        rows = rng.random((8, 5))
        small = center_reader_ensemble(1)
        large = center_reader_ensemble(2)
        refined_small = apply_one(small, rows, 1)
        duplicated = np.repeat(rows, 2, axis=0)
        refined_large = apply_one(large, duplicated, 2)
        interior = slice(1, 7)
        np.testing.assert_allclose(refined_large[0::2][interior], refined_small[interior])


class TestStackerFile:
    def test_round_trip_and_stored_delta(self, tmp_path, rng):
        probs, labels = synthetic_scans(rng, 10)
        configs = [gbdt.GbdtConfig(rounds=4, growth="leafwise")]
        ensemble = train_stacker(probs, labels, 2, configs)
        path = tmp_path / "stacker.json"
        save_stacker_model(ensemble, 2, path)
        restored, delta_s = load_stacker_model(path)
        assert delta_s == 2
        probe = build_windows(probs["s001"], 2)
        assert np.array_equal(restored.predict(probe), ensemble.predict(probe))

    @pytest.mark.parametrize("stored", [1, -1, 2.0, True, "2", None])
    def test_inconsistent_stored_delta_rejected(self, tmp_path, rng, stored):
        probs, labels = synthetic_scans(rng, 10)
        configs = [gbdt.GbdtConfig(rounds=4, growth="leafwise")]
        ensemble = train_stacker(probs, labels, 2, configs)
        path = tmp_path / "bad.json"
        save_stacker_model(ensemble, stored, path)
        with pytest.raises(FormatError, match=r"bad\.json: delta_s must be a non-negative integer "
                                              r"giving the ensemble's 25 features"):
            load_stacker_model(path)

    def test_version_1_layout_rejected(self, tmp_path, rng):
        # Version 1 nested a tagged ensemble record of tagged model records.
        probs, labels = synthetic_scans(rng, 10)
        ensemble = train_stacker(probs, labels, 1, [gbdt.GbdtConfig(rounds=2)])
        path = tmp_path / "stacker_v1.json"
        save_stacker_model(ensemble, 1, path)
        groups = json.loads(path.read_text())["groups"]
        path.write_text(json.dumps({
            "format": "hemtriage/stacker-model", "version": 1, "delta_s": 1,
            "ensemble": {"format": "hemtriage/gbdt-ensemble", "version": 1,
                         "groups": [[{"format": "hemtriage/gbdt-model", "version": 1, **model}
                                     for model in group] for group in groups]}}))
        with pytest.raises(FormatError, match=r"stacker_v1\.json: unsupported version 1"):
            load_stacker_model(path)

    def test_version_2_layout_rejected(self, tmp_path, rng):
        probs, labels = synthetic_scans(rng, 10)
        ensemble = train_stacker(probs, labels, 1, [gbdt.GbdtConfig(rounds=2)])
        path = tmp_path / "stacker_v2.json"
        path.write_text(json.dumps({"format": "hemtriage/stacker-model", "version": 2,
                                    "delta_s": 1, "groups": list_layout_groups(ensemble)}))
        with pytest.raises(FormatError, match=r"stacker_v2\.json: unsupported version 2"):
            load_stacker_model(path)

    def test_ensemble_missing_a_type_rejected(self, tmp_path, rng):
        probs, labels = synthetic_scans(rng, 10)
        configs = [gbdt.GbdtConfig(rounds=4, growth="leafwise")]
        ensemble = train_stacker(probs, labels, 2, configs)
        path = tmp_path / "four_types.json"
        save_stacker_model(gbdt.GbdtEnsemble(groups=(ensemble.groups[0][:4],)), 2, path)
        with pytest.raises(FormatError, match="four_types.json: .*5 types, got 4"):
            load_stacker_model(path)
