import csv
import multiprocessing

import numpy as np
import pytest

from hemtriage import folds, gbdt, parallel
from hemtriage.errors import ConfigError, InfeasibleError
from hemtriage.folds import FoldAssignment, assign_folds, generate_oof, save_fold_csv
from hemtriage.slicemodel import DEFAULT_REFERENCE_CONFIG, volume_features
from hemtriage.volume import ManifestRow, ScanLabels

from conftest import MemorizingClassifier, make_volume


def row(scan_id, patient_id, vector=(0, 0, 0, 0, 0)):
    return ManifestRow(scan_id, patient_id, f"{scan_id}.ctv", ScanLabels.from_vector(vector))


class TestAssignFolds:
    def test_patients_stay_together(self):
        rows = [row("s0", "pA"), row("s1", "pA", (1, 0, 0, 0, 0)),
                row("s2", "pB"), row("s3", "pB")]
        assignment = assign_folds(rows, k=2)
        assert assignment.fold_of["s0"] == assignment.fold_of["s1"]
        assert assignment.fold_of["s2"] == assignment.fold_of["s3"]

    def test_eight_singletons_pigeonhole(self):
        rows = [row(f"s{i}", f"p{i}", (1, 0, 0, 0, 0) if i < 4 else (0,) * 5)
                for i in range(8)]
        assignment = assign_folds(rows, k=8)
        assert sorted(assignment.fold_of[f"s{i}"] for i in range(8)) == list(range(8))

    def test_exact_split_for_singleton_patients(self):
        # 100 single-scan patients, 20 positive, k=5: greedy balancing must
        # land exactly 4 positives and 20 scans in every fold.
        rows = [row(f"s{i:03d}", f"p{i:03d}", (0, 1, 0, 0, 0) if i < 20 else (0,) * 5)
                for i in range(100)]
        assignment = assign_folds(rows, k=5)
        fold_pos = np.zeros(5, dtype=int)
        fold_size = np.zeros(5, dtype=int)
        for i in range(100):
            fold = assignment.fold_of[f"s{i:03d}"]
            fold_size[fold] += 1
            if i < 20:
                fold_pos[fold] += 1
        assert fold_pos.tolist() == [4] * 5
        assert fold_size.tolist() == [20] * 5

    def test_row_order_invariance(self, rng):
        rows = [row(f"s{i}", f"p{i // 2}", tuple(rng.integers(0, 2, 5))) for i in range(30)]
        forward = assign_folds(rows, k=4, seed=9)
        shuffled = list(rows)
        rng.shuffle(shuffled)
        backward = assign_folds(shuffled, k=4, seed=9)
        assert forward.fold_of == backward.fold_of

    def test_deterministic_given_seed(self, rng):
        rows = [row(f"s{i}", f"p{i}", tuple(rng.integers(0, 2, 5))) for i in range(24)]
        assert assign_folds(rows, 4, seed=2).fold_of == assign_folds(rows, 4, seed=2).fold_of

    def test_repair_swaps_two_groups(self, monkeypatch):
        # The greedy puts p0 and p1 in fold 0. No single-group move shrinks
        # the imbalance within the size bound, so repair swaps p0 and p2.
        vectors = [(0, 1, 1, 1, 0), (0,) * 5, (0,) * 5, (1, 0, 0, 1, 1), (0,) * 5,
                   (0,) * 5, (1, 0, 0, 0, 0), (0,) * 5, (0, 0, 1, 0, 1), (0,) * 5]
        rows = [row(f"s{i}", f"p{i // 2}", vector) for i, vector in enumerate(vectors)]
        greedy = {}
        repair = folds._repair_balance

        def spy(ordered, groups, counts, group_fold, *rest):
            greedy.update(group_fold)
            repair(ordered, groups, counts, group_fold, *rest)

        monkeypatch.setattr(folds, "_repair_balance", spy)
        assignment = assign_folds(rows, k=3)
        assert greedy == {"p0": 0, "p1": 0, "p2": 1, "p3": 1, "p4": 2}
        assert assignment.fold_of == {"s0": 1, "s1": 1, "s2": 0, "s3": 0, "s4": 0, "s5": 0,
                                      "s6": 1, "s7": 1, "s8": 2, "s9": 2}

    def test_k_exceeding_patient_groups(self):
        rows = [row("s0", "pA"), row("s1", "pA"), row("s2", "pB")]
        with pytest.raises(InfeasibleError):
            assign_folds(rows, k=3)

    def test_k_below_two(self):
        with pytest.raises(ConfigError):
            assign_folds([row("s0", "p0")], k=1)

    def test_every_scan_assigned_once(self, rng):
        rows = [row(f"s{i}", f"p{i // 3}", tuple(rng.integers(0, 2, 5))) for i in range(60)]
        assignment = assign_folds(rows, k=5, seed=0)
        assert sorted(assignment.fold_of) == sorted(r.scan_id for r in rows)

    def test_per_label_balance_within_group_max(self, rng):
        # Post-condition: per-fold positives per label within +- (largest
        # patient-group count for that label) of the ideal share.
        rows = []
        for i in range(90):
            vector = tuple(rng.integers(0, 2, 5) * (rng.random() < 0.4))
            rows.append(row(f"s{i}", f"p{i // 2}", vector))
        k = 4
        assignment = assign_folds(rows, k=k, seed=1)
        labels = np.array([[*r.labels.vector(), r.labels.vector().any()] for r in rows],
                          dtype=float)
        group_of = {}
        for i, r in enumerate(rows):
            group_of.setdefault(r.patient_id, []).append(i)
        for col in range(6):
            totals = labels[:, col].sum()
            ideal = totals / k
            group_max = max(labels[group, col].sum() for group in group_of.values())
            fold_counts = np.zeros(k)
            for i, r in enumerate(rows):
                fold_counts[assignment.fold_of[r.scan_id]] += labels[i, col]
            assert np.all(np.abs(fold_counts - ideal) <= group_max + 1e-9), (col, fold_counts, ideal)


class TestFoldCsv:
    def test_round_trip(self, tmp_path):
        rows = [row("s0", "pA"), row("s1", "pA"), row("s2", "pB")]
        assignment = assign_folds(rows, k=2)
        path = tmp_path / "folds.csv"
        save_fold_csv(rows, assignment, path)
        with open(path, newline="") as fh:
            records = list(csv.DictReader(fh))
        assert [(r["scan_id"], r["patient_id"]) for r in records] == [
            ("s0", "pA"), ("s1", "pA"), ("s2", "pB")]
        assert {r["scan_id"]: int(r["fold"]) for r in records} == assignment.fold_of


class TestGenerateOof:
    @staticmethod
    def build(n=12, size=6, seed=100, label=lambda i: (0, i % 3 == 0)):
        """``n`` two-slice scans, one patient each: their volumes, manifest
        rows and slice label matrices. ``label(i)`` gives the type column
        scan ``i`` carries on both slices and whether it carries it."""
        volumes = [make_volume(scan_id=f"s{i}", patient_id=f"p{i}", num_slices=2,
                               height=size, width=size, seed=seed + i) for i in range(n)]
        labels = {}
        for i, volume in enumerate(volumes):
            column, positive = label(i)
            labels[volume.scan_id] = np.zeros((2, 5), dtype=bool)
            labels[volume.scan_id][:, column] = positive
        rows = [row(v.scan_id, v.patient_id, labels[v.scan_id].any(axis=0)) for v in volumes]
        return volumes, rows, labels

    @staticmethod
    def features(volumes):
        return {v.scan_id: volume_features(v) for v in volumes}

    def test_memorizer_cannot_score_oof(self):
        # The leakage sentinel: a memorizing classifier is perfect in-fold by
        # construction, so any out-of-fold perfection would prove leakage.
        volumes, rows, labels = self.build()
        assignment = assign_folds(rows, k=3, seed=0)
        features = self.features(volumes)

        oof = generate_oof(features, labels, assignment, MemorizingClassifier)
        for volume in volumes:
            np.testing.assert_allclose(oof[volume.scan_id], 0.5)

        in_fold = MemorizingClassifier(np.concatenate(list(features.values())),
                                       np.concatenate(list(labels.values())))
        for volume in volumes:
            rows_pred = in_fold.predict(features[volume.scan_id])
            assert np.array_equal(rows_pred >= 0.5, labels[volume.scan_id])

    def test_covers_every_slice_once(self):
        volumes, rows, labels = self.build()
        assignment = assign_folds(rows, k=4, seed=0)
        oof = generate_oof(self.features(volumes), labels, assignment, MemorizingClassifier)
        assert sorted(oof) == sorted(v.scan_id for v in volumes)
        assert all(oof[v.scan_id].shape == (v.num_slices, 5) for v in volumes)

    def test_deterministic(self):
        volumes, rows, labels = self.build()
        assignment = assign_folds(rows, k=3, seed=1)
        features = self.features(volumes)
        a = generate_oof(features, labels, assignment, MemorizingClassifier)
        b = generate_oof(features, labels, assignment, MemorizingClassifier)
        assert all(np.array_equal(a[k], b[k]) for k in a)

    def test_missing_assignment_rejected(self):
        volumes, rows, labels = self.build(6)
        assignment = FoldAssignment(k=2, fold_of={v.scan_id: 0 for v in volumes[:-1]})
        with pytest.raises(ConfigError):
            generate_oof(self.features(volumes), labels, assignment, MemorizingClassifier)

    def test_fold_without_positives_warns_and_falls_back(self):
        # All positives for one type live in a single fold: training folds
        # that exclude them see a one-class target and warn (base-rate output).
        # Only scan 0 carries IPH.
        volumes, rows, labels = self.build(6, size=8, seed=300, label=lambda i: (4, i == 0))
        assignment = assign_folds(rows, k=3, seed=0)
        with pytest.warns(UserWarning, match="one class"):
            oof = generate_oof(self.features(volumes), labels, assignment,
                               lambda X, Y: gbdt.train_ensemble(X, Y, (DEFAULT_REFERENCE_CONFIG,)))
        # s0's model trains without s0's fold, so it never sees an IPH
        # positive and predicts the clipped base rate for that type.
        np.testing.assert_allclose(oof["s0"][:, 4], 1e-6)

    def test_pooled_folds_match_serial(self, monkeypatch):
        # Folds trained in forked workers give the serial predictions bit for
        # bit, and the one-class fallback still warns in the caller.
        volumes, rows, labels = self.build(6, size=8, seed=300, label=lambda i: (4, i == 0))
        assignment = assign_folds(rows, k=3, seed=0)
        features = self.features(volumes)

        def train_fn(X, Y):
            return gbdt.train_ensemble(X, Y, (DEFAULT_REFERENCE_CONFIG,))

        out = []
        for cpus in (1, 2):
            monkeypatch.setattr(parallel, "_usable_cpus", lambda: cpus)
            with pytest.warns(UserWarning, match="one class"):
                out.append(generate_oof(features, labels, assignment, train_fn))
        serial, pooled = out
        assert list(serial) == list(pooled)
        assert all(np.array_equal(serial[k], pooled[k]) for k in serial)
        assert multiprocessing.active_children() == []
