import numpy as np
import pytest

from hemtriage.errors import ConfigError, InfeasibleError
from hemtriage.synth import (BLOOD_HU, LESION_SPAN_MIN, MIN_LESION_PIXELS, SynthConfig, generate,
                             write_dataset)
from hemtriage.volume import (WindowSpec, apply_window, load_manifest, load_manifest_volumes,
                              load_slice_labels)

SMALL = SynthConfig(num_scans=16, slices_min=6, slices_max=9, seed=5)


def head_interior(hu_slice):
    return (hu_slice > -200) & (hu_slice < 600)


def blood_band(hu_slice):
    low, high = BLOOD_HU
    return (hu_slice >= low) & (hu_slice <= high)


class TestConfigValidation:
    def test_fraction_bounds(self):
        with pytest.raises(ConfigError):
            SynthConfig(positive_fraction=(0.3, 0.3, 0.3, 0.3, 0.3))
        with pytest.raises(ConfigError):
            SynthConfig(positive_fraction=(0.1, -0.1, 0.1, 0.1, 0.1))

    @pytest.mark.parametrize("num_scans", [3, 9])
    def test_rounded_type_counts_must_fit_num_scans(self, num_scans):
        # All scans positive, a fifth per type: 3 x 0.2 and 9 x 0.2 both round
        # up, to 1 and 2 scans per type, 5 and 10 in all.
        with pytest.raises(ConfigError, match=f"sum past num_scans={num_scans}"):
            SynthConfig(num_scans=num_scans, positive_fraction=(0.2,) * 5)
        SynthConfig(num_scans=10, positive_fraction=(0.2,) * 5)

    def test_span_must_fit_smallest_scan(self):
        SynthConfig(slices_min=LESION_SPAN_MIN)
        with pytest.raises(ConfigError):
            SynthConfig(slices_min=LESION_SPAN_MIN - 1)

    def test_infeasible_geometry(self):
        generate(SynthConfig(num_scans=2, height=24, width=24))
        with pytest.raises(InfeasibleError, match="24x24"):
            generate(SynthConfig(num_scans=2, height=23, width=48))


class TestGeneration:
    def test_deterministic_volumes(self):
        a = generate(SMALL)
        b = generate(SMALL)
        for va, vb in zip(a.volumes, b.volumes):
            assert np.array_equal(va.slices, vb.slices)
            assert np.array_equal(a.slice_labels[va.scan_id], b.slice_labels[vb.scan_id])
            assert va.patient_id == vb.patient_id

    def test_byte_identical_dataset_files(self, tmp_path):
        write_dataset(generate(SMALL), tmp_path / "a")
        write_dataset(generate(SMALL), tmp_path / "b")
        for name in ("manifest.csv", "slice_labels.csv", "volumes/s0000.ctv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_all_negative_config_has_no_blood_band(self):
        dataset = generate(SynthConfig(num_scans=8, positive_fraction=(0,) * 5,
                                       slices_min=6, slices_max=8, seed=2))
        assert not any(matrix.any() for matrix in dataset.slice_labels.values())
        for volume in dataset.volumes:
            for hu_slice in volume.slices:
                assert not (blood_band(hu_slice) & head_interior(hu_slice)).any()

    def test_exact_positive_counts(self):
        config = SynthConfig(num_scans=100, positive_fraction=(0.06,) * 5, seed=0,
                             slices_min=6, slices_max=9)
        dataset = generate(config)
        flags = np.array([matrix.any(axis=0) for matrix in dataset.slice_labels.values()])
        assert flags.sum(axis=0).tolist() == [6, 6, 6, 6, 6]
        assert flags.any(axis=1).sum() == 30

    def test_positive_slices_carry_blood_footprint(self):
        config = SynthConfig(num_scans=25, positive_fraction=(0.2, 0.2, 0.2, 0.2, 0.2),
                             slices_min=6, slices_max=9, seed=7)
        dataset = generate(config)
        for volume in dataset.volumes:
            matrix = dataset.slice_labels[volume.scan_id]
            assert matrix.shape == (volume.num_slices, 5)
            for z in range(volume.num_slices):
                if matrix[z].any():
                    count = (blood_band(volume.slices[z])
                             & head_interior(volume.slices[z])).sum()
                    assert count >= MIN_LESION_PIXELS

    def test_lesions_span_configured_consecutive_slices(self):
        config = SynthConfig(num_scans=25, positive_fraction=(0.2, 0.2, 0.2, 0.2, 0.2),
                             slices_min=8, slices_max=10, seed=3)
        dataset = generate(config)
        for matrix in dataset.slice_labels.values():
            for t in range(5):
                column = matrix[:, t]
                if column.any():
                    indices = np.flatnonzero(column)
                    assert len(indices) >= LESION_SPAN_MIN
                    assert np.all(np.diff(indices) == 1)  # contiguous span

    def test_windowing_separability(self):
        config = SynthConfig(num_scans=20, positive_fraction=(0.2, 0.2, 0.2, 0.2, 0.2),
                             slices_min=6, slices_max=9, seed=9)
        dataset = generate(config)
        brain_window = WindowSpec(40, 80)
        for volume in dataset.volumes:
            matrix = dataset.slice_labels[volume.scan_id]
            for z in range(volume.num_slices):
                if not matrix[z].any():
                    continue
                image = apply_window(volume.slices[z], brain_window)
                lesion = blood_band(volume.slices[z]) & head_interior(volume.slices[z])
                other = head_interior(volume.slices[z]) & ~lesion
                assert image[lesion].mean() - image[other].mean() >= 0.1

    def test_distractor_injects_single_slice_blood_in_negatives(self):
        config = SynthConfig(num_scans=12, positive_fraction=(0,) * 5,
                             distractor_fraction=1.0, slices_min=6, slices_max=8, seed=4)
        dataset = generate(config)
        # Distractors are unlabeled mimics.
        assert not any(matrix.any() for matrix in dataset.slice_labels.values())
        for volume in dataset.volumes:
            with_blood = [z for z in range(volume.num_slices)
                          if (blood_band(volume.slices[z])
                              & head_interior(volume.slices[z])).any()]
            assert len(with_blood) == 1

    def test_paired_patient_fraction(self):
        config = SynthConfig(num_scans=40, paired_scan_fraction=0.5, seed=6,
                             slices_min=6, slices_max=8)
        dataset = generate(config)
        by_patient = {}
        for volume in dataset.volumes:
            by_patient.setdefault(volume.patient_id, []).append(volume.scan_id)
        sizes = sorted(len(v) for v in by_patient.values())
        assert sizes.count(2) == 10  # floor(40 * 0.5 / 2) pairs
        assert all(size in (1, 2) for size in sizes)


class TestWrittenDataset:
    def test_files_load_back_consistently(self, tmp_path):
        dataset = generate(SMALL)
        paths = write_dataset(dataset, tmp_path)
        rows = load_manifest(paths["manifest"])
        assert [r.scan_id for r in rows] == [v.scan_id for v in dataset.volumes]
        for row in rows:
            assert np.array_equal(row.labels.vector(),
                                  dataset.slice_labels[row.scan_id].any(axis=0))
        _, volumes = load_manifest_volumes(paths["manifest"])
        for original, loaded in zip(dataset.volumes, volumes):
            assert np.array_equal(original.slices, loaded.slices)
            assert loaded.patient_id == original.patient_id

    def test_slice_label_csv_matches(self, tmp_path):
        dataset = generate(SMALL)
        paths = write_dataset(dataset, tmp_path)
        matrices = load_slice_labels(paths["slice_labels"])
        assert list(matrices) == list(dataset.slice_labels)
        for scan_id, matrix in dataset.slice_labels.items():
            assert np.array_equal(matrices[scan_id], matrix)
