import numpy as np
import pytest

from hemtriage.volume import CtVolume


def make_volume(scan_id="s0", patient_id="p0", num_slices=3, height=4, width=4,
                fill=0, seed=None):
    if seed is None:
        slices = np.full((num_slices, height, width), fill, dtype=np.int16)
    else:
        rng = np.random.default_rng(seed)
        slices = rng.integers(-100, 101, size=(num_slices, height, width)).astype(np.int16)
    return CtVolume(scan_id=scan_id, patient_id=patient_id, slices=slices,
                    slice_thickness_mm=5.0)


def list_layout_groups(ensemble):
    """The groups of ``ensemble`` in the model-file layout that stored each
    tree's node arrays as JSON number lists (slice model v3, stacker v2)."""
    return [[{"base_score": model.base_score, "num_features": model.num_features,
              "trees": [{name: getattr(tree, name).tolist()
                         for name in ("feature", "threshold", "left", "right", "value")}
                        for tree in model.trees]} for model in group]
            for group in ensemble.groups]


class MemorizingClassifier:
    """Leakage sentinel: perfect on byte-identical training feature rows,
    clueless (constant 0.5) elsewhere. It is built the way ``generate_oof``
    calls ``train_fn(X, Y)``: from a feature matrix and its slice label
    matrix, so the class itself can be passed as ``train_fn``."""

    def __init__(self, features, labels):
        self.memory = {row.tobytes(): np.asarray(label, dtype=float)
                       for row, label in zip(np.asarray(features, dtype=np.float64), labels)}

    def predict(self, features):
        return np.array([self.memory.get(row.tobytes(), np.full(5, 0.5))
                         for row in np.asarray(features, dtype=np.float64)])


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
