import numpy as np
import pytest

from hemtriage import gbdt
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


def node_trees(model):
    """Oracle: each tree of ``model``, in order, as node arrays. An oblivious
    tree comes in the heap layout of a node-wise tree: its 2^depth - 1
    interior nodes level by level, node i's children being 2i + 1 and
    2i + 2, then its 2^depth leaves in path order."""
    if isinstance(model, gbdt.GbdtModel):
        return model.trees
    depths = model.depths.astype(np.int64)
    widths = 1 << depths
    sizes = 2 * widths - 1
    tree = np.repeat(np.arange(len(sizes)), sizes)
    node = np.arange(sizes.sum()) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    level = np.frexp(node + 1)[1] - 1  # floor(log2(node + 1)), exactly
    interior = level < depths[tree]
    leaf = ~interior
    feature = np.full(len(node), -1, dtype=np.int32)
    threshold, value = np.zeros(len(node)), np.zeros(len(node))
    at = (np.cumsum(depths) - depths)[tree[interior]] + level[interior]
    feature[interior], threshold[interior] = model.feature[at], model.threshold[at]
    # Leaf node 2^depth - 1 + i holds the tree's leaf value i.
    value[leaf] = model.value[(np.cumsum(widths) - 2 * widths + 1)[tree[leaf]] + node[leaf]]
    left = np.where(interior, 2 * node + 1, -1).astype(np.int32)
    right = np.where(interior, 2 * node + 2, -1).astype(np.int32)
    return gbdt.GbdtModel(model.base_score, model.num_features, sizes.astype("<i4"),
                          feature, threshold, left, right, value).trees


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
