import base64
import copy
import dataclasses
import heapq
import json
import math
import pickle
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hemtriage import gbdt, parallel, stacker
from hemtriage.errors import ArityError, ConfigError, DataError, FormatError, TrainingError
from hemtriage.metrics import log_loss

XOR_X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
XOR_Y = np.array([0.0, 1.0, 1.0, 0.0])


def tree_values(tree, X):
    """Reference oracle for ``gbdt.raw_score``: the leaf value one tree gives
    each row of X, walked level by level for this tree alone."""
    nodes = np.zeros(X.shape[0], dtype=np.int32)
    row_index = np.arange(X.shape[0])
    while True:
        feat = tree.feature[nodes]
        interior = feat >= 0
        if not interior.any():
            return tree.value[nodes]
        x = X[row_index, np.where(interior, feat, 0)]
        go_left = x <= tree.threshold[nodes]
        step = np.where(go_left, tree.left[nodes], tree.right[nodes])
        nodes = np.where(interior, step, nodes)


def reference_raw_score(model, X):
    """Reference oracle: base score plus ``tree_values`` of each tree, in order."""
    margins = np.full(X.shape[0], model.base_score)
    for tree in model.trees:
        margins += tree_values(tree, X)
    return margins


def stopped_early(model, rng):
    """``model`` with each tree cut to a random depth from 0 to its own, and
    one tree to depth 0, as if their growth had stopped there. A tree cut to
    depth d keeps its first d levels and its first 2^d leaf values."""
    level_ends = np.cumsum(model.depths)
    leaf_ends = np.cumsum(1 << model.depths.astype(np.int64))
    keep = rng.integers(0, model.depths + 1)
    keep[rng.integers(len(keep))] = 0
    trees = [gbdt._LevelTree(model.feature[level_end - depth:level_end - depth + kept],
                             model.threshold[level_end - depth:level_end - depth + kept],
                             model.value[leaf_end - (1 << depth):leaf_end - (1 << depth)
                                         + (1 << kept)])
             for depth, kept, level_end, leaf_end in zip(model.depths.tolist(), keep.tolist(),
                                                         level_ends, leaf_ends)]
    return gbdt.ObliviousModel.from_trees(model.base_score, trees, model.num_features)


def model_losses_per_round(model, X, y):
    """Training log loss after the base score and after each tree."""
    margins = np.full(len(y), model.base_score)
    losses = [log_loss(gbdt._sigmoid(margins), y)]
    for tree in model.trees:
        margins += tree_values(tree, X)
        losses.append(log_loss(gbdt._sigmoid(margins), y))
    return losses


def brute_force_root_split(X, y, lam):
    """Oracle: best first-round split by exhaustive scan with plain loops.

    Gradients at the base rate p0: g = p0 - y, h = p0 (1 - p0).
    """
    p0 = y.mean()
    g = p0 - y
    h = np.full(len(y), p0 * (1 - p0))
    best = None
    for feature in range(X.shape[1]):
        values = np.unique(X[:, feature])
        for lo, hi in zip(values[:-1], values[1:]):
            threshold = (lo + hi) / 2
            left = X[:, feature] <= threshold
            gl, hl = g[left].sum(), h[left].sum()
            gr, hr = g[~left].sum(), h[~left].sum()
            gain = 0.5 * (gl * gl / (hl + lam) + gr * gr / (hr + lam)
                          - (gl + gr) ** 2 / (hl + hr + lam))
            key = (-gain, feature, threshold)
            if best is None or key < best:
                best = key
    gain, feature, threshold = -best[0], best[1], best[2]
    return gain, feature, threshold


def split_gain(g, h, left, right, lam):
    gl, hl, gr, hr = g[left].sum(), h[left].sum(), g[right].sum(), h[right].sum()
    return 0.5 * (gl * gl / (hl + lam) + gr * gr / (hr + lam) - (gl + gr) ** 2 / (hl + hr + lam))


def brute_force_leaf_gain(X, g, h, rows, lam, min_samples_leaf=1):
    """Oracle: best split gain inside one leaf (a row mask), -inf if none exists."""
    best = -math.inf
    for feature in range(X.shape[1]):
        values = np.unique(X[rows, feature])
        for lo, hi in zip(values[:-1], values[1:]):
            left = rows & (X[:, feature] <= (lo + hi) / 2)
            right = rows & ~left
            if min(left.sum(), right.sum()) >= min_samples_leaf:
                best = max(best, split_gain(g, h, left, right, lam))
    return best


def brute_force_level_gains(X, g, h, leaf_of, lam, min_samples_leaf=1):
    """Oracle: (gain summed over the leaves, feature, threshold) of every split
    one oblivious level can share across the leaves ``leaf_of``, restricted to
    splits whose level totals keep min_samples_leaf rows on each side."""
    def score(grad, hess):
        return grad * grad / (hess + lam) if hess + lam > 0 else 0.0

    gains = []
    for feature in range(X.shape[1]):
        values = np.unique(X[:, feature])
        for lo, hi in zip(values[:-1], values[1:]):
            threshold = lo + (hi - lo) / 2  # the split midpoint; exact on a quarter grid
            left = X[:, feature] <= threshold
            if min(left.sum(), (~left).sum()) < min_samples_leaf:
                continue
            gain = 0.0
            for leaf in np.unique(leaf_of):
                rows = leaf_of == leaf
                gl, hl = g[rows & left].sum(), h[rows & left].sum()
                gr, hr = g[rows & ~left].sum(), h[rows & ~left].sum()
                gain += 0.5 * (score(gl, hl) + score(gr, hr) - score(gl + gr, hl + hr))
            gains.append((gain, feature, threshold))
    return gains


def trees_equal(a, b):
    return (np.array_equal(a.feature, b.feature) and np.array_equal(a.threshold, b.threshold)
            and np.array_equal(a.left, b.left) and np.array_equal(a.right, b.right)
            and np.array_equal(a.value, b.value))


class TestConfig:
    def test_growth_validated(self):
        with pytest.raises(ConfigError):
            gbdt.GbdtConfig(growth="random")

    def test_depthwise_needs_depth(self):
        with pytest.raises(ConfigError):
            gbdt.GbdtConfig(growth="depthwise")

    def test_rate_bounds(self):
        with pytest.raises(ConfigError):
            gbdt.GbdtConfig(learning_rate=0.0)

    def test_oblivious_depth_capped(self):
        gbdt.GbdtConfig(growth="oblivious", max_depth=gbdt.MAX_OBLIVIOUS_DEPTH)
        gbdt.GbdtConfig(growth="depthwise", max_depth=gbdt.MAX_OBLIVIOUS_DEPTH + 1)
        with pytest.raises(ConfigError, match="at most 30 levels"):
            gbdt.GbdtConfig(growth="oblivious", max_depth=gbdt.MAX_OBLIVIOUS_DEPTH + 1)


class TestXor:
    def test_depthwise_learns_xor(self):
        config = gbdt.GbdtConfig(rounds=50, learning_rate=0.5, l2_reg=0.1,
                                 growth="depthwise", max_depth=2, max_leaves=4)
        model = gbdt.train(XOR_X, XOR_Y, config)
        probs = gbdt.predict(model, XOR_X)
        assert log_loss(probs, XOR_Y) < 0.05
        assert np.array_equal(probs >= 0.5, XOR_Y.astype(bool))

    @pytest.mark.parametrize("growth,extra", [
        ("leafwise", {}),
        ("oblivious", {"max_depth": 2}),
    ])
    def test_other_growth_modes_learn_xor(self, growth, extra):
        config = gbdt.GbdtConfig(rounds=50, learning_rate=0.5, l2_reg=0.1,
                                 growth=growth, max_leaves=4, **extra)
        model = gbdt.train(XOR_X, XOR_Y, config)
        assert log_loss(gbdt.predict(model, XOR_X), XOR_Y) < 0.05

    def test_single_depth2_tree_expresses_xor(self):
        # One full Newton step (lr 1, no regularization) from the base rate
        # already routes all four points to pure leaves.
        config = gbdt.GbdtConfig(rounds=1, learning_rate=1.0, l2_reg=0.0,
                                 growth="depthwise", max_depth=2, max_leaves=4)
        model = gbdt.train(XOR_X, XOR_Y, config)
        tree = model.trees[0]
        assert (tree.feature >= 0).sum() == 3  # root plus both children split
        probs = gbdt.predict(model, XOR_X)
        assert np.array_equal(probs >= 0.5, XOR_Y.astype(bool))

    def test_heavily_regularized_config_converges_monotonically(self):
        # lr 0.1 with l2 1.0 cannot reach 0.05 in 50 rounds on 4 points
        # (per-round Newton steps are bounded by lr/(h + l2)); it must still
        # descend monotonically and classify perfectly.
        config = gbdt.GbdtConfig(rounds=50, learning_rate=0.1, l2_reg=1.0,
                                 growth="depthwise", max_depth=2, max_leaves=4)
        model = gbdt.train(XOR_X, XOR_Y, config)
        losses = model_losses_per_round(model, XOR_X, XOR_Y)
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))
        assert losses[-1] < 0.25
        probs = gbdt.predict(model, XOR_X)
        assert np.array_equal(probs >= 0.5, XOR_Y.astype(bool))


class TestTrainBasics:
    def test_all_negative_labels_constant_base_rate(self):
        config = gbdt.GbdtConfig(rounds=10, growth="leafwise")
        with pytest.warns(UserWarning, match="one class"):
            model = gbdt.train(np.random.default_rng(0).random((20, 3)),
                               np.zeros(20), config)
        assert len(model.trees) == 0
        probs = gbdt.predict(model, np.random.default_rng(1).random((5, 3)))
        assert np.allclose(probs, 1e-6)

    def test_separable_single_feature(self):
        X = np.linspace(0, 1, 30).reshape(-1, 1)
        y = (X[:, 0] > 0.5).astype(float)
        config = gbdt.GbdtConfig(rounds=20, learning_rate=0.3, l2_reg=0.1,
                                 growth="depthwise", max_depth=2)
        model = gbdt.train(X, y, config)
        probs = gbdt.predict(model, X)
        assert np.array_equal(probs >= 0.5, y.astype(bool))

    def test_zero_l2_trains_to_saturation(self):
        # Margins grow until sigmoid rounds to exactly 0 or 1, where a leaf's
        # hessians are 0: with l2_reg = 0 every mode must score such a split
        # term and leaf as 0.0, not divide by zero.
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0.0, 0.0, 1.0, 1.0])
        for growth in gbdt.GROWTH_MODES:
            config = gbdt.GbdtConfig(rounds=80, learning_rate=1.0, l2_reg=0.0, growth=growth,
                                     max_leaves=4, max_depth=2)
            with np.errstate(divide="raise", invalid="raise"):
                model = gbdt.train(X, y, config)
            assert np.isfinite(model.value).all(), growth
            assert np.abs(gbdt.predict(model, X) - y).max() < 1e-15, growth

    def test_empty_training_set(self):
        with pytest.raises(TrainingError):
            gbdt.train(np.zeros((0, 3)), np.zeros(0), gbdt.GbdtConfig())
        with pytest.raises(TrainingError):
            gbdt.train_ensemble(np.zeros((0, 3)), np.zeros((0, 5)), [gbdt.GbdtConfig()])
        for growth in gbdt.GROWTH_MODES:  # rows but no feature columns
            with pytest.raises(TrainingError):
                gbdt.train(np.zeros((4, 0)), XOR_Y, gbdt.GbdtConfig(growth=growth, max_depth=2))

    def test_non_finite_feature(self):
        X = np.array([[1.0], [np.nan]])
        with pytest.raises(DataError):
            gbdt.train(X, np.array([0.0, 1.0]), gbdt.GbdtConfig())

    def test_non_binary_labels(self):
        with pytest.raises(DataError):
            gbdt.train(np.ones((3, 1)), np.array([0.0, 0.5, 1.0]), gbdt.GbdtConfig())


def caterpillar(depth, scale):
    """A tree whose ``depth`` interior nodes form one chain: interior node 2k
    splits feature k % 2 at threshold k and sends a row left to leaf 2k + 1,
    worth scale * 2^k, or right to node 2k + 2; node 2 * depth is the last
    leaf, worth scale * 2^depth. A row that goes right k times and then left
    takes k + 1 steps."""
    node = np.arange(2 * depth + 1)
    k = node // 2
    interior = (node % 2 == 0) & (node < 2 * depth)
    return gbdt.Tree(feature=np.where(interior, k % 2, -1).astype(np.int32),
                     threshold=np.where(interior, k, 0).astype(np.float64),
                     left=np.where(interior, node + 1, -1).astype(np.int32),
                     right=np.where(interior, node + 2, -1).astype(np.int32),
                     value=np.where(interior, 0.0, scale * 2.0 ** k))


def one_leaf(value):
    return gbdt.Tree(feature=np.array([-1], dtype=np.int32), threshold=np.zeros(1),
                     left=np.array([-1], dtype=np.int32), right=np.array([-1], dtype=np.int32),
                     value=np.array([value]))


class TestPredict:
    def test_zero_trees_base_zero(self):
        model = gbdt.GbdtModel.from_trees(0.0, (), 2)
        assert gbdt.predict(model, np.zeros((1, 2)))[0] == 0.5

    def test_zero_trees_base_log3(self):
        model = gbdt.GbdtModel.from_trees(math.log(3.0), (), 2)
        assert gbdt.predict(model, np.zeros((1, 2)))[0] == pytest.approx(0.75, abs=1e-12)

    def test_outputs_strictly_inside_unit_interval(self, rng):
        X = rng.random((60, 4))
        y = (X[:, 0] > 0.4).astype(float)
        model = gbdt.train(X, y, gbdt.GbdtConfig(rounds=30, growth="leafwise"))
        probs = gbdt.predict(model, rng.random((40, 4)))
        assert np.all(probs > 0.0) and np.all(probs < 1.0)

    def test_a_large_margin_gives_exactly_one_and_a_small_one_stays_inside(self):
        X = np.zeros((3, 2))
        assert gbdt.predict(gbdt.GbdtModel.from_trees(40.0, (), 2), X).tolist() == [1.0] * 3
        low = gbdt.predict(gbdt.GbdtModel.from_trees(-40.0, (), 2), X)
        assert np.isfinite(low).all() and ((low > 0.0) & (low < 1.0)).all()
        with pytest.warns(RuntimeWarning, match="overflow"):  # exp(710) is inf
            assert gbdt.predict(gbdt.GbdtModel.from_trees(-710.0, (), 2), X).tolist() == [0.0] * 3

    def test_dimension_mismatch(self):
        model = gbdt.GbdtModel.from_trees(0.0, (), 3)
        with pytest.raises(ArityError):
            gbdt.predict(model, np.zeros((2, 4)))

    def test_row_on_a_threshold_goes_left_and_nan_goes_right(self):
        # A root split on feature 1 at 0.5 whose right child splits on
        # feature 0 at 0.25, packed after a one-leaf tree: trees of
        # different depths walk together.
        deep = gbdt.Tree(feature=np.array([1, -1, 0, -1, -1], dtype=np.int32),
                         threshold=np.array([0.5, 0.0, 0.25, 0.0, 0.0]),
                         left=np.array([1, -1, 3, -1, -1], dtype=np.int32),
                         right=np.array([2, -1, 4, -1, -1], dtype=np.int32),
                         value=np.array([0.0, 1.0, 0.0, 2.0, 4.0]))
        stump = gbdt.Tree(feature=np.array([-1], dtype=np.int32), threshold=np.zeros(1),
                          left=np.array([-1], dtype=np.int32),
                          right=np.array([-1], dtype=np.int32), value=np.array([8.0]))
        model = gbdt.GbdtModel.from_trees(16.0, (stump, deep), 2)
        X = np.array([[0.0, 0.5], [0.25, 0.75], [0.3, 0.75], [0.0, np.nan], [np.nan, 1.0],
                      [np.nan, 0.5]])
        assert gbdt.raw_score(model, X).tolist() == [25.0, 26.0, 28.0, 26.0, 28.0, 25.0]
        assert gbdt.raw_score(model, X).tobytes() == reference_raw_score(model, X).tobytes()
        # The same splits as one oblivious tree of 2 levels (feature 1 at 0.5,
        # then feature 0 at 0.25) packed after a depth-0 tree. Leaves are in
        # path order, so a row going left then right ends in leaf 0b01.
        levels = gbdt.ObliviousModel(16.0, 2, depths=np.array([0, 2], dtype=np.int32),
                                     feature=np.array([1, 0], dtype=np.int32),
                                     threshold=np.array([0.5, 0.25]),
                                     value=np.array([8.0, 1.0, 2.0, 4.0, 64.0]))
        assert gbdt.raw_score(levels, X).tolist() == [25.0, 28.0, 88.0, 28.0, 88.0, 26.0]
        root, full = levels.trees
        assert tree_bytes(root) == tree_bytes(stump)
        assert tree_bytes(full) == tree_bytes(gbdt.Tree(
            feature=np.array([1, 0, 0, -1, -1, -1, -1], dtype=np.int32),
            threshold=np.array([0.5, 0.25, 0.25, 0.0, 0.0, 0.0, 0.0]),
            left=np.array([1, 3, 5, -1, -1, -1, -1], dtype=np.int32),
            right=np.array([2, 4, 6, -1, -1, -1, -1], dtype=np.int32),
            value=np.array([0.0, 0.0, 0.0, 1.0, 2.0, 4.0, 64.0])))
        assert gbdt.raw_score(levels, X).tobytes() == reference_raw_score(levels, X).tobytes()

    # Rows for ``caterpillar(24, 1.0)``, with the steps each takes: the whole
    # chain (24 and 24, NaN going right at every node), one step, two, three
    # and 23, the last two ending on a threshold, then a NaN beside a value
    # that ends on a threshold after one step and after two.
    CHAIN_ROWS = np.array([[30.0, 30.0], [np.nan, np.nan], [-1.0, 5.0], [0.5, 0.5],
                           [2.0, 3.0], [22.0, 23.0], [0.0, np.nan], [np.nan, 1.0]])
    CHAIN_LEAVES = [2.0 ** 24, 2.0 ** 24, 1.0, 2.0, 4.0, 2.0 ** 22, 1.0, 2.0]

    @pytest.mark.parametrize("walk_pairs", [1, 7, gbdt._WALK_PAIRS])
    def test_a_deep_chain_walks_each_row_its_own_path(self, walk_pairs):
        model = gbdt.GbdtModel.from_trees(0.0, (caterpillar(24, 1.0),), 2)
        with mock.patch.object(gbdt, "_WALK_PAIRS", walk_pairs):
            margins = gbdt.raw_score(model, self.CHAIN_ROWS)
        assert margins.tolist() == self.CHAIN_LEAVES
        assert margins.tobytes() == reference_raw_score(model, self.CHAIN_ROWS).tobytes()

    @pytest.mark.parametrize("walk_pairs", [1, 7, gbdt._WALK_PAIRS])
    @pytest.mark.parametrize("kind", ["mixed", "one leaf each", "none"])
    def test_one_leaf_trees_beside_deep_ones_give_the_per_tree_bytes(self, walk_pairs, kind, rng):
        # Values of very different sizes, so that the sum's rounding depends
        # on adding tree by tree in tree order.
        trees = {"mixed": (one_leaf(0.5), caterpillar(24, 1.0), one_leaf(-0.3),
                           caterpillar(1, 0.1), caterpillar(21, -1e-9), one_leaf(1e-17)),
                 "one leaf each": (one_leaf(0.5), one_leaf(-0.3)),
                 "none": ()}[kind]  # the one-class fallback's model
        model = gbdt.GbdtModel.from_trees(0.1, trees, 2)
        X = np.concatenate([self.CHAIN_ROWS, rng.integers(-1, 26, (40, 2)) + rng.random((40, 2))])
        X[rng.random(X.shape) < 0.1] = np.nan
        X[-10:] = rng.integers(0, 24, (10, 1))  # row (k, k) ends on interior node 2k's threshold
        with mock.patch.object(gbdt, "_WALK_PAIRS", walk_pairs):
            margins = gbdt.raw_score(model, X)
        assert margins.tobytes() == reference_raw_score(model, X).tobytes()

    def test_a_model_of_no_features_walks_its_one_leaf_trees(self):
        model = gbdt.GbdtModel.from_trees(0.1, (one_leaf(0.5), one_leaf(-0.3)), 0)
        X = np.zeros((3, 0))
        assert gbdt.raw_score(model, X).tobytes() == reference_raw_score(model, X).tobytes()

    GROWTHS = [
        ("leafwise", {"max_depth": None}),  # no depth cap: trees of uneven depth
        ("leafwise", {}),
        ("depthwise", {}),
        ("oblivious", {}),
    ]

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), growth=st.sampled_from(GROWTHS),
           rounds=st.integers(1, 12), depth=st.integers(1, 6), max_leaves=st.integers(2, 24),
           min_samples_leaf=st.sampled_from([1, 4, 30]), num_features=st.integers(1, 5),
           walk_pairs=st.sampled_from([1, 50, gbdt._WALK_PAIRS]), stop_early=st.booleans(),
           positives=st.sampled_from([None, 2, 3, 4]))
    @example(seed=3, growth=GROWTHS[0], rounds=8, depth=6, max_leaves=24, min_samples_leaf=1,
             num_features=3, walk_pairs=50, stop_early=False, positives=2)
    def test_packed_walk_equals_per_tree_walk(self, seed, growth, rounds, depth, max_leaves,
                                              min_samples_leaf, num_features, walk_pairs,
                                              stop_early, positives):
        growth, extra = growth
        rng = np.random.default_rng(seed)
        X = rng.integers(0, 9, (60, num_features)) / 8.0
        if positives is None:  # balanced labels
            y = rng.integers(0, 2, 60).astype(float)
            y[:2] = (0.0, 1.0)
        else:  # a rare class: many (tree, row) pairs reach a leaf after one step
            y = np.zeros(60)
            y[rng.choice(60, positives, replace=False)] = 1.0
        config = gbdt.GbdtConfig(rounds=rounds, learning_rate=0.5, growth=growth,
                                 max_leaves=max_leaves, min_samples_leaf=min_samples_leaf,
                                 **({"max_depth": depth} | extra))
        model = gbdt.train(X, y, config)
        if growth == "oblivious" and stop_early:
            model = stopped_early(model, rng)
            assert 0 in model.depths
        assert len(model.trees) == rounds
        probe = rng.random((40, num_features))
        probe[rng.random(probe.shape) < 0.05] = np.nan
        interior = np.flatnonzero(model.feature >= 0)
        if interior.size:  # rows placed exactly on a split's threshold
            picked = rng.choice(interior, size=20)
            probe[np.arange(20), model.feature[picked]] = model.threshold[picked]
        with mock.patch.object(gbdt, "_WALK_PAIRS", walk_pairs):  # one or more row blocks
            packed = gbdt.raw_score(model, probe)
        assert packed.tobytes() == reference_raw_score(model, probe).tobytes()


class TestEngineAgainstOracles:
    def test_first_split_matches_brute_force(self, rng):
        for trial in range(8):
            X = rng.random((40, 5))
            y = (X[:, trial % 5] + 0.3 * rng.random(40) > 0.6).astype(float)
            if y.min() == y.max():
                continue
            lam = 1.0
            config = gbdt.GbdtConfig(rounds=1, learning_rate=0.1, l2_reg=lam,
                                     growth="depthwise", max_depth=1, max_leaves=2)
            model = gbdt.train(X, y, config)
            tree = model.trees[0]
            gain, feature, threshold = brute_force_root_split(X, y, lam)
            assert tree.feature[0] == feature
            assert tree.threshold[0] == pytest.approx(threshold, abs=1e-12)

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), num_rows=st.integers(4, 40),
           num_features=st.integers(1, 5), min_samples_leaf=st.sampled_from([1, 3]),
           lam=st.sampled_from([0.0, 1.0]),
           depth=st.sampled_from([2, 3]), growth=st.sampled_from(["depthwise", "leafwise"]))
    def test_every_split_is_a_brute_force_best(self, seed, num_rows, num_features,
                                               min_samples_leaf, lam, depth, growth):
        # Values on a quarter grid make ties within and across features common.
        rng = np.random.default_rng(seed)
        X = rng.integers(0, 5, (num_rows, num_features)) / 4.0
        y = rng.integers(0, 2, num_rows).astype(float)
        y[:2] = (0.0, 1.0)
        config = gbdt.GbdtConfig(rounds=1, learning_rate=1.0, l2_reg=lam, growth=growth,
                                 max_depth=depth, max_leaves=2 ** depth,
                                 min_samples_leaf=min_samples_leaf)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)  # no invalid cut is ever divided
            model = gbdt.train(X, y, config)
        tree = model.trees[0]
        p = gbdt._sigmoid(np.full(num_rows, model.base_score))
        g, h = p - y, p * (1.0 - p)
        rows_of = {0: np.ones(num_rows, dtype=bool)}
        depth_of = {0: 0}
        for node in range(len(tree.feature)):  # children always follow their parent
            rows = rows_of[node]
            best = brute_force_leaf_gain(X, g, h, rows, lam, min_samples_leaf=min_samples_leaf)
            scale = 1.0 + g[rows].sum() ** 2 / (h[rows].sum() + lam)
            feature = tree.feature[node]
            if feature < 0:
                if depth_of[node] < depth and y[rows].min() != y[rows].max():
                    assert best < -1e-12 * scale  # an open leaf had nothing to take
                continue
            left = rows & (X[:, feature] <= tree.threshold[node])
            right = rows & ~left
            assert min(left.sum(), right.sum()) >= min_samples_leaf
            assert split_gain(g, h, left, right, lam) == pytest.approx(best, rel=1e-12,
                                                                       abs=1e-12 * scale)
            low, high = X[left, feature].max(), X[right, feature].min()
            assert tree.threshold[node] == low + (high - low) / 2.0
            for child, part in ((tree.left[node], left), (tree.right[node], right)):
                rows_of[child], depth_of[child] = part, depth_of[node] + 1

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), num_rows=st.integers(4, 40),
           num_features=st.integers(1, 5), min_samples_leaf=st.sampled_from([1, 3]),
           lam=st.sampled_from([0.0, 1.0]), depth=st.sampled_from([1, 2, 3]))
    def test_every_oblivious_level_is_a_brute_force_best(self, seed, num_rows, num_features,
                                                         min_samples_leaf, lam, depth):
        rng = np.random.default_rng(seed)
        X = rng.integers(0, 5, (num_rows, num_features)) / 4.0
        y = rng.integers(0, 2, num_rows).astype(float)
        y[:2] = (0.0, 1.0)
        config = gbdt.GbdtConfig(rounds=1, learning_rate=1.0, l2_reg=lam, growth="oblivious",
                                 max_depth=depth, min_samples_leaf=min_samples_leaf)
        model = gbdt.train(X, y, config)
        p = gbdt._sigmoid(np.full(num_rows, model.base_score))
        g, h = p - y, p * (1.0 - p)
        (levels,) = model.depths
        leaf_of = np.zeros(num_rows, dtype=np.int64)
        for level in range(levels + 1):
            gains = brute_force_level_gains(X, g, h, leaf_of, lam, min_samples_leaf)
            best = max((gain for gain, _, _ in gains), default=-math.inf)
            parents = sum(g[leaf_of == leaf].sum() ** 2 / (h[leaf_of == leaf].sum() + lam)
                          for leaf in np.unique(leaf_of))
            scale = 1.0 + parents
            if level == levels:
                if level < depth:  # the next level had nothing to take, or repeats one
                    taken = set(zip(model.feature.tolist(), model.threshold.tolist()))
                    repeats = [gain for gain, f, t in gains if (f, t) in taken]
                    assert best < -1e-12 * scale or any(
                        gain == pytest.approx(best, rel=1e-12, abs=1e-12 * scale)
                        for gain in repeats)
                break
            feature, threshold = model.feature[level], model.threshold[level]
            chosen = [gain for gain, f, t in gains if (f, t) == (feature, threshold)]
            assert len(chosen) == 1  # a border of the feature that keeps min_samples_leaf
            assert chosen[0] == pytest.approx(best, rel=1e-12, abs=1e-12 * scale)
            leaf_of = leaf_of * 2 + (X[:, feature] > threshold)

    @pytest.mark.parametrize("growth", ["leafwise", "depthwise"])
    def test_capped_root_split_is_the_best_kept_gap(self, growth, rng):
        # 400 distinct values are more than the 255 bins node-wise growth
        # keeps, so its root may cut only at the 254 evenly spaced gaps kept
        # between runs of values. The labels split perfectly at a gap that is
        # not kept, which an exact search would pick.
        num_rows, lam = 400, 1.0
        x = rng.random(num_rows)
        values = np.unique(x)
        kept = np.unique(np.linspace(0, len(values) - 2, 254).round().astype(int))
        assert len(kept) == 254
        y = (x > values[np.setdiff1d(np.arange(250, 399), kept)[0]]).astype(float)
        config = gbdt.GbdtConfig(rounds=1, learning_rate=1.0, l2_reg=lam, growth=growth,
                                 max_depth=1, max_leaves=2)
        threshold = gbdt.train(x[:, None], y, config).trees[0].threshold[0]
        p0 = y.mean()
        g, h = p0 - y, np.full(num_rows, p0 * (1 - p0))
        best = max(split_gain(g, h, x <= values[i], x > values[i], lam) for i in kept)
        gap = np.searchsorted(values, threshold, side="right") - 1  # values[gap] <= threshold
        assert gap in kept
        low, high = values[gap], values[gap + 1]
        assert threshold == low + (high - low) / 2.0
        scale = 1.0 + g.sum() ** 2 / (h.sum() + lam)
        left = x <= threshold
        assert split_gain(g, h, left, ~left, lam) == pytest.approx(best, rel=1e-12,
                                                                   abs=1e-12 * scale)

    def test_single_leaf_value_formula(self):
        # One round forced to a single leaf (min_samples_leaf too large to
        # split): value must be -sum(g) / (sum(h) + l2) * lr.
        X = np.arange(6, dtype=float).reshape(-1, 1)
        y = np.array([0.0, 0.0, 1.0, 0.0, 1.0, 1.0])
        lam, lr = 0.7, 0.3
        config = gbdt.GbdtConfig(rounds=1, learning_rate=lr, l2_reg=lam,
                                 min_samples_leaf=6, growth="leafwise")
        model = gbdt.train(X, y, config)
        tree = model.trees[0]
        assert len(tree.feature) == 1 and tree.feature[0] == -1
        p0 = y.mean()
        expected = -(p0 - y).sum() / ((p0 * (1 - p0)) * 6 + lam) * lr
        assert tree.value[0] == pytest.approx(expected, abs=1e-12)

    def test_loss_non_increasing_full_sampling(self, rng):
        X = rng.random((150, 6))
        y = ((X[:, 0] + 0.5 * X[:, 1] + rng.normal(0, 0.2, 150)) > 0.8).astype(float)
        for growth, extra in (("leafwise", {}), ("depthwise", {"max_depth": 4}),
                              ("oblivious", {"max_depth": 4})):
            config = gbdt.GbdtConfig(rounds=40, learning_rate=0.1, l2_reg=1.0,
                                     growth=growth, max_leaves=15, **extra)
            model = gbdt.train(X, y, config)
            losses = model_losses_per_round(model, X, y)
            assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:])), growth

    def test_min_samples_leaf_respected(self, rng):
        X = rng.random((50, 3))
        y = (X[:, 0] > 0.5).astype(float)
        config = gbdt.GbdtConfig(rounds=5, min_samples_leaf=8, growth="leafwise",
                                 max_leaves=12)
        model = gbdt.train(X, y, config)
        for tree in model.trees:
            _, counts = np.unique(_walk_to_leaves(tree, X), return_counts=True)
            assert counts.min() >= 8


def _walk_to_leaves(tree, X):
    """Node id of the leaf each row of X reaches, one row at a time."""
    leaves = []
    for row in X:
        node = 0
        while tree.feature[node] >= 0:
            go_left = row[tree.feature[node]] <= tree.threshold[node]
            node = tree.left[node] if go_left else tree.right[node]
        leaves.append(node)
    return np.array(leaves)


def _grow_rounds(X, y, config):
    """Boost like ``gbdt.train``, yielding each round's tree and the leaf
    node of every training row that its grower hands back. An oblivious
    tree comes in the heap layout of ``ObliviousModel.trees``, where leaf i
    in path order is node 2^depth - 1 + i."""
    oblivious = config.growth == "oblivious"
    grower_class = gbdt._ObliviousGrower if oblivious else gbdt._NodeGrower
    grower = grower_class(gbdt._Bins(X, gbdt._MAX_BINS[config.growth]), config)
    margins = np.zeros(len(y))
    for _ in range(config.rounds):
        p = gbdt._sigmoid(margins)
        tree, leaf_of = grower.grow(p - y, p * (1.0 - p), y)
        if oblivious:
            tree, leaf_of = (gbdt.ObliviousModel.from_trees(0.0, [tree], X.shape[1]).trees[0],
                             leaf_of + len(tree.value) - 1)
        yield tree, leaf_of
        margins += tree_values(tree, X)


def dense_oblivious_grow(grower, g, h, y, stop_at_repeat=False):
    """Oracle: ``grower.grow`` with every level histogramming all 2^level
    leaves, empty ones included, as one dense (leaves, features, stride)
    array, and with the nested-``np.where`` safe ratio. It grows on to
    ``max_depth`` through levels that repeat an earlier level's (feature,
    threshold), unless ``stop_at_repeat`` ends the tree at the first one."""
    def safe_ratio(num, den):
        return np.where(den > 0, num * num / np.where(den > 0, den, 1.0), 0.0)

    lam = grower.config.l2_reg
    codes, stride = grower.codes, grower.stride
    m, num_features = codes.shape
    g_rep = np.repeat(g, num_features)
    h_rep = np.repeat(h, num_features)
    levels = []
    leaf_of = np.zeros(m, dtype=np.int64)
    if stride > 1 and y.min() != y.max():
        feature_offsets = np.arange(num_features, dtype=np.int64)
        for _ in range(grower.config.max_depth):
            num_leaves = 1 << len(levels)
            flat = ((leaf_of[:, None] * num_features + feature_offsets) * stride + codes).ravel()
            size = num_leaves * num_features * stride
            hist_g = np.bincount(flat, weights=g_rep, minlength=size)
            hist_h = np.bincount(flat, weights=h_rep, minlength=size)
            hist_g = hist_g.reshape(num_leaves, num_features, stride)
            hist_h = hist_h.reshape(num_leaves, num_features, stride)
            total_g = np.bincount(leaf_of, weights=g, minlength=num_leaves)
            total_h = np.bincount(leaf_of, weights=h, minlength=num_leaves)
            left_g = np.cumsum(hist_g, axis=2)[:, :, :-1]
            left_h = np.cumsum(hist_h, axis=2)[:, :, :-1]
            right_g = total_g[:, None, None] - left_g
            right_h = total_h[:, None, None] - left_h
            parents = safe_ratio(total_g, total_h + lam)
            gain = (safe_ratio(left_g, left_h + lam) + safe_ratio(right_g, right_h + lam)
                    - parents[:, None, None])
            gain = np.where(grower.cut_valid, 0.5 * gain.sum(axis=0), -np.inf)
            at = int(np.argmax(gain))
            parent = float(parents.sum())
            if gain.flat[at] < -gbdt._GAIN_NOISE_RELATIVE * (1.0 + abs(parent)):
                break
            feature, cut = divmod(at, stride - 1)
            level = (feature, float(grower.borders[feature][cut]))
            if stop_at_repeat and level in levels:
                break
            levels.append(level)
            leaf_of = leaf_of * 2 + (codes[:, feature] > cut)

    num_leaves = 1 << len(levels)
    leaf_g = np.bincount(leaf_of, weights=g, minlength=num_leaves)
    leaf_h = np.bincount(leaf_of, weights=h, minlength=num_leaves)
    leaf_n = np.bincount(leaf_of, minlength=num_leaves)
    denom = leaf_h + lam
    values = np.where((leaf_n > 0) & (denom > 0), -leaf_g / np.where(denom > 0, denom, 1.0), 0.0)
    tree = gbdt._LevelTree(np.array([feature for feature, _ in levels], dtype=np.int32),
                           np.array([threshold for _, threshold in levels]),
                           values * grower.config.learning_rate)
    return tree, leaf_of


def tree_bytes(tree):
    return [(field.name, getattr(tree, field.name).dtype.str, getattr(tree, field.name).tobytes())
            for field in dataclasses.fields(tree)]


class TestOccupiedLeafLevels:
    """Oblivious levels histogram only the leaves that hold rows. An empty
    leaf adds exactly 0.0 to every gain, so the trees and leaves must be
    byte-equal to the dense histogram of every leaf."""

    # Summing the leaves in another order shows only where two cuts nearly
    # tie, which random draws rarely hold; these two draws do.
    @example(seed=63, num_rows=40, num_varied=3, capped=False, depth=5, lam=0.0,
             min_samples_leaf=1)
    @example(seed=138, num_rows=24, num_varied=3, capped=False, depth=6, lam=0.0,
             min_samples_leaf=1)
    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), num_rows=st.integers(2, 40),
           num_varied=st.integers(0, 3), capped=st.booleans(),
           depth=st.integers(1, 6), lam=st.sampled_from([0.0, 1.0]),
           min_samples_leaf=st.sampled_from([1, 3]))
    def test_grow_is_byte_equal_to_dense_levels(self, seed, num_rows, num_varied, capped,
                                                depth, lam, min_samples_leaf):
        # Column 0 is constant (stride 1 when it stands alone); the varied
        # columns sit on a quarter grid. A capped draw adds 64 rows and a
        # column of distinct values, so that column's borders are capped.
        rng = np.random.default_rng(seed)
        num_rows += 64 * capped
        columns = [np.full(num_rows, 0.5), *(rng.integers(0, 5, (num_varied, num_rows)) / 4.0)]
        if capped:
            columns.append(rng.random(num_rows))
        X = np.column_stack(columns)
        y = rng.integers(0, 2, num_rows).astype(float)
        config = gbdt.GbdtConfig(rounds=4, learning_rate=0.5, l2_reg=lam, growth="oblivious",
                                 max_depth=depth, min_samples_leaf=min_samples_leaf)
        grower = gbdt._ObliviousGrower(gbdt._Bins(X, gbdt._MAX_BINS["oblivious"]), config)
        if num_varied == 0 and not capped:
            assert grower.stride == 1
        if capped:
            assert len(grower.borders[-1]) == gbdt._MAX_BINS["oblivious"] - 1
        margins = np.zeros(num_rows)
        for _ in range(config.rounds):
            p = gbdt._sigmoid(margins)
            g, h = p - y, p * (1.0 - p)
            tree, leaf_of = grower.grow(g, h, y)
            dense_tree, dense_leaf_of = dense_oblivious_grow(grower, g, h, y, stop_at_repeat=True)
            assert tree_bytes(tree) == tree_bytes(dense_tree)
            assert leaf_of.tobytes() == dense_leaf_of.tobytes()
            margins += tree.value[leaf_of]

    def test_midpoint_of_arrays_is_the_scalar_midpoint(self):
        # Neighbouring floats, where the midpoint rounds onto one of the two,
        # among spread-out values; below < above in every pair.
        rng = np.random.default_rng(26)
        spread = rng.normal(0.0, 1e3, 40)
        values = np.unique(np.concatenate([
            spread, np.nextafter(spread, np.inf), np.nextafter(np.nextafter(spread, np.inf), np.inf),
            [0.0, 5e-324, 1.0, np.nextafter(1.0, 2.0), np.nextafter(np.nextafter(1.0, 2.0), 2.0)]]))
        below, above = values[:-1], values[1:]

        def scalar(low, high):  # the rule on Python floats, one pair at a time
            mid = low + (high - low) / 2.0
            return low if mid >= high else mid

        expected = np.array([scalar(low, high) for low, high in zip(below.tolist(), above.tolist())])
        arrays = gbdt._midpoint(below, above)
        assert arrays.dtype == np.float64 and arrays.tobytes() == expected.tobytes()
        one_by_one = np.array([float(gbdt._midpoint(low, high)) for low, high in zip(below, above)])
        assert one_by_one.tobytes() == expected.tobytes()
        landed_on_above = below + (above - below) / 2.0 >= above
        assert landed_on_above.any() and (arrays[landed_on_above] == below[landed_on_above]).all()
        assert ((arrays >= below) & (arrays < above)).all()

    def test_safe_ratio_matches_nested_where(self):
        num = np.array([0.0, -0.0, 1.5, -2.0, 3.0, -0.25, 1e-3, 7.0, -4.0, 0.0])
        den = np.array([0.0, -0.0, -0.0, -1.0, -1e-300, 2.0, 1e-300, 0.5, 3.0, 1.0])
        old = np.where(den > 0, num * num / np.where(den > 0, den, 1.0), 0.0)
        with np.errstate(all="raise"):
            new = gbdt._safe_ratio(num, den)
        assert new.dtype == old.dtype and new.tobytes() == old.tobytes()
        assert np.isfinite(new).all()

    def test_zero_l2_with_empty_sides_trains_finite(self):
        # Six rows under a depth-4 level: at every level some cut leaves a
        # leaf's side empty, where l2_reg = 0 makes the denominator 0.
        X = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 1.0], [3.0, 1.0], [4.0, 0.0], [5.0, 1.0]])
        y = np.array([0.0, 1.0, 0.0, 1.0, 1.0, 0.0])
        config = gbdt.GbdtConfig(rounds=5, learning_rate=0.3, l2_reg=0.0, growth="oblivious",
                                 max_depth=4)
        grower = gbdt._ObliviousGrower(gbdt._Bins(X, gbdt._MAX_BINS["oblivious"]), config)
        p = np.full(len(y), 0.5)
        with np.errstate(divide="raise", invalid="raise"):
            tree, leaf_of = grower.grow(p - y, p * (1.0 - p), y)
            model = gbdt.train(X, y, config)
        assert len(tree.feature) == 4 and len(np.unique(leaf_of)) < 16  # some leaves are empty
        for fitted in model.trees:
            assert np.isfinite(fitted.value).all() and np.isfinite(fitted.threshold).all()
        assert np.isfinite(gbdt.predict(model, X)).all()


def level_pairs(tree):
    """A level tree's (feature, threshold) pairs, root level first."""
    return list(zip(tree.feature.tolist(), tree.threshold.tolist()))


def first_repeat(tree):
    """How many levels of ``tree`` come before its first level that repeats
    an earlier level's (feature, threshold); its depth if none does."""
    pairs = level_pairs(tree)
    return next((level for level, pair in enumerate(pairs) if pair in pairs[:level]), len(pairs))


def padded_leaves(stopped, full):
    """Per leaf of ``stopped``, which is ``full`` cut at its first repeat,
    the leaf of ``full`` its rows reach: each level of ``full`` past the cut
    repeats a level of ``stopped`` and appends that level's bit of the path."""
    pairs, depth = level_pairs(full), len(stopped.feature)
    path = np.arange(1 << depth)
    leaf = path
    for pair in pairs[depth:]:
        leaf = leaf * 2 + (path >> (depth - 1 - pairs.index(pair)) & 1)
    return leaf


def oracle_train(X, y, config):
    """``gbdt.train`` for oblivious growth with the full-depth oracle as the
    grower: a model whose trees keep their repeated levels, as files written
    before trees stopped at a repeat hold them."""
    grower = gbdt._ObliviousGrower(gbdt._Bins(X, gbdt._MAX_BINS["oblivious"]), config)
    base_score = gbdt._logit(y.mean())
    margins = np.full(len(y), base_score)
    trees = []
    for _ in range(config.rounds):
        p = gbdt._sigmoid(margins)
        tree, leaf_of = dense_oblivious_grow(grower, p - y, p * (1.0 - p), y)
        trees.append(tree)
        margins += tree.value[leaf_of]
    return gbdt.ObliviousModel.from_trees(base_score, trees, X.shape[1])


def with_unseen_rows(rng, X):
    """``X``, rows off its value grid and those rows with 10 % NaN."""
    unseen = rng.uniform(-0.25, 1.25, (30, X.shape[1]))
    holed = unseen.copy()
    holed[rng.random(holed.shape) < 0.1] = np.nan
    return X, unseen, holed


class TestRepeatedLevelStop:
    """An oblivious tree ends at its first level whose best cut repeats an
    earlier level's (feature, threshold). Grown on to max_depth, such a level
    splits no leaf, so every level after it is the same repeat: the full-depth
    oracle's tree, cut there, with its leaves read at the padded path."""

    @pytest.mark.filterwarnings("ignore:all labels belong to one class")
    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), num_rows=st.integers(2, 40),
           num_features=st.integers(1, 3), separable=st.booleans(),
           depth=st.integers(1, 6), lam=st.sampled_from([0.0, 1.0]),
           min_samples_leaf=st.sampled_from([1, 3]))
    def test_grow_is_the_full_depth_oracle_cut_at_its_first_repeat(
            self, seed, num_rows, num_features, separable, depth, lam, min_samples_leaf):
        # Values on a quarter grid; a separable draw makes column 0 the
        # labels, so that the level after a cut on it repeats that cut.
        rng = np.random.default_rng(seed)
        y = rng.integers(0, 2, num_rows).astype(float)
        X = rng.integers(0, 5, (num_rows, num_features)) / 4.0
        if separable:
            X[:, 0] = y
        config = gbdt.GbdtConfig(rounds=4, learning_rate=0.5, l2_reg=lam, growth="oblivious",
                                 max_depth=depth, min_samples_leaf=min_samples_leaf)
        grower = gbdt._ObliviousGrower(gbdt._Bins(X, gbdt._MAX_BINS["oblivious"]), config)
        stopped, full = [], []
        margins = np.zeros(num_rows)
        for _ in range(config.rounds):
            p = gbdt._sigmoid(margins)
            g, h = p - y, p * (1.0 - p)
            tree, leaf_of = grower.grow(g, h, y)
            full_tree, full_leaf_of = dense_oblivious_grow(grower, g, h, y)
            kept = first_repeat(full_tree)
            assert tree.feature.tobytes() == full_tree.feature[:kept].tobytes()
            assert tree.threshold.tobytes() == full_tree.threshold[:kept].tobytes()
            padded = padded_leaves(tree, full_tree)
            assert tree.value.tobytes() == full_tree.value[padded].tobytes()
            assert padded[leaf_of].tobytes() == full_leaf_of.tobytes()
            stopped.append(tree)
            full.append(full_tree)
            margins += tree.value[leaf_of]
        models = [gbdt.ObliviousModel.from_trees(0.0, trees, num_features)
                  for trees in (stopped, full)]
        for rows in with_unseen_rows(rng, X):
            assert (gbdt.raw_score(models[0], rows).tobytes()
                    == gbdt.raw_score(models[1], rows).tobytes())
        trained = gbdt.train(X, y, config)
        ends = np.cumsum(trained.depths)
        for start, end in zip(ends - trained.depths, ends):  # no tree repeats a level
            pairs = zip(trained.feature[start:end].tolist(), trained.threshold[start:end].tolist())
            assert len(set(pairs)) == end - start

    @pytest.mark.parametrize("min_samples_leaf", [1, 3])
    def test_separating_column_ends_every_tree_at_its_root_level(self, min_samples_leaf):
        # Column 0 separates the labels, so once the root level has cut on it
        # every leaf is pure, and the best cut of the next level repeats it:
        # with l2_reg > 0 any other cut of a pure leaf loses. (With l2_reg = 0
        # such cuts gain 0 only up to rounding and may be taken; the property
        # above covers that case.) The other columns sit on a quarter grid.
        rng = np.random.default_rng(26)
        y = np.tile([0.0, 1.0], 24)
        X = np.column_stack([y, rng.integers(0, 5, (len(y), 2)) / 4.0])
        config = gbdt.GbdtConfig(rounds=4, learning_rate=0.5, l2_reg=1.0, growth="oblivious",
                                 max_depth=6, min_samples_leaf=min_samples_leaf)
        model = gbdt.train(X, y, config)
        assert model.depths.tolist() == [1] * config.rounds
        assert model.feature.tolist() == [0] * config.rounds
        full = oracle_train(X, y, config)
        assert (full.depths > 1).all()
        for rows in with_unseen_rows(rng, X):
            assert gbdt.raw_score(model, rows).tobytes() == gbdt.raw_score(full, rows).tobytes()

    def test_stacker_file_with_repeated_levels_loads_and_applies_the_same(self, tmp_path, rng):
        # A stacker file written before trees stopped at a repeat holds its
        # oblivious trees at full depth, repeats included. It still loads, at
        # the same version, and refines every slice to the same bytes.
        delta_s = 1
        probs = {f"s{i}": rng.random((int(rng.integers(3, 9)), 5)) for i in range(12)}
        labels = {scan: rows >= 0.5 for scan, rows in probs.items()}  # one center column each
        X, Y = stacker.stack_training_data(probs, labels, delta_s)
        config = gbdt.GbdtConfig(rounds=5, learning_rate=0.3, growth="oblivious", max_depth=4)
        trained = stacker.train_stacker(probs, labels, delta_s, [config])
        old = gbdt.GbdtEnsemble(groups=(tuple(oracle_train(X, Y[:, t].astype(float), config)
                                              for t in range(5)),))
        assert sum(m.depths.sum() for m in trained.models) < sum(m.depths.sum()
                                                                  for m in old.models)
        path = tmp_path / "stacker.json"
        stacker.save_stacker_model(old, delta_s, path)
        assert json.loads(path.read_text())["version"] == 4
        loaded, stored_delta_s = stacker.load_stacker_model(path)
        refined = stacker.apply_stacker_all(loaded, probs, stored_delta_s)
        expected = stacker.apply_stacker_all(trained, probs, delta_s)
        assert list(refined) == list(expected)
        for scan, rows in expected.items():
            assert refined[scan].tobytes() == rows.tobytes()


@dataclasses.dataclass(eq=False)
class EveryChildLeaf:
    node: int
    depth: int
    rows: np.ndarray
    present: np.ndarray | None
    hist: np.ndarray | None
    best: tuple | None = None


class EveryChildNodeGrower:
    """Oracle: node-wise growth that histograms every round's root from
    scratch and every child of every split, compacts each histogram and runs
    a split search on it, whether or not that leaf can split."""

    def __init__(self, bins, config):
        self.bins = bins
        self.config = config
        self.slot = np.empty(len(bins.low), dtype=np.intp)

    def grow(self, g, h, y):
        self.g, self.h, self.y = g, h, y
        self.leaf_of = np.zeros(len(y), dtype=np.intp)
        builder = gbdt._TreeBuilder()
        by_level = self.config.growth == "depthwise"
        heap = []
        every_bin = np.arange(len(self.bins.low))
        rows = np.arange(len(y))
        new_leaves = [self._make_leaf(builder, 0, rows, every_bin,
                                      self._histogram(rows, every_bin))]
        for _ in range(self.config.max_leaves - 1):
            for leaf in new_leaves:
                if leaf.best is not None:
                    priority = (leaf.depth if by_level else 0, -leaf.best[0], leaf.node)
                    heapq.heappush(heap, (priority, leaf))
            if not heap:
                break
            new_leaves = self._split(builder, heapq.heappop(heap)[1])
        return builder.build(), self.leaf_of

    def _histogram(self, rows, present):
        size = len(present)
        local = self.bins.codes.take(rows, axis=0)
        if size < len(self.slot):
            self.slot[present] = np.arange(size)
            local = self.slot.take(local)
        flat = local.ravel()
        hist = np.empty((3, size))
        hist[0] = np.bincount(flat, np.repeat(self.g[rows], local.shape[1]), minlength=size)
        hist[1] = np.bincount(flat, np.repeat(self.h[rows], local.shape[1]), minlength=size)
        hist[2] = np.bincount(flat, minlength=size)
        return hist

    def _make_leaf(self, builder, depth, rows, present, hist):
        grad_sum = float(self.g[rows].sum())
        hess_sum = float(self.h[rows].sum())
        denom = hess_sum + self.config.l2_reg
        node = builder.add_leaf(-grad_sum / denom * self.config.learning_rate if denom > 0 else 0.0)
        self.leaf_of[rows] = node
        leaf = EveryChildLeaf(node, depth, rows, None, None)
        if hist is not None:
            keep = np.flatnonzero(hist[2])
            leaf.present, leaf.hist = present[keep], hist.take(keep, axis=1)
            leaf.best = self._best_split(leaf, grad_sum, hess_sum)
        return leaf

    def _best_split(self, leaf, grad_sum, hess_sum):
        msl = self.config.min_samples_leaf
        m = len(leaf.rows)
        if m < 2 * msl or np.ptp(self.y[leaf.rows]) == 0:
            return None
        bounds = np.searchsorted(leaf.present, self.bins.starts)
        first = np.repeat(bounds[:-1], np.diff(bounds))
        cuts = np.flatnonzero(first[1:] == first[:-1])
        sums = np.zeros((3, len(leaf.present) + 1))
        np.cumsum(leaf.hist, axis=1, out=sums[:, 1:])
        left_g, left_h, left_c = sums.take(cuts + 1, axis=1) - sums.take(first[cuts], axis=1)
        if msl > 1:
            enough = (left_c >= msl) & (m - left_c >= msl)
            cuts, left_g, left_h = cuts[enough], left_g[enough], left_h[enough]
        if not len(cuts):
            return None
        score = self._score(left_g, left_h) + self._score(grad_sum - left_g, hess_sum - left_h)
        at = int(np.argmax(score))
        parent = float(self._score(grad_sum, hess_sum))
        gain = 0.5 * (score[at] - parent)
        if gain < -gbdt._GAIN_NOISE_RELATIVE * (1.0 + abs(parent)):
            return None
        low_bin, high_bin = leaf.present[cuts[at]], leaf.present[cuts[at] + 1]
        threshold = gbdt._midpoint(self.bins.high[low_bin], self.bins.low[high_bin])
        return float(gain), int(low_bin), float(threshold)

    def _score(self, grad, hess):
        lam = self.config.l2_reg
        return grad ** 2 / (hess + lam) if lam > 0 else gbdt._safe_ratio(grad, hess)

    def _split(self, builder, leaf):
        _, low_bin, threshold = leaf.best
        feature = int(self.bins.feature[low_bin])
        go_left = self.bins.codes[:, feature].take(leaf.rows) <= low_bin
        parts = (leaf.rows[go_left], leaf.rows[~go_left])
        depth = leaf.depth + 1
        hists = [None, None]
        if self.config.max_depth is None or depth < self.config.max_depth:
            small = int(len(parts[1]) < len(parts[0]))
            hists[small] = self._histogram(parts[small], leaf.present)
            hists[1 - small] = leaf.hist - hists[small]
        left = self._make_leaf(builder, depth, parts[0], leaf.present, hists[0])
        right = self._make_leaf(builder, depth, parts[1], leaf.present, hists[1])
        builder.to_split(leaf.node, feature, threshold, left.node, right.node)
        return left, right


def recording(method, calls):
    """``method`` wrapped to append the arguments of each call to ``calls``."""
    def recorded(self, *args):
        calls.append(args)
        return method(self, *args)
    return recorded


class TestSplittableLeaves:
    """Node-wise growth histograms, compacts and searches only the leaves
    that can split, and builds every round's root counts and cut layout once
    per model. The trees and leaves must be byte-equal to growth that does
    all of that for every leaf."""

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), num_rows=st.integers(2, 80),
           positive_rate=st.sampled_from([0.05, 0.2, 0.5]), capped=st.booleans(),
           growth=st.sampled_from(["leafwise", "depthwise"]),
           max_depth=st.sampled_from([None, 1, 2, 3]), max_leaves=st.integers(2, 12),
           lam=st.sampled_from([0.0, 1.0]), min_samples_leaf=st.integers(1, 8))
    def test_grow_is_byte_equal_to_histogramming_every_child(
            self, seed, num_rows, positive_rate, capped, growth, max_depth, max_leaves, lam,
            min_samples_leaf):
        # Rare positives leave most children label-pure. The varied columns
        # sit on a quarter grid; a capped draw adds 256 rows and a column of
        # distinct values, more than the 255 bins node-wise growth keeps.
        rng = np.random.default_rng(seed)
        num_rows += 256 * capped
        X = np.column_stack([rng.integers(0, 5, (num_rows, 3)) / 4.0,
                             rng.random((num_rows, int(capped)))])
        y = (rng.random(num_rows) < positive_rate).astype(float)
        if growth == "depthwise" and max_depth is None:
            max_depth = 4
        config = gbdt.GbdtConfig(rounds=4, learning_rate=0.5, l2_reg=lam, growth=growth,
                                 max_depth=max_depth, max_leaves=max_leaves,
                                 min_samples_leaf=min_samples_leaf)
        bins = gbdt._Bins(X, gbdt._MAX_BINS[growth])
        if capped:
            assert np.diff(bins.starts)[-1] == gbdt._MAX_BINS[growth]
        grower, oracle = gbdt._NodeGrower(bins, config), EveryChildNodeGrower(bins, config)
        margins = np.zeros(num_rows)
        for _ in range(config.rounds):
            p = gbdt._sigmoid(margins)
            g, h = p - y, p * (1.0 - p)
            tree, leaf_of = grower.grow(g, h, y)
            oracle_tree, oracle_leaf_of = oracle.grow(g, h, y)
            assert tree_bytes(tree) == tree_bytes(oracle_tree)
            assert leaf_of.tobytes() == oracle_leaf_of.tobytes()
            margins += tree.value[leaf_of]

    def test_separating_root_builds_no_child_histogram(self, monkeypatch, rng):
        # Feature 0 separates the labels, so every round's root split leaves
        # two label-pure children, and neither may be histogrammed.
        X = np.column_stack([np.repeat([0.0, 1.0], 30), rng.random((60, 3))])
        y = X[:, 0].copy()
        built = []
        monkeypatch.setattr(gbdt._NodeGrower, "_histogram",
                            recording(gbdt._NodeGrower._histogram, built))
        for growth, extra in (("leafwise", {}), ("depthwise", {"max_depth": 3})):
            model = gbdt.train(X, y, gbdt.GbdtConfig(rounds=6, growth=growth, **extra))
            assert all(tree.feature[0] == 0 and len(tree.feature) == 3 for tree in model.trees)
        assert built == []

    @pytest.mark.parametrize("growth,extra", [("leafwise", {"max_leaves": 16}),
                                              ("depthwise", {"max_depth": 4, "max_leaves": 16})])
    def test_unsplittable_leaves_hold_no_search(self, monkeypatch, growth, extra):
        rng = np.random.default_rng(7)
        X = rng.integers(0, 9, (120, 4)) / 8.0
        y = (X[:, 0] + X[:, 1] + 0.5 * rng.random(120) > 1.4).astype(float)
        msl = 4
        made = []
        make_leaf = gbdt._NodeGrower._make_leaf

        def spy(self, builder, depth, rows):
            leaf = make_leaf(self, builder, depth, rows)
            made.append((leaf, rows, self.y))
            return leaf

        splits, histograms = [], []
        monkeypatch.setattr(gbdt._NodeGrower, "_make_leaf", spy)
        monkeypatch.setattr(gbdt._NodeGrower, "_split", recording(gbdt._NodeGrower._split, splits))
        monkeypatch.setattr(gbdt._NodeGrower, "_histogram",
                            recording(gbdt._NodeGrower._histogram, histograms))
        gbdt.train(X, y, gbdt.GbdtConfig(rounds=5, growth=growth, min_samples_leaf=msl, **extra))
        # A split histograms at most its smaller child; the larger one is the
        # parent minus that sibling.
        assert 0 < len(histograms) <= len(splits)
        searched = unsplittable = 0
        for leaf, rows, labels in made:
            if len(rows) < 2 * msl or np.ptp(labels[rows]) == 0:
                unsplittable += 1
                assert leaf.present is None and leaf.hist is None and leaf.best is None
            else:
                searched += leaf.best is not None
        assert unsplittable > 0 and searched > 0


class TestLeavesFromGrowth:
    """``train`` updates its margins from the leaves the grower reports, so
    those must be exactly the leaves a walk of the tree reaches."""

    GROWTHS = [
        ("leafwise", {"max_leaves": 8}),
        ("depthwise", {"max_depth": 3, "max_leaves": 8}),
        ("depthwise", {"max_depth": 2, "max_leaves": 64}),  # the depth cap binds
        ("oblivious", {"max_depth": 3}),
    ]

    @pytest.mark.parametrize("growth,extra", GROWTHS)
    @pytest.mark.parametrize("min_samples_leaf", [1, 3])
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("capped", [False, True])
    def test_grown_leaf_values_equal_walked_values(self, growth, extra, min_samples_leaf, seed,
                                                   capped):
        rng = np.random.default_rng(seed)
        num_rows = 320 if capped else 40
        y = rng.integers(0, 2, num_rows).astype(float)
        y[:2] = (0.0, 1.0)
        # Column 0 holds 1.0 and the next float up, whose midpoint rounds
        # down onto 1.0; it mostly tracks the label so it gets split on. The
        # next columns sit on a quarter grid, where ties are common. A capped
        # draw adds a column of 320 distinct values, more than any growth
        # mode keeps bins for, whose bins are runs of several values.
        tracks = np.where(rng.random(num_rows) < 0.8, y, 1.0 - y)
        X = np.column_stack([np.where(tracks > 0, np.nextafter(1.0, 2.0), 1.0),
                             rng.integers(0, 5, (num_rows, 3)) / 4.0,
                             rng.random((num_rows, int(capped)))])
        config = gbdt.GbdtConfig(rounds=4, learning_rate=0.5, growth=growth,
                                 min_samples_leaf=min_samples_leaf, **extra)
        split_on_collapsed_midpoint = split_on_runs = False
        for tree, leaf_of in _grow_rounds(X, y, config):
            assert np.array_equal(leaf_of, _walk_to_leaves(tree, X))
            assert tree.value[leaf_of].tobytes() == tree_values(tree, X).tobytes()
            split_on_collapsed_midpoint |= bool(np.any(
                (tree.feature == 0) & (tree.threshold == 1.0)))
            split_on_runs |= bool(np.any(tree.feature == 4))
        assert split_on_collapsed_midpoint
        assert split_on_runs == capped

    @pytest.mark.parametrize("growth,extra", GROWTHS)
    def test_midpoint_rounding_up_splits_at_the_lower_value(self, growth, extra):
        # Between 1.0 + ulp and the next float up the midpoint rounds up onto
        # the upper value, where it would send both values left; every growth
        # mode splits at the lower value instead.
        low = np.nextafter(1.0, 2.0)
        high = np.nextafter(low, 2.0)
        assert low + (high - low) / 2.0 == high
        y = np.array([0.0, 1.0] * 10)
        X = np.where(y > 0, high, low)[:, None]
        config = gbdt.GbdtConfig(rounds=1, growth=growth, **extra)
        tree, leaf_of = next(_grow_rounds(X, y, config))
        assert tree.feature[0] == 0 and tree.threshold[0] == low
        assert np.array_equal(leaf_of, _walk_to_leaves(tree, X))
        assert not np.intersect1d(leaf_of[y == 0], leaf_of[y == 1]).size  # no leaf holds both

    def test_train_never_walks_a_tree(self, monkeypatch, rng):
        walks = []

        def spy(model, X):
            walks.append(model)
            return walk(model, X)

        walk = gbdt.raw_score
        monkeypatch.setattr(gbdt, "raw_score", spy)
        X = rng.integers(0, 5, (60, 4)) / 4.0
        y = (X[:, 0] + rng.random(60) > 0.9).astype(float)
        for growth, extra in self.GROWTHS:
            model = gbdt.train(X, y, gbdt.GbdtConfig(rounds=5, growth=growth, **extra))
            assert len(model.trees) == 5
        assert walks == []


class TestGrowthOrder:
    def test_leafwise_splits_the_best_open_leaf(self, rng):
        X = rng.random((60, 3))
        y = (X[:, 0] + X[:, 1] * X[:, 2] + 0.3 * rng.random(60) > 0.9).astype(float)
        lam = 1.0
        config = gbdt.GbdtConfig(rounds=1, growth="leafwise", max_leaves=8, l2_reg=lam)
        tree = gbdt.train(X, y, config).trees[0]
        p0 = y.mean()
        g = p0 - y
        h = np.full(len(y), p0 * (1 - p0))
        rows_of = {0: np.ones(len(y), dtype=bool)}
        open_leaves = [0]
        # Node ids follow creation order, so splits happened in the order of
        # their children's ids.
        for node in sorted(np.flatnonzero(tree.feature >= 0), key=lambda n: tree.left[n]):
            gains = [brute_force_leaf_gain(X, g, h, rows_of[n], lam) for n in open_leaves]
            assert brute_force_leaf_gain(X, g, h, rows_of[node], lam) >= max(gains) - 1e-12
            left = rows_of[node] & (X[:, tree.feature[node]] <= tree.threshold[node])
            rows_of[tree.left[node]] = left
            rows_of[tree.right[node]] = rows_of[node] & ~left
            open_leaves.remove(node)
            open_leaves += [tree.left[node], tree.right[node]]

    def test_depthwise_finishes_each_level_first(self, rng):
        # Node ids follow split order, so level-by-level growth numbers every
        # node of a level before any node of the next; max_leaves cuts the
        # last level partway.
        X = rng.random((300, 6))
        y = (X[:, 0] + X[:, 1] * X[:, 2] + 0.3 * rng.random(300) > 0.9).astype(float)
        config = gbdt.GbdtConfig(rounds=3, growth="depthwise", max_depth=5, max_leaves=12)
        for tree in gbdt.train(X, y, config).trees:
            depth = np.zeros(len(tree.feature), dtype=int)
            for node in np.flatnonzero(tree.feature >= 0):
                depth[tree.left[node]] = depth[tree.right[node]] = depth[node] + 1
            assert np.all(np.diff(depth) >= 0), depth
            assert (tree.feature < 0).sum() == 12


class TestDeterminism:
    def test_identical_seed_identical_model(self, rng):
        # Training draws no random numbers: the same inputs give the same trees.
        X = rng.random((80, 5))
        y = (X[:, 1] > 0.5).astype(float)
        config = gbdt.GbdtConfig(rounds=15, growth="leafwise")
        a = gbdt.train(X, y, config)
        b = gbdt.train(X, y, config)
        assert a.base_score == b.base_score
        assert all(trees_equal(ta, tb) for ta, tb in zip(a.trees, b.trees))
        probe = rng.random((10, 5))
        assert np.array_equal(gbdt.predict(a, probe), gbdt.predict(b, probe))


class TestEnsemble:
    def test_single_config_matches_member(self, rng):
        # A one-group ensemble (the slice model) predicts each type's member
        # bit for bit: the mean over one group is (0.0 + p) / 1 == p.
        X = rng.random((60, 4))
        Y = rng.integers(0, 2, (60, 5)).astype(bool)
        config = gbdt.GbdtConfig(rounds=10, growth="depthwise", max_depth=3)
        ensemble = gbdt.train_ensemble(X, Y, [config])
        assert ensemble.models == ensemble.groups[0]
        probe = rng.random((10, 4))
        out = ensemble.predict(probe)
        for t, model in enumerate(ensemble.models):
            assert np.array_equal(out[:, t], gbdt.predict(model, probe))
            assert np.array_equal(out[:, t], gbdt.predict(gbdt.train(X, Y[:, t], config), probe))

    def test_identical_configs_mean_equals_member(self, rng):
        X = rng.random((60, 4))
        Y = rng.integers(0, 2, (60, 5)).astype(float)
        config = gbdt.GbdtConfig(rounds=8, growth="leafwise")
        ensemble = gbdt.train_ensemble(X, Y, [config, config, config])
        probe = rng.random((10, 4))
        member = np.column_stack([gbdt.predict(ensemble.groups[0][t], probe)
                                  for t in range(5)])
        assert np.allclose(ensemble.predict(probe), member)

    def test_predict_calls_module_predict_once_per_model(self, monkeypatch, rng):
        # The benchmark's tracer wraps gbdt.predict by name and reads
        # len(model.trees); both must keep meaning one call per model and
        # one tree per round.
        X = rng.random((60, 4))
        Y = (X[:, :1] + rng.random((60, 5)) > 0.9).astype(float)
        ensemble = gbdt.train_ensemble(X, Y, gbdt.default_presets(rounds=3))
        assert [len(model.trees) for model in ensemble.models] == [3] * 15
        calls = []
        predict = gbdt.predict

        def spy(model, features):
            calls.append(model)
            return predict(model, features)

        monkeypatch.setattr(gbdt, "predict", spy)
        ensemble.predict(rng.random((10, 4)))
        assert calls == list(ensemble.models)

    def test_empty_config_list(self):
        with pytest.raises(ArityError):
            gbdt.train_ensemble(np.ones((2, 2)), np.ones((2, 5)), [])

    def test_pooled_training_writes_the_serial_files(self, monkeypatch, tmp_path, rng):
        # One (config, type) model per forked worker gives the same bytes as
        # training them one after another in this process.
        X = rng.random((80, 4))
        Y = (X[:, :1] + rng.random((80, 5)) > 0.9).astype(float)
        for cpus in (1, 2):
            monkeypatch.setattr(parallel, "_usable_cpus", lambda: cpus)
            ensemble = gbdt.train_ensemble(X, Y, gbdt.default_presets(rounds=5))
            gbdt.save_ensemble(ensemble, "test-model", 1, {}, tmp_path / f"cpus{cpus}.json")
        assert (tmp_path / "cpus1.json").read_bytes() == (tmp_path / "cpus2.json").read_bytes()

    def test_models_stay_read_only_through_pickle_and_copies(self, monkeypatch, rng):
        X = rng.random((40, 3))
        Y = rng.integers(0, 2, (40, 2)).astype(float)
        monkeypatch.setattr(parallel, "_usable_cpus", lambda: 2)
        configs = [gbdt.GbdtConfig(rounds=3), gbdt.GbdtConfig(rounds=3, growth="oblivious",
                                                              max_depth=3)]
        ensemble = gbdt.train_ensemble(X, Y, configs)
        assert [type(model) for model in ensemble.models] == [gbdt.GbdtModel] * 2 + [
            gbdt.ObliviousModel] * 2
        for pooled in ensemble.models:
            names = [field.name for field in dataclasses.fields(pooled)
                     if isinstance(getattr(pooled, field.name), np.ndarray)]
            for model in (pooled, pickle.loads(pickle.dumps(pooled)), copy.deepcopy(pooled)):
                assert type(model) is type(pooled)
                for name in names:
                    column = getattr(model, name)
                    assert not column.flags.writeable, name
                    assert np.array_equal(column, getattr(pooled, name)), name

    def test_default_presets_ensemble_close_to_best_member(self, rng):
        # Smooth nonlinear target with label noise; ensemble validation loss
        # should sit within a small margin of the best single preset.
        n = 500
        X = rng.random((n, 8))
        signal = np.sin(3 * X[:, 0]) + X[:, 1] * X[:, 2] - 0.5 * X[:, 3]
        y = ((signal + rng.normal(0, 0.35, n)) > 0.55).astype(float)
        train_idx, val_idx = np.arange(0, 350), np.arange(350, n)
        presets = gbdt.default_presets()
        members = [gbdt.train(X[train_idx], y[train_idx], cfg) for cfg in presets]
        member_losses = [log_loss(gbdt.predict(m, X[val_idx]), y[val_idx]) for m in members]
        mean_prob = np.mean([gbdt.predict(m, X[val_idx]) for m in members], axis=0)
        ensemble_loss = log_loss(mean_prob, y[val_idx])
        assert ensemble_loss <= min(member_losses) + 0.02


#: The model-file dtype of each typed column: little-endian int32 and float64.
COLUMN_DTYPES = {"tree_sizes": "<i4", "feature": "<i4", "threshold": "<f8", "left": "<i4",
                 "right": "<i4", "value": "<f8"}
LEVEL_DTYPES = {"tree_depths": "<i4", "feature": "<i4", "threshold": "<f8", "value": "<f8"}


def decode(model_record, name, dtype=None):
    """A model record's typed column, as a writable array."""
    raw = base64.b64decode(model_record[name])
    return np.frombuffer(raw, dtype or {**COLUMN_DTYPES, **LEVEL_DTYPES}[name]).copy()


def encode(values, dtype):
    return base64.b64encode(np.asarray(values, dtype=dtype).tobytes()).decode("ascii")


def empty_model_record(**fields):
    """A zero-tree model as a file stores it, with ``fields`` overriding."""
    return {"base_score": 0.0, "num_features": 2, "num_trees": 0, "num_nodes": 0,
            **{name: "" for name in COLUMN_DTYPES}, **fields}


class TestPersistence:
    """File round trips through save_ensemble / load_ensemble, the one
    model-file writer and reader."""

    KIND, VERSION = "test-model", 7

    def save(self, ensemble, path, fields=None):
        gbdt.save_ensemble(ensemble, self.KIND, self.VERSION, fields or {}, path)
        return json.loads(path.read_text())

    def load(self, path, num_types=1):
        return gbdt.load_ensemble(path, self.KIND, self.VERSION, num_types)

    @staticmethod
    def write(record, path):
        # Python's infinity token is not JSON; 1e999 is, and reads as infinity.
        path.write_text(json.dumps(record).replace("Infinity", "1e999"))

    def saved_model(self, rng, path, **config):
        """A record holding one trained 3-feature model, and its model record.
        The labels are an XOR of two columns, so an oblivious tree needs two
        levels."""
        X = rng.random((40, 3))
        y = ((X[:, 0] > 0.5) != (X[:, 1] > 0.5)).astype(float)
        model = gbdt.train(X, y, gbdt.GbdtConfig(**config))
        record = self.save(gbdt.GbdtEnsemble(groups=((model,),)), path)
        return record, record["groups"][0][0]

    def test_model_round_trip_bit_exact(self, tmp_path, rng):
        X = rng.random((50, 4))
        y = (X[:, 0] > 0.5).astype(float)
        model = gbdt.train(X, y, gbdt.GbdtConfig(rounds=12, growth="leafwise"))
        path = tmp_path / "model.json"
        self.save(gbdt.GbdtEnsemble(groups=((model,),)), path)
        (restored,) = self.load(path)[0].models
        assert restored.base_score == model.base_score
        assert restored.num_features == model.num_features
        assert len(restored.trees) == len(model.trees)
        assert all(trees_equal(a, b) for a, b in zip(model.trees, restored.trees))
        probe = rng.random((20, 4))
        assert np.array_equal(gbdt.predict(model, probe), gbdt.predict(restored, probe))

    def test_ensemble_round_trip_bit_exact(self, tmp_path, rng):
        X = rng.random((40, 3))
        Y = rng.integers(0, 2, (40, 5)).astype(float)
        ensemble = gbdt.train_ensemble(X, Y, gbdt.default_presets(rounds=4))
        path = tmp_path / "model.json"
        self.save(ensemble, path)
        restored, _ = self.load(path, num_types=5)
        assert [len(group) for group in restored.groups] == [5, 5, 5]
        for model, back in zip(ensemble.models, restored.models):
            assert type(back) is type(model)
            assert back.base_score == model.base_score
            assert all(trees_equal(a, b) for a, b in zip(model.trees, back.trees))
        probe = rng.random((10, 3))
        assert np.array_equal(ensemble.predict(probe), restored.predict(probe))

    def test_record_layout_and_caller_fields(self, tmp_path, rng):
        model = gbdt.GbdtModel.from_trees(0.25, (), 2)
        path = tmp_path / "model.json"
        record = self.save(gbdt.GbdtEnsemble(groups=((model,),)), path, {"note": "kept"})
        assert list(record) == ["format", "version", "note", "groups"]
        assert record["format"] == "hemtriage/test-model"
        assert record["groups"] == [[empty_model_record(base_score=0.25)]]
        assert self.load(path)[1] == record

        # Counts stay readable JSON; each column is its trees' nodes, in order.
        record, stored = self.saved_model(rng, path, rounds=3, max_leaves=4)
        (model,) = self.load(path)[0].models
        assert list(stored) == ["base_score", "num_features", "num_trees", "num_nodes",
                                *COLUMN_DTYPES]
        assert stored["num_trees"] == 3 == len(model.trees)
        assert decode(stored, "tree_sizes").tolist() == [len(tree.feature) for tree in model.trees]
        assert stored["num_nodes"] == sum(len(tree.feature) for tree in model.trees)
        for name in ("feature", "threshold", "left", "right", "value"):
            expected = np.concatenate([getattr(tree, name) for tree in model.trees])
            assert decode(stored, name).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("edit, message", [
        ({"format": "something-else"}, "not a hemtriage/test-model record"),
        ({"version": 6}, "unsupported version 6"),
        ({"groups": {"a": []}}, "malformed test-model record"),
        ({"groups": [{}]}, "malformed test-model record"),
        ({"groups": [[[]]]}, "malformed test-model record"),
        ({"groups": []}, "malformed test-model record: .*at least one model group"),
        ({"groups": [[]]}, "malformed test-model record"),
        ({"groups": [[{key: value for key, value in empty_model_record().items()
                       if key != "base_score"}]]}, "malformed test-model record"),
        ({"groups": [[empty_model_record()], [empty_model_record(num_features=3)]]},
         "malformed test-model record: .*share one feature"),
        ({"groups": [[empty_model_record()] * 2]}, "a test-model must cover 1 types, got 2"),
        ({"groups": [[empty_model_record(base_score=float("inf"))]]},
         "malformed test-model record: model base_score must be a finite number"),
        ({"groups": [[empty_model_record(base_score="0.1")]]},
         "malformed test-model record: model base_score must be a finite number"),
        ({"groups": [[empty_model_record(num_features="2")]]},
         "malformed test-model record: model num_features must be an integer"),
        ({"groups": [[empty_model_record(num_features=2.0)]]},
         "malformed test-model record: model num_features must be an integer"),
        ({"groups": [[empty_model_record(num_trees=0.0)]]},
         "malformed test-model record: model num_trees must be a non-negative integer"),
        ({"groups": [[empty_model_record(num_nodes="0")]]},
         "malformed test-model record: model num_nodes must be a non-negative integer"),
        ({"groups": [[empty_model_record(num_trees=True)]]},
         "malformed test-model record: model num_trees must be a non-negative integer"),
        ({"groups": [[empty_model_record(num_trees=-1)]]},
         "malformed test-model record: model num_trees must be a non-negative integer"),
    ])
    def test_rejects_malformed_records(self, tmp_path, edit, message):
        model = gbdt.GbdtModel.from_trees(0.0, (), 2)
        path = tmp_path / "model.json"
        record = self.save(gbdt.GbdtEnsemble(groups=((model,),)), path)
        self.write({**record, **edit}, path)
        with pytest.raises(FormatError, match=f"model.json: {message}"):
            self.load(path)

    @pytest.mark.parametrize("edit, match", [
        # A feature index stored as float64 (0.9 once loaded as feature 0).
        (lambda model: model.update(feature=encode(decode(model, "feature") + 0.9, "<f8")),
         "feature holds .* bytes"),
        # Numbers as JSON, here thresholds as text ("0.5" once loaded as 0.5).
        (lambda model: model.update(threshold=[str(v) for v in decode(model, "threshold")]),
         ""),
        (lambda model: model.update(value=encode(decode(model, "value")[:-1], "<f8")),
         "value holds .* bytes"),
        (lambda model: model.update({name: "" for name in COLUMN_DTYPES}), "holds 0 bytes"),
        (lambda model: model.pop("left"), "'left'"),
        (lambda model: model.update(value="not base64!"), ""),
        (lambda model: model.update(num_trees=model["num_trees"] + 1), "tree_sizes holds"),
        (lambda model: model.update(tree_sizes=encode(decode(model, "tree_sizes") + [0, 1],
                                                      "<i4")),
         "tree sizes sum to"),
        (lambda model: model.update(tree_sizes=encode([0, model["num_nodes"]], "<i4")),
         "at least one node"),
    ], ids=["float-feature", "text-threshold", "short", "empty", "missing", "bad-base64",
            "tree-count", "sizes-sum", "empty-tree"])
    def test_rejects_malformed_tree_arrays(self, tmp_path, rng, edit, match):
        path = tmp_path / "model.json"
        record, model = self.saved_model(rng, path, rounds=2)
        assert model["num_trees"] == 2
        edit(model)
        self.write(record, path)
        with pytest.raises(FormatError, match=f"model.json: malformed test-model record: .*{match}"):
            self.load(path)

    def test_level_record_layout(self, tmp_path, rng):
        # Counts stay readable JSON; each column is its trees' levels or
        # leaves, in order.
        path = tmp_path / "model.json"
        record, stored = self.saved_model(rng, path, rounds=3, growth="oblivious", max_depth=2)
        (model,) = self.load(path)[0].models
        assert isinstance(model, gbdt.ObliviousModel)
        assert list(stored) == ["base_score", "num_features", "num_trees", "num_levels",
                                "num_leaves", *LEVEL_DTYPES]
        assert decode(stored, "tree_depths").tolist() == [2, 2, 2] == model.depths.tolist()
        assert (stored["num_trees"], stored["num_levels"], stored["num_leaves"]) == (3, 6, 12)
        for name in ("feature", "threshold", "value"):
            assert decode(stored, name).tobytes() == getattr(model, name).tobytes()
        zero_trees = gbdt.ObliviousModel.from_trees(0.25, (), 2)
        record = self.save(gbdt.GbdtEnsemble(groups=((zero_trees,),)), path)
        assert record["groups"] == [[{"base_score": 0.25, "num_features": 2, "num_trees": 0,
                                      "num_levels": 0, "num_leaves": 0,
                                      **{name: "" for name in LEVEL_DTYPES}}]]
        (restored,) = self.load(path)[0].models
        assert isinstance(restored, gbdt.ObliviousModel) and restored.num_trees == 0

    @staticmethod
    def edit_levels(model, depths=None, num_levels=0, num_leaves=0, **columns):
        """Replace a level model record's depths or edit its columns
        (``name=(index, value)`` sets one value, ``name=count`` appends that
        many copies of the last value or, if negative, drops that many) and
        add to its level and leaf counts."""
        if depths is not None:
            model["tree_depths"] = encode(depths, "<i4")
        for name, edit in columns.items():
            values = decode(model, name)
            if isinstance(edit, tuple):
                values[edit[0]] = edit[1]
            elif edit < 0:
                values = values[:edit]
            else:
                values = np.concatenate([values, np.repeat(values[-1:], edit)])
            model[name] = encode(values, LEVEL_DTYPES[name])
        model["num_levels"] += num_levels
        model["num_leaves"] += num_leaves

    @pytest.mark.parametrize("edit, match", [
        (lambda model: model.update(num_trees=3), "model tree_depths holds 8 bytes, not 3 values"),
        (lambda model: TestPersistence.edit_levels(model, num_levels=1, feature=1, threshold=1),
         "tree depths give 4 levels and 8 leaves, not num_levels 5 and num_leaves 8"),
        (lambda model: TestPersistence.edit_levels(model, num_leaves=1, value=1),
         "tree depths give 4 levels and 8 leaves, not num_levels 4 and num_leaves 9"),
        (lambda model: TestPersistence.edit_levels(model, feature=-1),
         "model feature holds 12 bytes, not 4 values"),
        (lambda model: TestPersistence.edit_levels(model, feature=(2, 3)),
         r"level feature index outside \[0, 3\)"),
        (lambda model: TestPersistence.edit_levels(model, feature=(0, -1)),
         r"level feature index outside \[0, 3\)"),
        (lambda model: TestPersistence.edit_levels(model, threshold=(3, float("inf"))),
         "level thresholds and leaf values must be finite"),
        (lambda model: TestPersistence.edit_levels(model, value=(5, float("nan"))),
         "level thresholds and leaf values must be finite"),
        (lambda model: TestPersistence.edit_levels(model, depths=[2, -1]),
         r"tree depths must lie in \[0, 30\]"),
        (lambda model: TestPersistence.edit_levels(model, depths=[2, 31], num_levels=29,
                                                   feature=29, threshold=29),
         r"tree depths must lie in \[0, 30\]"),
        # 1 << 64 wraps to 0 in int64, so these counts and columns agree
        # with a wrapped leaf count: only the depth cap rejects the file.
        (lambda model: TestPersistence.edit_levels(model, depths=[2, 64], num_levels=62,
                                                   num_leaves=-4, feature=62, threshold=62,
                                                   value=-4),
         r"tree depths must lie in \[0, 30\]"),
    ], ids=["tree-count", "levels-sum", "leaves-sum", "short-column", "feature-high",
            "feature-negative", "threshold-inf", "value-nan", "negative-depth", "depth-31",
            "depth-wraps"])
    def test_rejects_malformed_level_records(self, tmp_path, rng, edit, match):
        path = tmp_path / "model.json"
        record, model = self.saved_model(rng, path, rounds=2, growth="oblivious", max_depth=2)
        assert decode(model, "tree_depths").tolist() == [2, 2]
        edit(model)
        self.write(record, path)
        with pytest.raises(FormatError, match=f"model.json: malformed test-model record: {match}"):
            self.load(path)

    @pytest.mark.parametrize("field, node, bad, match", [
        ("feature", 0, 3, "feature index"),           # only 3 features: columns 0..2
        ("right", 0, 9, "child index"),               # past the last node
        ("left", 0, 0, "child index"),                # a node that is its own left child
        ("threshold", 0, float("inf"), "finite"),
    ])
    def test_rejects_trees_predict_cannot_walk(self, tmp_path, rng, field, node, bad, match):
        path = tmp_path / "model.json"
        record, model = self.saved_model(rng, path, rounds=3, max_leaves=4)
        assert self.load(path)[0].num_features == 3
        values = decode(model, field)
        values[decode(model, "tree_sizes")[0] + node] = bad  # a node of the second tree
        model[field] = encode(values, COLUMN_DTYPES[field])
        self.write(record, path)
        with pytest.raises(FormatError, match=f"model.json: malformed test-model record: .*{match}"):
            self.load(path)
