"""Gradient-boosted decision trees: Newton boosting on logistic loss.

One engine, three growth strategies standing in for three boosting libraries:

* ``leafwise``  -- repeatedly split the open leaf with the best gain,
* ``depthwise`` -- split level by level down to a fixed depth,
* ``oblivious`` -- one shared (feature, threshold) per level.

Per round the booster fits a regression tree to the logistic gradients
g = p - y with hessians h = p(1 - p); a leaf is worth
-sum(g) / (sum(h) + l2_reg) scaled by the learning rate, and a split's gain
is the second-order formula
0.5 * [GL^2/(HL+l) + GR^2/(HR+l) - (GL+GR)^2/(HL+HR+l)].
A leaf or gain term whose denominator is not positive counts as 0.0: with
l2_reg = 0, hessians that underflow to 0 would otherwise divide by zero.

Each training matrix is binned once, by one rule that both split searches
read. A feature has one bin per distinct value up to a cap, 255 for leafwise
and depthwise growth (LightGBM's max_bin) and 64 for oblivious growth, whose
level histogram is dense; past it, the sorted distinct values are grouped into
runs between cap - 1 evenly spaced gaps, one run per bin. A split between two
bins sits at the midpoint of the lower one's highest value and the upper one's
lowest, or at that lower value when rounding lands the midpoint on the upper
one. Leafwise and depthwise growth share one best-first loop that splits the
open leaf with the smallest priority: -gain for leafwise, (depth, -gain) for
depthwise, which finishes each level before the next; ties go to the earliest
leaf. Their candidates are the cuts between neighbouring bins present in a
node, and equal computed gains go to the lowest feature, then the lowest
threshold (gains equal in exact arithmetic may differ in the last bit). Only
a leaf that can split is histogrammed and searched: one with at least
2 * min_samples_leaf rows and both label classes. When either child of a split
can, the smaller child is histogrammed from its rows, and the larger one is its
parent minus that sibling (Ke et al. 2017). Every round's root holds every row
and every bin holds a training row, so the root's bin counts and candidate cuts
are computed once per model. An oblivious level histograms all of its leaves
that hold rows at once and skips the empty ones: an empty leaf adds exactly 0.0
to every cut's gain (both sides and the parent score 0.0), and adding 0.0
changes no bits. So the gain must stay a sum over the occupied leaves one after
another in ascending leaf order, never regrouped. An oblivious tree ends at the
first level whose best cut repeats an earlier level's (feature, threshold):
that level would send every row, seen or unseen, NaN included, the way the
earlier level does, so it and every level after it could change no prediction.
Its depth can therefore be below ``max_depth``.

Every round fits every row and every feature: there is no row or column
subsampling, and so no random state. Each grower therefore already knows the
leaf every training row ends in and hands it back with the tree, and the
training margins are updated from those leaves without walking the tree.

A split with zero gain is accepted on mixed-label nodes. Degenerate targets
like 4-point XOR are perfectly symmetric at the base score, so every root
candidate has exactly zero gain; refusing those splits would freeze training
at log loss ln 2 forever. Label-pure nodes are never split.

A model holds all its trees packed into flat columns, tree after tree, in a
layout that follows from its growth mode. A leafwise or depthwise
``GbdtModel`` holds five node columns. An oblivious tree is only one
(feature, threshold) per level and 2^depth leaves, so an ``ObliviousModel``
holds each tree's depth, its levels and its leaf values in path order; a
depth-6 tree is 6 levels and 64 leaves instead of 127 nodes. ``raw_score``
walks every tree at once. A ``GbdtModel`` moves node ids, and each (tree,
row) pair retires at its leaf: after the first step only the pairs still at
an interior node move, so the walk follows each pair's own path, not the
deepest tree. An ``ObliviousModel`` builds leaf indices, one level per step,
from the level comparisons read as bits (CatBoost's oblivious trees,
Prokhorenkova et al. 2018).

``train_ensemble`` trains its (config, type) models side by side, each in a
worker forked from the caller (``parallel.fork_map``), one per usable CPU.
A worker's side effects do not reach the caller, but its model, its warnings
(the one-class fallback) and its exceptions do. The models are the ones a
serial run trains, byte for byte: each runs the same arithmetic on the same
inputs, and they are assembled in (config, type) order.

Model files have one layout, known only here: ``save_ensemble`` writes an
ensemble as one ``hemtriage/<kind>`` JSON record (format tag, version, the
caller's own fields, then the groups of models) and ``load_ensemble`` is the
only code that reads one back. Each model keeps ``base_score``,
``num_features``, ``num_trees`` and its column counts (``num_nodes``, or
``num_levels`` and ``num_leaves``) as plain JSON numbers and its per-tree node
counts or depths and its columns as base64 of little-endian typed bytes (int32
or float64), decoded without parsing a number per node and checked against
those counts. The slice model and the stacker are both such records, and each
of their modules checks only its own fields.
"""

from __future__ import annotations

import base64
import heapq
import json
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (ArityError, ConfigError, DataError, FormatError, PipelineError,
                     TrainingError)
from .fileio import atomic_write_text, is_finite_number, read_json
from .parallel import fork_map

GROWTH_MODES = ("leafwise", "depthwise", "oblivious")

_PROB_CLIP = 1e-6
# Zero-gain splits on symmetric data come out of the gain formula as tiny
# negatives (the formula subtracts near-equal float sums), so acceptance uses
# a relative noise floor instead of an exact >= 0 comparison.
_GAIN_NOISE_RELATIVE = 1e-12
_MAX_BINS = {"leafwise": 255, "depthwise": 255, "oblivious": 64}
# (tree, row) pairs raw_score walks together. This caps each of its node-id
# arrays at 512 KB whatever the row count, which also keeps them in cache: on
# a 1,711-row stacker input and its ten 200-tree node-wise models, blocks of
# 2^14, 2^16, 2^18 and 2^20 pairs walked in 102, 79, 107 and 128 ms, and its
# five oblivious models in 33, 26, 42 and 48 ms (medians of 9, 2-core x86-64
# host, numpy 2.4).
_WALK_PAIRS = 1 << 16


@dataclass(frozen=True)
class GbdtConfig:
    """Training setup of one booster.

    Every growth mode reads ``rounds``, ``learning_rate``, ``min_samples_leaf``
    and ``l2_reg``. Leafwise growth also reads ``max_leaves`` and, when set,
    ``max_depth``; depthwise growth reads both; oblivious growth reads only
    ``max_depth``, since each of its levels splits every leaf in two.
    """

    rounds: int = 200
    learning_rate: float = 0.05
    max_leaves: int = 31
    max_depth: int | None = None
    min_samples_leaf: int = 1
    l2_reg: float = 1.0
    growth: str = "leafwise"

    def __post_init__(self):
        if self.rounds < 1:
            raise ConfigError("rounds must be a positive integer")
        if not 0.0 < self.learning_rate <= 1.0:
            raise ConfigError("learning_rate must lie in (0, 1]")
        if self.max_leaves < 2:
            raise ConfigError("max_leaves must be at least 2")
        if self.max_depth is not None and self.max_depth < 1:
            raise ConfigError("max_depth must be positive when set")
        if self.min_samples_leaf < 1:
            raise ConfigError("min_samples_leaf must be a positive integer")
        if self.l2_reg < 0.0:
            raise ConfigError("l2_reg must be non-negative")
        if self.growth not in GROWTH_MODES:
            raise ConfigError(f"growth must be one of {GROWTH_MODES}, got {self.growth!r}")
        if self.growth in ("depthwise", "oblivious") and self.max_depth is None:
            raise ConfigError(f"{self.growth} growth requires max_depth")
        if self.growth == "oblivious" and self.max_depth > MAX_OBLIVIOUS_DEPTH:
            raise ConfigError(f"oblivious growth takes at most {MAX_OBLIVIOUS_DEPTH} levels")


def default_presets(rounds: int = 200) -> tuple[GbdtConfig, ...]:
    """The three structurally diverse presets averaged by ensembles."""
    return (
        GbdtConfig(rounds=rounds, learning_rate=0.05, max_leaves=31,
                   growth="leafwise", l2_reg=1.0),
        GbdtConfig(rounds=rounds, learning_rate=0.05, max_depth=6,
                   growth="oblivious", l2_reg=1.0),
        GbdtConfig(rounds=rounds, learning_rate=0.05, max_leaves=64, max_depth=6,
                   growth="depthwise", l2_reg=1.0),
    )


@dataclass(frozen=True, eq=False)
class Tree:
    """One tree's node arrays; feature == -1 marks a leaf, value is lr-scaled."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray


@dataclass(frozen=True, eq=False)
class _LevelTree:
    """One oblivious tree: a (feature, threshold) per level, root level first,
    and its 2^depth leaf values in path order."""

    feature: np.ndarray
    threshold: np.ndarray
    value: np.ndarray


#: Node and level columns in record order, with the little-endian dtype each
#: is held and stored in; per-tree node counts and depths are _SIZE_DTYPE.
_COLUMNS = {"feature": "<i4", "threshold": "<f8", "left": "<i4", "right": "<i4",
            "value": "<f8"}
_LEVEL_COLUMNS = {"feature": "<i4", "threshold": "<f8", "value": "<f8"}
_SIZE_DTYPE = "<i4"
#: The most levels an oblivious tree may have, so that 2^depth leaves fit an
#: int32 count and no leaf index shift can wrap. Growth never gets close:
#: 2^30 leaf values alone take 8 GB.
MAX_OBLIVIOUS_DEPTH = 30


class _Packed:
    """What both model layouts share: a per-tree count column (``_COUNTS``)
    and flat columns (``_ARRAYS``), all read-only, holding tree after tree.
    A tree's count is the length of its own ``feature`` column."""

    _COUNTS: str
    _ARRAYS: dict

    def __post_init__(self):
        for name in (self._COUNTS, *self._ARRAYS):
            getattr(self, name).flags.writeable = False

    def __reduce__(self):
        # Through the constructor, so a pickled or deep-copied model's arrays
        # are read-only too.
        return type(self), (self.base_score, self.num_features,
                            *(getattr(self, name) for name in (self._COUNTS, *self._ARRAYS)))

    @classmethod
    def from_trees(cls, base_score: float, trees, num_features: int):
        """Pack ``trees`` in order into one model's columns."""
        columns = {name: np.concatenate([np.empty(0, dtype)]
                                        + [getattr(tree, name) for tree in trees], dtype=dtype)
                   for name, dtype in cls._ARRAYS.items()}
        counts = np.array([len(tree.feature) for tree in trees], dtype=_SIZE_DTYPE)
        return cls(base_score, num_features, counts, **columns)

    @property
    def num_trees(self) -> int:
        return len(getattr(self, self._COUNTS))


@dataclass(frozen=True, eq=False)
class GbdtModel(_Packed):
    """One leafwise or depthwise booster: the nodes of all its trees in five
    flat columns, tree after tree, and ``sizes``, each tree's node count in
    tree order. Child ids count from the first node of their own tree. The
    arrays are read-only."""

    _COUNTS, _ARRAYS = "sizes", _COLUMNS

    base_score: float  # log-odds
    num_features: int
    sizes: np.ndarray
    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray

    @property
    def trees(self) -> tuple[Tree, ...]:
        """Each tree, in order, as views into the columns."""
        ends = np.cumsum(self.sizes).tolist()
        return tuple(Tree(**{name: getattr(self, name)[start:end] for name in _COLUMNS})
                     for start, end in zip([0] + ends, ends))


@dataclass(frozen=True, eq=False)
class ObliviousModel(_Packed):
    """One oblivious booster as levels: ``depths``, each tree's level count in
    tree order; ``feature`` and ``threshold``, one pair per level, tree after
    tree and root level first; and ``value``, each tree's 2^depth leaf values
    in path order, tree after tree. A row's leaf is its level comparisons read
    as bits, the root level's the highest, 1 where the row goes right. The
    arrays are read-only."""

    _COUNTS, _ARRAYS = "depths", _LEVEL_COLUMNS

    base_score: float  # log-odds
    num_features: int
    depths: np.ndarray
    feature: np.ndarray
    threshold: np.ndarray
    value: np.ndarray

    @property
    def trees(self) -> tuple[Tree, ...]:
        """Each tree, in order, in the heap layout of a node-wise tree: its
        2^depth - 1 interior nodes level by level, node i's children being
        2i + 1 and 2i + 2, then its 2^depth leaves in path order."""
        depths = self.depths.astype(np.int64)
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
        feature[interior], threshold[interior] = self.feature[at], self.threshold[at]
        # Leaf node 2^depth - 1 + i holds the tree's leaf value i.
        value[leaf] = self.value[(np.cumsum(widths) - 2 * widths + 1)[tree[leaf]] + node[leaf]]
        left = np.where(interior, 2 * node + 1, -1).astype(np.int32)
        right = np.where(interior, 2 * node + 2, -1).astype(np.int32)
        return GbdtModel(self.base_score, self.num_features, sizes.astype(_SIZE_DTYPE),
                         feature, threshold, left, right, value).trees


@dataclass(frozen=True, eq=False)
class GbdtEnsemble:
    """One model per hemorrhage type per configuration; predictions average
    the per-configuration probabilities."""

    groups: tuple[tuple[GbdtModel | ObliviousModel, ...], ...]  # [config][type]

    def __post_init__(self):
        if not self.groups:
            raise ArityError("an ensemble needs at least one model group")
        widths = {len(group) for group in self.groups}
        if widths != {len(self.groups[0])}:
            raise ConfigError("all ensemble groups must cover the same types")
        if len({model.num_features for model in self.models}) != 1:
            raise ConfigError("all ensemble members must share one feature dimensionality")

    @property
    def models(self) -> tuple[GbdtModel | ObliviousModel, ...]:
        """Every member, group by group, in type order within a group."""
        return tuple(model for group in self.groups for model in group)

    @property
    def num_types(self) -> int:
        return len(self.groups[0])

    @property
    def num_features(self) -> int:
        return self.groups[0][0].num_features

    def predict(self, features) -> np.ndarray:
        """Mean probability across configurations, per type; shape (n, types)."""
        features = _as_matrix(features)
        out = np.zeros((features.shape[0], self.num_types))
        for group in self.groups:
            for type_index, model in enumerate(group):
                out[:, type_index] += predict(model, features)
        return out / len(self.groups)


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def _logit(p: float) -> float:
    return math.log(p / (1.0 - p))


def _as_matrix(features) -> np.ndarray:
    arr = np.asarray(features, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2:
        raise DataError(f"feature array must be 1- or 2-dimensional, got ndim={arr.ndim}")
    return np.ascontiguousarray(arr)


def train(features, labels, config: GbdtConfig) -> GbdtModel | ObliviousModel:
    """Fit one binary model; the same inputs always give the same trees.
    Oblivious growth gives an ``ObliviousModel``, the others a ``GbdtModel``.

    All-one-class labels yield a base-score-only model (with a warning), so a
    degenerate target predicts its clipped base rate everywhere.
    """
    X = _as_matrix(features)
    y = np.asarray(labels, dtype=np.float64).ravel()
    if X.size == 0:
        raise TrainingError("cannot train on an empty feature matrix")
    if y.shape[0] != X.shape[0]:
        raise ArityError(f"{X.shape[0]} rows but {y.shape[0]} labels")
    if not np.isfinite(X).all():
        raise DataError("features must be finite")
    if not np.isin(y, (0.0, 1.0)).all():
        raise DataError("labels must be binary 0/1")

    n, num_features = X.shape
    oblivious = config.growth == "oblivious"
    layout = ObliviousModel if oblivious else GbdtModel
    rate = float(y.mean())
    base_score = _logit(min(max(rate, _PROB_CLIP), 1.0 - _PROB_CLIP))
    if rate in (0.0, 1.0):
        warnings.warn("all labels belong to one class; model is base score only", stacklevel=2)
        return layout.from_trees(base_score, (), num_features)

    bins = _Bins(X, _MAX_BINS[config.growth])
    grower = (_ObliviousGrower if oblivious else _NodeGrower)(bins, config)
    margins = np.full(n, base_score)
    trees = []
    for _ in range(config.rounds):
        p = _sigmoid(margins)
        tree, leaf_of = grower.grow(p - y, p * (1.0 - p), y)
        trees.append(tree)
        margins += tree.value[leaf_of]
    return layout.from_trees(base_score, trees, num_features)


def raw_score(model: GbdtModel | ObliviousModel, features) -> np.ndarray:
    """base_score plus the leaf value each tree gives each row, added tree by
    tree in tree order.

    Every tree is walked at once, over blocks of at most ``_WALK_PAIRS``
    (tree, row) pairs. A row goes left when its value is <= the split's
    threshold, so a NaN goes right. A ``GbdtModel`` walks a (trees, rows)
    array of node ids. The first step moves every pair from its tree's root,
    and a leaf points to itself, so a one-node tree needs no special case.
    After it, a pair retires once it reaches its leaf: each later step moves
    only the pairs still at an interior node, so a pair takes one step per
    level of its own path. An ``ObliviousModel`` builds a (trees, rows) array
    of leaf indices: at level l, each tree deeper than l compares every row
    with its level-l threshold and appends the bit ~(x <= threshold).
    """
    X = _as_matrix(features)
    if X.shape[1] != model.num_features:
        raise ArityError(f"model expects {model.num_features} features, got {X.shape[1]}")
    leaf_values = (_level_walk if isinstance(model, ObliviousModel) else _node_walk)(model)
    margins = np.full(X.shape[0], model.base_score)
    block = max(1, _WALK_PAIRS // max(1, model.num_trees))
    for begin in range(0, X.shape[0], block):
        out = margins[begin:begin + block]
        for values in leaf_values(X[begin:begin + block]):
            out += values
    return margins


def _node_walk(model: GbdtModel):
    """A function from a block of rows to the (trees, rows) leaf values of
    ``model``'s trees."""
    starts = np.cumsum(model.sizes) - model.sizes  # each tree's root
    first = np.repeat(starts, model.sizes)  # per node, the root of its tree
    node = np.arange(len(first))
    leaf = model.feature < 0
    feature = np.where(leaf, 0, model.feature)
    left = np.where(leaf, node, model.left + first)
    right = np.where(leaf, node, model.right + first)
    root_feature = feature[starts]
    root_threshold, root_left, root_right = (column[starts][:, None]
                                             for column in (model.threshold, left, right))

    def walk(rows):
        num_rows, width = rows.shape
        # The first step moves every pair: each tree compares one whole column
        # at its root. A model of no features holds only leaves, whose step
        # reads a column but stays put, so it reads a stand-in.
        columns = np.ascontiguousarray(rows.T) if width else np.zeros((1, num_rows))
        nodes = np.where(columns.take(root_feature, axis=0) <= root_threshold,
                         root_left, root_right).ravel()
        # Later steps move only the pairs still at an interior node, by their
        # flat index into the (trees, rows) node ids.
        flat = rows.ravel()
        row_start = np.tile(np.arange(num_rows) * width, len(starts))
        active = np.flatnonzero(~leaf.take(nodes))
        while active.size:
            at = nodes.take(active)
            x = flat.take(row_start.take(active) + feature.take(at))
            at = np.where(x <= model.threshold.take(at), left.take(at), right.take(at))
            nodes[active] = at
            active = active[~leaf.take(at)]
        return model.value.take(nodes).reshape(len(starts), num_rows)
    return walk


def _level_walk(model: ObliviousModel):
    """A function from a block of rows to the (trees, rows) leaf values of
    ``model``'s trees."""
    depths = model.depths.astype(np.intp)
    level_start = np.cumsum(depths) - depths
    widths = np.left_shift(1, depths)
    leaf_start = (np.cumsum(widths) - widths)[:, None]
    levels = []  # per level: the trees deeper than it, and their (feature, threshold)
    for level in range(depths.max(initial=0)):
        moving = np.flatnonzero(depths > level)
        at = level_start[moving] + level
        levels.append((slice(None) if len(moving) == len(depths) else moving,
                       model.feature[at], model.threshold[at][:, None]))

    def walk(rows):
        columns = np.ascontiguousarray(rows.T)
        leaf = np.zeros((len(depths), rows.shape[0]), dtype=np.intp)
        for moving, feature, threshold in levels:
            leaf[moving] = leaf[moving] * 2 + ~(columns[feature] <= threshold)
        return model.value.take(leaf + leaf_start)
    return walk


def predict(model: GbdtModel | ObliviousModel, features) -> np.ndarray:
    """Probabilities sigmoid(base + sum of tree values), in [0, 1]. A margin
    of about 36.74 or more gives exactly 1.0, since 1 + exp(-margin) rounds
    to 1. One of about -709.8 or less gives exactly 0.0, after numpy's
    overflow ``RuntimeWarning`` from ``exp``."""
    return _sigmoid(raw_score(model, features))


class _TreeBuilder:
    """Node records [feature, threshold, left, right, value] in creation order."""

    def __init__(self):
        self.nodes: list[list] = []

    def add_leaf(self, value: float) -> int:
        self.nodes.append([-1, 0.0, -1, -1, value])
        return len(self.nodes) - 1

    def to_split(self, node: int, feature: int, threshold: float, left: int, right: int) -> None:
        self.nodes[node] = [feature, threshold, left, right, 0.0]

    def build(self) -> Tree:
        return Tree(**{name: np.asarray(column, dtype=dtype)
                       for (name, dtype), column in zip(_COLUMNS.items(), zip(*self.nodes))})


class _Bins:
    """Each feature's bins by the module docstring's rule, feature after feature
    and in value order within one: bin i spans feature[i]'s values low[i]..high[i]."""

    def __init__(self, X: np.ndarray, max_bins: int):
        columns = []
        for column in X.T:
            values, inverse = np.unique(column, return_inverse=True)
            low = high = values
            if len(values) > max_bins:  # gap i is above values[i]; picks over 1 apart stay distinct
                kept = np.linspace(0, len(values) - 2, max_bins - 1).round().astype(int)
                low, high = values[np.r_[0, kept + 1]], values[np.r_[kept, -1]]
                inverse = np.searchsorted(kept, inverse)  # kept gaps below each value
            columns.append((low, high, inverse))
        lows, highs, codes = zip(*columns)
        sizes = [len(low) for low in lows]
        self.low, self.high = np.concatenate(lows), np.concatenate(highs)
        self.feature = np.repeat(np.arange(X.shape[1]), sizes)
        self.starts = np.cumsum([0] + sizes)  # first bin of each feature, then the end
        self.codes = np.column_stack([code + start for code, start in zip(codes, self.starts)])


def _midpoint(below, above) -> np.ndarray:
    """Midpoint of ``below`` < ``above``, or ``below`` where rounding lands it
    on ``above``; elementwise over arrays."""
    mid = below + (above - below) / 2.0
    return np.where(mid >= above, below, mid)


@dataclass(eq=False)
class _Leaf:
    node: int
    depth: int
    rows: np.ndarray
    grad_sum: float  # of g over rows
    hess_sum: float  # of h over rows
    present: np.ndarray | None = None  # sorted ids of the bins holding any of rows
    hist: np.ndarray | None = None     # (gradient, hessian, count) sums per present bin
    best: tuple[float, int, float] | None = None  # (gain, last bin of the left side, threshold)


class _NodeGrower:
    """Best-first split search shared by leafwise and depthwise growth.

    Only a leaf that can split gets a histogram, a compaction to its present
    bins and a split search: one with at least 2 * min_samples_leaf rows and
    both label classes. Every round's root holds every row, and every bin
    holds at least one training row, so the root's count row, its flat bin
    codes and its cut layout are the same in every round and are computed
    once per model, in the constructor.
    """

    def __init__(self, bins: _Bins, config: GbdtConfig):
        self.bins = bins
        self.config = config
        num_bins = len(bins.low)
        self.slot = np.empty(num_bins, dtype=np.intp)  # bin id -> position in a node
        self.every_bin = np.arange(num_bins)
        self.root_codes = bins.codes.ravel()
        self.root_counts = np.bincount(self.root_codes, minlength=num_bins).astype(np.float64)
        self.root_layout = self._layout(self.every_bin, self.root_counts, len(bins.codes))

    def grow(self, g, h, y) -> tuple[Tree, np.ndarray]:
        """The tree and, per training row, the node id of the leaf it ends in."""
        self.g, self.h, self.y = g, h, y
        self.leaf_of = np.zeros(len(y), dtype=np.intp)
        builder = _TreeBuilder()
        by_level = self.config.growth == "depthwise"
        # Splittable leaves by priority; node ids follow creation order, so the
        # earliest leaf wins ties.
        heap = []
        root = self._make_leaf(builder, 0, np.arange(len(y)))
        if self._can_split(root):
            self._search(root, self.every_bin, self._root_histogram(), self.root_layout)
        new_leaves = [root]
        for _ in range(self.config.max_leaves - 1):
            for leaf in new_leaves:
                if leaf.best is not None:
                    priority = (leaf.depth if by_level else 0, -leaf.best[0], leaf.node)
                    heapq.heappush(heap, (priority, leaf))
            if not heap:
                break
            new_leaves = self._split(builder, heapq.heappop(heap)[1])
        return builder.build(), self.leaf_of

    def _root_histogram(self):
        """(gradient, hessian, count) sums of every row per bin."""
        width = self.bins.codes.shape[1]
        hist = np.empty((3, len(self.every_bin)))
        hist[0] = np.bincount(self.root_codes, np.repeat(self.g, width), minlength=hist.shape[1])
        hist[1] = np.bincount(self.root_codes, np.repeat(self.h, width), minlength=hist.shape[1])
        hist[2] = self.root_counts
        return hist

    def _histogram(self, rows, present):
        """(gradient, hessian, count) sums of ``rows`` per bin of ``present``,
        sorted bin ids that include every bin the rows occupy."""
        size = len(present)
        local = self.bins.codes.take(rows, axis=0)
        if size < len(self.slot):  # else every bin is present and ids are positions
            self.slot[present] = np.arange(size)
            local = self.slot.take(local)
        flat = local.ravel()
        hist = np.empty((3, size))
        hist[0] = np.bincount(flat, np.repeat(self.g[rows], local.shape[1]), minlength=size)
        hist[1] = np.bincount(flat, np.repeat(self.h[rows], local.shape[1]), minlength=size)
        hist[2] = np.bincount(flat, minlength=size)
        return hist

    def _make_leaf(self, builder, depth, rows) -> _Leaf:
        grad_sum = float(self.g[rows].sum())
        hess_sum = float(self.h[rows].sum())
        denom = hess_sum + self.config.l2_reg
        node = builder.add_leaf(-grad_sum / denom * self.config.learning_rate if denom > 0 else 0.0)
        self.leaf_of[rows] = node
        return _Leaf(node, depth, rows, grad_sum, hess_sum)

    def _can_split(self, leaf: _Leaf) -> bool:
        """Whether ``leaf`` has rows enough for two children and both label
        classes; any other leaf has nothing a split can improve."""
        return (len(leaf.rows) >= 2 * self.config.min_samples_leaf
                and np.ptp(self.y[leaf.rows]) != 0)

    def _search(self, leaf: _Leaf, present, hist, layout=None) -> None:
        """Give ``leaf`` its present bins, its histogram over them and its
        best split. ``hist`` covers ``present``; a child's histogram, over its
        parent's present bins, is first compacted to its own, and without a
        ``layout`` its cut layout is computed from them."""
        if layout is None:
            keep = np.flatnonzero(hist[2])
            present, hist = present[keep], hist.take(keep, axis=1)
            layout = self._layout(present, hist[2], len(leaf.rows))
        leaf.present, leaf.hist = present, hist
        leaf.best = self._best_split(leaf, layout)

    def _layout(self, present, counts, m):
        """The candidate cuts of a node of ``m`` rows whose bins ``present``
        hold ``counts`` rows each: the positions in ``present`` after which
        a cut leaves min_samples_leaf rows on each side, and the position
        where each one's feature starts."""
        # first[i] is where the present bins of position i's feature start; a
        # cut after position i is valid when position i + 1 has the same feature.
        bounds = np.searchsorted(present, self.bins.starts)
        first = np.repeat(bounds[:-1], np.diff(bounds))
        cuts = np.flatnonzero(first[1:] == first[:-1])
        msl = self.config.min_samples_leaf
        if msl > 1:  # a valid cut always leaves one row on each side
            sums = np.zeros(len(present) + 1)
            np.cumsum(counts, out=sums[1:])
            left_c = sums.take(cuts + 1) - sums.take(first[cuts])
            cuts = cuts[(left_c >= msl) & (m - left_c >= msl)]
        return cuts, first[cuts]

    def _best_split(self, leaf: _Leaf, layout):
        cuts, first = layout
        if not len(cuts):
            return None
        sums = np.zeros((2, len(leaf.present) + 1))
        np.cumsum(leaf.hist[:2], axis=1, out=sums[:, 1:])
        left_g, left_h = sums.take(cuts + 1, axis=1) - sums.take(first, axis=1)
        grad_sum, hess_sum = leaf.grad_sum, leaf.hess_sum
        score = self._score(left_g, left_h) + self._score(grad_sum - left_g, hess_sum - left_h)
        at = int(np.argmax(score))  # first hit: lowest feature, then lowest threshold
        parent = float(self._score(grad_sum, hess_sum))
        gain = 0.5 * (score[at] - parent)
        if gain < -_GAIN_NOISE_RELATIVE * (1.0 + abs(parent)):
            return None
        low_bin, high_bin = leaf.present[cuts[at]], leaf.present[cuts[at] + 1]
        threshold = _midpoint(self.bins.high[low_bin], self.bins.low[high_bin])
        return float(gain), int(low_bin), float(threshold)

    def _score(self, grad, hess):
        """grad^2 / (hess + l2_reg), and 0.0 where that denominator is not
        positive, as in oblivious growth. Hessian sums are non-negative up to
        rounding, so only l2_reg = 0 needs the guard; a positive one skips it."""
        lam = self.config.l2_reg
        return grad ** 2 / (hess + lam) if lam > 0 else _safe_ratio(grad, hess)

    def _split(self, builder, leaf: _Leaf) -> tuple[_Leaf, _Leaf]:
        """Split ``leaf`` at its best cut. The smaller child is histogrammed
        from its rows whenever either child can split, since the larger one's
        histogram must be its parent's minus that sibling's, and that
        subtraction is skipped when the larger child cannot split."""
        _, low_bin, threshold = leaf.best
        feature = int(self.bins.feature[low_bin])
        go_left = self.bins.codes[:, feature].take(leaf.rows) <= low_bin
        depth = leaf.depth + 1
        children = (self._make_leaf(builder, depth, leaf.rows[go_left]),
                    self._make_leaf(builder, depth, leaf.rows[~go_left]))
        if self.config.max_depth is None or depth < self.config.max_depth:
            splits = [self._can_split(child) for child in children]
            if any(splits):
                small = int(len(children[1].rows) < len(children[0].rows))
                small_hist = self._histogram(children[small].rows, leaf.present)
                if splits[small]:
                    self._search(children[small], leaf.present, small_hist)
                if splits[1 - small]:
                    self._search(children[1 - small], leaf.present, leaf.hist - small_hist)
        builder.to_split(leaf.node, feature, threshold, children[0].node, children[1].node)
        leaf.rows = leaf.present = leaf.hist = None  # free node data early
        return children


class _ObliviousGrower:
    """Level-shared splits between neighbouring bins of a feature;
    min_samples_leaf applies to the level totals on each side of the split.

    Each level histograms only the leaves that hold rows, one dense slot per
    occupied leaf in ascending leaf order; an empty leaf would add exactly
    0.0 to every gain. The gain sums those slots one after another, and the
    noise floor sums the parent scores of all 2^level leaves, empty ones as
    zeros, so both read the same bits as a histogram of every leaf would.
    The tree ends where a level's best cut repeats an earlier level's: every
    row of a leaf already sits on one side of that cut, so in the tree grown
    on to ``max_depth`` each row would reach a leaf of the same rows and the
    same value, and the repeat's other leaves would be empty and unreachable.
    """

    def __init__(self, bins: _Bins, config: GbdtConfig):
        self.config = config
        self.codes = bins.codes - bins.starts[:-1]  # bin ids within each feature
        self.borders = [_midpoint(bins.high[start:end - 1], bins.low[start + 1:end])
                        for start, end in zip(bins.starts[:-1], bins.starts[1:])]
        self.stride = int(np.diff(bins.starts).max())  # the most bins of any feature
        # Each row's flat cell (feature, code) within one slot's block of a
        # level histogram, row after row. Every row sits in some leaf at every
        # level, so the level total left of a cut is the same at every level:
        # count it once, here. A cut past a feature's last bin leaves no row
        # on its right.
        m, num_features = self.codes.shape
        self.cell_of = (np.arange(num_features) * self.stride + self.codes).ravel()
        counts = np.bincount(self.cell_of, minlength=num_features * self.stride)
        left_total = np.cumsum(counts.reshape(num_features, self.stride), axis=1)[:, :-1]
        self.cut_valid = ((left_total >= config.min_samples_leaf)
                          & (m - left_total >= config.min_samples_leaf))

    def grow(self, g, h, y) -> tuple[_LevelTree, np.ndarray]:
        """The tree's levels and leaf values and, per training row, the path
        index of the leaf it ends in."""
        lam = self.config.l2_reg
        lr = self.config.learning_rate
        codes, stride = self.codes, self.stride
        m, num_features = codes.shape
        g_rep = np.repeat(g, num_features)
        h_rep = np.repeat(h, num_features)
        levels: list[tuple[int, float]] = []
        leaf_of = np.zeros(m, dtype=np.int64)

        if stride > 1 and y.min() != y.max():
            block = num_features * stride
            for _ in range(self.config.max_depth):
                held = np.bincount(leaf_of) > 0
                occupied = np.flatnonzero(held)
                num_occupied = len(occupied)
                slot = (np.cumsum(held) - 1)[leaf_of]  # rank of each row's leaf
                flat = np.repeat(slot * block, num_features) + self.cell_of
                hist_g = np.bincount(flat, weights=g_rep, minlength=num_occupied * block)
                hist_h = np.bincount(flat, weights=h_rep, minlength=num_occupied * block)
                hist_g = hist_g.reshape(num_occupied, num_features, stride)
                hist_h = hist_h.reshape(num_occupied, num_features, stride)
                total_g = np.bincount(slot, weights=g, minlength=num_occupied)
                total_h = np.bincount(slot, weights=h, minlength=num_occupied)
                left_g = np.cumsum(hist_g, axis=2, out=hist_g)[:, :, :-1]
                left_h = np.cumsum(hist_h, axis=2, out=hist_h)[:, :, :-1]
                right_g = total_g[:, None, None] - left_g
                right_h = total_h[:, None, None] - left_h
                parents = _safe_ratio(total_g, total_h + lam)
                gain = (_safe_ratio(left_g, left_h + lam)
                        + _safe_ratio(right_g, right_h + lam)
                        - parents[:, None, None])
                # A sum over axis 0 adds leaf after leaf in ascending leaf
                # order; any regrouping could change the gains' last bits.
                gain = np.where(self.cut_valid, 0.5 * gain.sum(axis=0), -np.inf)
                at = int(np.argmax(gain))  # first maximum: lowest feature, then lowest cut
                # A 1-D sum groups its terms by position, so the noise floor
                # sums the parents of all 2^level leaves, zeros included.
                all_parents = np.zeros(1 << len(levels))
                all_parents[occupied] = parents
                parent = float(all_parents.sum())
                if gain.flat[at] < -_GAIN_NOISE_RELATIVE * (1.0 + abs(parent)):
                    break
                feature, cut = divmod(at, stride - 1)
                level = (feature, float(self.borders[feature][cut]))
                if level in levels:  # sends every row the way the earlier level did
                    break
                levels.append(level)
                leaf_of = leaf_of * 2 + (codes[:, feature] > cut)

        depth = len(levels)
        num_leaves = 1 << depth
        leaf_g = np.bincount(leaf_of, weights=g, minlength=num_leaves)
        leaf_h = np.bincount(leaf_of, weights=h, minlength=num_leaves)
        leaf_n = np.bincount(leaf_of, minlength=num_leaves)
        denom = leaf_h + lam
        values = np.where((leaf_n > 0) & (denom > 0), -leaf_g / np.where(denom > 0, denom, 1.0), 0.0)
        tree = _LevelTree(np.array([feature for feature, _ in levels], dtype=np.int32),
                          np.array([threshold for _, threshold in levels], dtype=np.float64),
                          values * lr)
        return tree, leaf_of


def _safe_ratio(num, den):
    """num^2 / den where den > 0, else 0.0: never a division by zero."""
    return np.divide(np.square(num), den, out=np.zeros(np.shape(den)), where=den > 0)


def train_ensemble(features, labels, configs) -> GbdtEnsemble:
    """Independent per-type models for each config; labels are (n, types) binary.

    The models train side by side, one forked worker per usable CPU
    (``parallel.fork_map``), and come back in (config, type) order."""
    if not configs:
        raise ArityError("train_ensemble needs at least one config")
    Y = np.asarray(labels)
    if Y.ndim != 2:
        raise DataError(f"ensemble labels must be (rows, types), got ndim={Y.ndim}")
    num_types = Y.shape[1]
    models = fork_map(lambda i: train(features, Y[:, i % num_types], configs[i // num_types]),
                      len(configs) * num_types)
    return GbdtEnsemble(groups=tuple(tuple(models[c * num_types:(c + 1) * num_types])
                                     for c in range(len(configs))))


def save_ensemble(ensemble: GbdtEnsemble, kind: str, version: int, fields: dict, path) -> None:
    """Write ``ensemble`` as one ``hemtriage/<kind>`` record: the format tag,
    ``version``, the caller's ``fields``, then ``groups``, each a list of
    models in type order. A ``GbdtModel`` is ``{base_score, num_features,
    num_trees, num_nodes}``, then ``tree_sizes`` and the five node columns; an
    ``ObliviousModel`` is ``{base_score, num_features, num_trees, num_levels,
    num_leaves}``, then ``tree_depths`` and its level ``feature`` and
    ``threshold`` and leaf ``value`` columns. Each column is the base64 of
    its little-endian bytes."""
    groups = [[_model_record(model) for model in group] for group in ensemble.groups]
    record = {"format": f"hemtriage/{kind}", "version": version, **fields, "groups": groups}
    atomic_write_text(path, json.dumps(record) + "\n")


def _model_record(model: GbdtModel | ObliviousModel) -> dict:
    if isinstance(model, ObliviousModel):
        counts = {"num_levels": len(model.feature), "num_leaves": len(model.value),
                  "tree_depths": _encode(model.depths, _SIZE_DTYPE)}
    else:
        counts = {"num_nodes": len(model.feature), "tree_sizes": _encode(model.sizes, _SIZE_DTYPE)}
    return {"base_score": model.base_score, "num_features": model.num_features,
            "num_trees": model.num_trees, **counts,
            **{name: _encode(getattr(model, name), dtype) for name, dtype in model._ARRAYS.items()}}


def _encode(column: np.ndarray, dtype: str) -> str:
    return base64.b64encode(np.asarray(column, dtype=dtype).tobytes()).decode("ascii")


def load_ensemble(path, kind: str, version: int, num_types: int) -> tuple[GbdtEnsemble, dict]:
    """The ensemble in a ``save_ensemble`` record at ``path``, and the record,
    whose other fields the caller checks. The only reader of model files: a
    model with ``tree_depths`` is an ``ObliviousModel``, any other a
    ``GbdtModel``. A wrong tag or version, a malformed group or model, a
    column that does not decode to its count of values, a tree ``predict``
    cannot walk or a type count other than ``num_types`` raises a
    ``FormatError`` naming the file."""
    record = read_json(path, kind)
    tag = f"hemtriage/{kind}"
    if not isinstance(record, dict) or record.get("format") != tag:
        raise FormatError(f"{path}: not a {tag} record")
    if record.get("version") != version:
        raise FormatError(f"{path}: unsupported version {record.get('version')!r}")
    try:
        ensemble = GbdtEnsemble(groups=tuple(tuple(_model_from_json(model) for model in group)
                                             for group in record["groups"]))
    except (KeyError, TypeError, ValueError, OverflowError, PipelineError) as exc:
        raise FormatError(f"{path}: malformed {kind} record: {exc}") from exc
    if ensemble.num_types != num_types:
        raise FormatError(f"{path}: a {kind} must cover {num_types} types, "
                          f"got {ensemble.num_types}")
    return ensemble, record


def _model_from_json(record: dict) -> GbdtModel | ObliviousModel:
    base_score, num_features = record["base_score"], record["num_features"]
    if type(num_features) is not int:
        raise FormatError(f"model num_features must be an integer, got {num_features!r}")
    if not is_finite_number(base_score):
        raise FormatError(f"model base_score must be a finite number, got {base_score!r}")
    levels = "tree_depths" in record
    names = ("num_trees", "num_levels", "num_leaves") if levels else ("num_trees", "num_nodes")
    counts = {name: record[name] for name in names}
    for name, count in counts.items():
        if type(count) is not int or count < 0:
            raise FormatError(f"model {name} must be a non-negative integer, got {count!r}")
    if levels:
        depths = _decode(record, "tree_depths", _SIZE_DTYPE, counts["num_trees"])
        columns = {name: _decode(record, name, dtype,
                                 counts["num_leaves" if name == "value" else "num_levels"])
                   for name, dtype in _LEVEL_COLUMNS.items()}
        model = ObliviousModel(float(base_score), num_features, depths, **columns)
        _check_levels(model)
        return model
    sizes = _decode(record, "tree_sizes", _SIZE_DTYPE, counts["num_trees"])
    columns = {name: _decode(record, name, dtype, counts["num_nodes"])
               for name, dtype in _COLUMNS.items()}
    model = GbdtModel(float(base_score), num_features, sizes, **columns)
    _check_trees(model)
    return model


def _decode(record: dict, name: str, dtype: str, count: int) -> np.ndarray:
    """``count`` values of ``dtype`` from the base64 text ``record[name]``."""
    raw = base64.b64decode(record[name], validate=True)
    itemsize = np.dtype(dtype).itemsize
    if len(raw) != count * itemsize:
        raise FormatError(f"model {name} holds {len(raw)} bytes, not {count} values "
                          f"of {itemsize} bytes")
    return np.frombuffer(raw, dtype=dtype)


def _check_levels(model: ObliviousModel) -> None:
    """Reject levels that ``predict`` cannot walk: a depth outside [0,
    MAX_OBLIVIOUS_DEPTH], checked before any 2^depth is formed, depths that
    do not give the level and leaf counts, a feature index out of range or a
    non-finite threshold or value."""
    if ((model.depths < 0) | (model.depths > MAX_OBLIVIOUS_DEPTH)).any():
        raise FormatError(f"tree depths must lie in [0, {MAX_OBLIVIOUS_DEPTH}]")
    depths = model.depths.astype(np.int64)
    levels, leaves = int(depths.sum()), int(np.left_shift(1, depths).sum())
    if (levels, leaves) != (len(model.feature), len(model.value)):
        raise FormatError(f"tree depths give {levels} levels and {leaves} leaves, not "
                          f"num_levels {len(model.feature)} and num_leaves {len(model.value)}")
    if not ((model.feature >= 0) & (model.feature < model.num_features)).all():
        raise FormatError(f"level feature index outside [0, {model.num_features})")
    if not (np.isfinite(model.threshold).all() and np.isfinite(model.value).all()):
        raise FormatError("level thresholds and leaf values must be finite")


def _check_trees(model: GbdtModel) -> None:
    """Reject trees that ``predict`` cannot walk to a leaf, checked once over
    the packed columns: every walk ends because interior nodes have both
    children after themselves (the growers always number them so)."""
    sizes = model.sizes.astype(np.int64)
    if (sizes < 1).any():
        raise FormatError("every tree must have at least one node")
    if sizes.sum() != len(model.feature):
        raise FormatError(f"tree sizes sum to {sizes.sum()}, not num_nodes {len(model.feature)}")
    size = np.repeat(sizes, sizes)
    node = np.arange(size.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    feature, threshold, left, right, value = (getattr(model, name) for name in _COLUMNS)
    if not ((feature >= -1) & (feature < model.num_features)).all():
        raise FormatError(f"tree feature index outside [0, {model.num_features})")
    leaf = feature == -1
    children_ok = (left > node) & (left < size) & (right > node) & (right < size)
    if not np.where(leaf, (left == -1) & (right == -1), children_ok).all():
        raise FormatError("tree child index out of order or out of range")
    if not (np.isfinite(threshold).all() and np.isfinite(value).all()):
        raise FormatError("tree thresholds and values must be finite")
