"""Per-type decision thresholds, slice-to-scan aggregation, and the
threshold optimizer.

A slice is positive for a type when its probability meets or exceeds that
type's threshold; a scan is positive when any slice is, which is exactly
thresholding the per-type max over slices. The optimizer searches
[0.01, 1]^5 for the best value of an objective. Each objective partitions the
five types into terms, each term a balanced accuracy of the scan-level
decision "any of the term's types reaches its threshold" against "any of them
is labelled", and is the mean of its defined terms. The default, ``any_bacc``,
is one term over all five types: the any-type decision. ``mean_type_bacc`` is
five terms of one type each, so it is separable: each term depends on one
threshold. AUC itself is threshold-free, so it cannot serve as a threshold
search objective.

The search has two phases. A seeded random design scores ``budget`` points
drawn uniformly from the search box; it only chooses where the second phase
starts. The objectives score a whole stack of points in one batched pass, so
the design is scored in blocks of rows, not point by point. Then exact
coordinate ascent polishes the best design points. Every term is a step
function that changes only where a threshold crosses a scan value, and one
threshold moves only the one term that holds its type, so with four
thresholds fixed, one sweep of the fifth over the cuts between those values
gives that term exactly everywhere on that line: the ROC threshold sweep, one
axis at a time. For a separable objective such as ``mean_type_bacc``, one
pass of the ascent reaches its global optimum.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass

import numpy as np

from .errors import ArityError, ConfigError, DataError, FormatError, UndefinedMetricError
from .fileio import atomic_write_text, is_finite_number, read_json
from .metrics import balanced_accuracy
from .volume import HEMORRHAGE_TYPES, NUM_TYPES

_THRESHOLD_KEYS = tuple(f"t_{t}" for t in HEMORRHAGE_TYPES)

SEARCH_BOUNDS = (0.01, 1.0)
#: ``optimize_thresholds``'s objective and design size when none is given.
DEFAULT_OBJECTIVE = "any_bacc"
DEFAULT_BUDGET = 150
_ASCENT_STARTS = 4  # best design points the ascent starts from
# Comparison flags (one byte per point, scan and type) that one objective call
# on the design makes at most: the design is scored in blocks of rows, so
# memory does not grow with the budget times the scans.
_BLOCK_FLAGS = 1 << 20


@dataclass(frozen=True)
class ThresholdSet:
    t_edh: float
    t_sdh: float
    t_sah: float
    t_ivh: float
    t_iph: float

    def __post_init__(self):
        for name, value in zip(_THRESHOLD_KEYS, self.as_array()):
            if not 0.0 < value <= 1.0:
                raise ConfigError(f"{name} must lie in (0, 1], got {value}")

    def as_array(self) -> np.ndarray:
        return np.array([self.t_edh, self.t_sdh, self.t_sah, self.t_ivh, self.t_iph])


#: The published operating point; a documented example default, not a claim
#: that any given model reproduces it.
PUBLISHED_THRESHOLDS = ThresholdSet(0.47, 0.37, 0.45, 0.37, 0.20)


def binarize_slice(probs, thresholds: ThresholdSet):
    """Per-type flags (probability >= threshold) plus the any-type OR.

    Accepts one 5-vector or an (..., 5) stack; flags keep that shape and the
    any-flag drops the last axis.
    """
    probs = np.asarray(probs, dtype=np.float64)
    if probs.shape[-1] != NUM_TYPES:
        raise ArityError(f"probabilities must end in a {NUM_TYPES}-axis, got shape {probs.shape}")
    flags = probs >= thresholds.as_array()
    return flags, flags.any(axis=-1)


def aggregate_scans(scans) -> np.ndarray:
    """Scan-level probability vectors, one row per scan in the given order:
    each scan's per-type max over its slices, for the whole table in one
    ``np.maximum.reduceat`` pass."""
    scans = [np.asarray(rows, dtype=np.float64) for rows in scans]
    if not scans:
        raise ArityError("need at least one scan")
    for rows in scans:
        if rows.ndim != 2 or rows.shape[1] != NUM_TYPES:
            raise DataError(f"probability rows must be (num_slices, {NUM_TYPES}), "
                            f"got {rows.shape}")
        if rows.shape[0] < 1:  # reduceat would return the next scan's row
            raise ArityError("a scan needs at least one probability row")
    starts = np.cumsum([0] + [len(rows) for rows in scans[:-1]])
    return np.maximum.reduceat(np.concatenate(scans), starts, axis=0)


#: Each objective's partition of the five types into terms: a scan is
#: positive for a term when it reaches the threshold on any of its types, and
#: truly positive when any of them is labelled.
_TERMS = {
    "any_bacc": (tuple(range(NUM_TYPES)),),
    "mean_type_bacc": tuple((t,) for t in range(NUM_TYPES)),
}


def _score(terms, points: np.ndarray, vectors: np.ndarray,
           labels: np.ndarray) -> np.ndarray | None:
    """The mean balanced accuracy of the defined ``terms`` at an (..., 5)
    array of thresholds, one value per point; None when none is defined."""
    values = []
    for term in terms:
        truth = functools.reduce(np.logical_or, (labels[:, t] for t in term))
        positive = functools.reduce(np.logical_or, (vectors[:, t] >= points[..., t, None]
                                                    for t in term))
        num_pos = int(truth.sum())
        values.append(balanced_accuracy(np.count_nonzero(positive & truth, axis=-1), num_pos,
                                        np.count_nonzero(~(positive | truth), axis=-1),
                                        len(truth) - num_pos))
    defined = [value for value in values if value is not None]
    return sum(defined) / len(defined) if defined else None


#: Each objective scores an (..., 5) array of thresholds at once, one value
#: per point, or returns None when the labels leave it undefined.
OBJECTIVES = {name: functools.partial(_score, terms) for name, terms in _TERMS.items()}


def _cuts(column: np.ndarray) -> np.ndarray:
    """The thresholds worth trying on one axis: the midpoint of each gap
    between the axis's distinct scan values, plus the search bounds, clipped
    to them. A threshold's decisions change only where it crosses a scan
    value, so these reach every value the objective takes along the axis."""
    values = np.unique(column)
    gaps = (values[:-1] + values[1:]) / 2.0
    # Between adjacent floats the midpoint can round down onto the lower one.
    gaps = np.where(gaps > values[:-1], gaps, values[1:])
    return np.unique(np.clip(np.concatenate([gaps, SEARCH_BOUNDS]), *SEARCH_BOUNDS))


def _line_values(objective: str, point: np.ndarray, axis: int, vectors: np.ndarray,
                 labels: np.ndarray, cuts: np.ndarray) -> np.ndarray | None:
    """The value of the term of ``objective`` that holds ``axis`` at
    ``point`` with coordinate ``axis`` set to each of ``cuts``: the other
    terms do not move with that coordinate. None where that term is
    undefined.

    A scan already positive on the term's other types stays positive; any
    other scan is positive exactly when its value on ``axis`` reaches the cut.
    So sorting those scans' values by class, two ``searchsorted`` calls count
    the true positives and true negatives at every cut, and
    ``metrics.balanced_accuracy`` scores them.
    """
    term = next(term for term in _TERMS[objective] if axis in term)
    truth = functools.reduce(np.logical_or, (labels[:, t] for t in term))
    fixed = np.zeros(len(truth), dtype=bool)
    for t in term:
        if t != axis:
            fixed |= vectors[:, t] >= point[t]
    num_pos = int(truth.sum())
    positives = np.sort(vectors[~fixed & truth, axis])
    negatives = np.sort(vectors[~fixed & ~truth, axis])
    return balanced_accuracy(num_pos - np.searchsorted(positives, cuts), num_pos,
                             np.searchsorted(negatives, cuts), len(truth) - num_pos)


def _ascend(objective: str, point: np.ndarray, vectors: np.ndarray, labels: np.ndarray,
            cuts) -> np.ndarray:
    """Coordinate ascent with exact line searches from ``point``: axis by
    axis, move to the best of that axis's ``cuts`` (the lowest on a tie) when
    it strictly beats the current threshold, until a full pass moves
    nothing."""
    point = point.copy()
    moved = True
    while moved:
        moved = False
        for axis, axis_cuts in enumerate(cuts):
            values = _line_values(objective, point, axis, vectors, labels,
                                  np.append(axis_cuts, point[axis]))
            if values is not None and values[:-1].max() > values[-1]:
                point[axis] = axis_cuts[int(np.argmax(values[:-1]))]
                moved = True
    return point


def optimize_thresholds(scan_vectors, scan_labels, objective: str = DEFAULT_OBJECTIVE,
                        budget: int = DEFAULT_BUDGET, seed: int = 0) -> tuple[ThresholdSet, float]:
    """Score ``budget`` seeded random points, then polish the best exactly.

    The design is ``budget`` points drawn uniformly from the search box by
    ``numpy.random.default_rng(seed)``, each scored once, in one batched
    objective call per block of rows; a block makes at most ``_BLOCK_FLAGS``
    comparison flags (or one row, if a row makes more). Exact coordinate
    ascent (``_ascend``) then starts from each of the ``_ASCENT_STARTS`` best
    of them, and each ascended point that moved is scored as a one-row batch,
    so the search scores at most ``budget + _ASCENT_STARTS`` points. Returns
    the best ascended point and its objective value. Deterministic given the
    seed. Whether an objective is defined depends on the labels alone, so an
    undefined (None) score for the first block raises
    ``UndefinedMetricError``.
    """
    vectors = np.asarray(scan_vectors, dtype=np.float64)
    labels = np.asarray(scan_labels, dtype=bool)
    if vectors.ndim != 2 or vectors.shape[1] != NUM_TYPES:
        raise DataError(f"scan vectors must be (scans, {NUM_TYPES}), got {vectors.shape}")
    if labels.shape != vectors.shape:
        raise ArityError(f"labels shape {labels.shape} must match vectors {vectors.shape}")
    if len(vectors) < 1:
        raise ArityError("need at least one scan")
    if not ((vectors >= 0.0) & (vectors <= 1.0)).all():
        raise DataError("scan vectors must be finite and inside [0, 1]")
    if objective not in OBJECTIVES:
        raise ConfigError(f"unknown objective {objective!r}; pick from {sorted(OBJECTIVES)}")
    if budget < 1:
        raise ConfigError("budget must be positive")
    score = OBJECTIVES[objective]

    lo, hi = SEARCH_BOUNDS
    X = lo + np.random.default_rng(seed).random((budget, NUM_TYPES)) * (hi - lo)
    block = max(1, _BLOCK_FLAGS // vectors.size)
    y = [score(X[i:i + block], vectors, labels) for i in range(0, budget, block)]
    if y[0] is None:
        raise UndefinedMetricError(f"objective {objective} is undefined: its labels are "
                                   "one-class")
    y = np.concatenate(y)

    cuts = [_cuts(vectors[:, t]) for t in range(NUM_TYPES)]
    starts = np.argsort(-y, kind="stable")[:_ASCENT_STARTS]
    ascended = [_ascend(objective, X[start], vectors, labels, cuts) for start in starts]
    values = [y[start] if np.array_equal(point, X[start])
              else score(point[None], vectors, labels)[0]
              for start, point in zip(starts, ascended)]
    best = int(np.argmax(values))
    return ThresholdSet(*ascended[best].tolist()), float(values[best])


def save_thresholds(thresholds: ThresholdSet, path) -> None:
    payload = dict(zip(_THRESHOLD_KEYS, (float(v) for v in thresholds.as_array())))
    atomic_write_text(path, json.dumps(payload) + "\n")


def load_thresholds(path) -> ThresholdSet:
    payload = read_json(path, "threshold file")
    if not isinstance(payload, dict) or set(payload) != set(_THRESHOLD_KEYS):
        raise FormatError(f"{path}: threshold file must contain exactly the keys {_THRESHOLD_KEYS}")
    values = [payload[key] for key in _THRESHOLD_KEYS]
    if not all(is_finite_number(value) for value in values):
        raise FormatError(f"{path}: thresholds must be finite numbers, got {values!r}")
    try:
        return ThresholdSet(*(float(value) for value in values))
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
