"""Per-type decision thresholds, slice-to-scan aggregation, and the
threshold optimizer.

A slice is positive for a type when its probability meets or exceeds that
type's threshold; a scan is positive when any slice is, which is exactly
thresholding the per-type max over slices. The optimizer searches
[0.01, 1]^5; the default objective is the balanced accuracy of the scan-level
any-type decision. AUC itself is threshold-free, so it cannot serve as a
threshold search objective.

The search has two phases. A seeded random design scores ``budget`` points
drawn uniformly from the search box; it only chooses where the second phase
starts. Then exact coordinate ascent polishes the best design points. Both
objectives are step functions that change only where a threshold crosses a
scan value, so with four thresholds fixed, one sweep of the fifth over the
cuts between those values gives the exact objective everywhere on that line:
the ROC threshold sweep, one axis at a time. ``mean_type_bacc`` is a mean of
per-type terms that each depend on one threshold, so one pass of the ascent
reaches its global optimum.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import ArityError, ConfigError, DataError, FormatError, UndefinedMetricError
from .fileio import atomic_write_text, is_finite_number, read_json
from .metrics import compute_confusion, compute_metrics
from .volume import HEMORRHAGE_TYPES, NUM_TYPES

_THRESHOLD_KEYS = tuple(f"t_{t}" for t in HEMORRHAGE_TYPES)

SEARCH_BOUNDS = (0.01, 1.0)
_ASCENT_STARTS = 4  # best design points the ascent starts from


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

    @classmethod
    def from_array(cls, values) -> "ThresholdSet":
        values = np.asarray(values, dtype=np.float64)
        if values.shape != (NUM_TYPES,):
            raise ArityError(f"threshold array must have shape ({NUM_TYPES},), got {values.shape}")
        return cls(*(float(v) for v in values))


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


def aggregate_scan(rows) -> np.ndarray:
    """Scan-level probability vector: per-type max over slices."""
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[1] != NUM_TYPES:
        raise DataError(f"probability rows must be (num_slices, {NUM_TYPES}), got {rows.shape}")
    if rows.shape[0] < 1:
        raise ArityError("a scan needs at least one probability row")
    return rows.max(axis=0)


def _balanced_accuracy(decisions: np.ndarray, truths: np.ndarray) -> float | None:
    return compute_metrics(compute_confusion(decisions, truths)).bacc


def _objective_any_bacc(thresholds: np.ndarray, vectors: np.ndarray,
                        labels: np.ndarray) -> float | None:
    decisions = (vectors >= thresholds).any(axis=1)
    return _balanced_accuracy(decisions, labels.any(axis=1))


def _objective_mean_type_bacc(thresholds: np.ndarray, vectors: np.ndarray,
                              labels: np.ndarray) -> float | None:
    """Mean balanced accuracy over the types where it is defined."""
    scores = [_balanced_accuracy(vectors[:, t] >= thresholds[t], labels[:, t])
              for t in range(NUM_TYPES)]
    defined = [score for score in scores if score is not None]
    return float(np.mean(defined)) if defined else None


OBJECTIVES = {
    "any_bacc": _objective_any_bacc,
    "mean_type_bacc": _objective_mean_type_bacc,
}


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
    """The objective at ``point`` with coordinate ``axis`` set to each of
    ``cuts``; for ``mean_type_bacc``, only the term of ``axis``'s type, the
    only term that coordinate moves. None where that value is undefined.

    A scan already positive on another axis stays positive; any other scan is
    positive exactly when its value on ``axis`` reaches the cut. So sorting
    those scans' values by class, two ``searchsorted`` calls count the true
    positives and true negatives at every cut, and the balanced accuracy is
    computed from them as ``metrics.compute_metrics`` computes it.
    """
    if objective == "any_bacc":
        truth = labels.any(axis=1)
        fixed = np.delete(vectors >= point, axis, axis=1).any(axis=1)
    else:
        truth = labels[:, axis]
        fixed = np.zeros(len(truth), dtype=bool)
    num_pos = int(truth.sum())
    num_neg = len(truth) - num_pos
    if not num_pos or not num_neg:
        return None
    positives = np.sort(vectors[~fixed & truth, axis])
    negatives = np.sort(vectors[~fixed & ~truth, axis])
    true_pos = num_pos - np.searchsorted(positives, cuts)
    true_neg = np.searchsorted(negatives, cuts)
    return (true_pos / num_pos + true_neg / num_neg) / 2.0


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


def optimize_thresholds(scan_vectors, scan_labels, objective: str = "any_bacc",
                        budget: int = 150, seed: int = 0) -> tuple[ThresholdSet, float]:
    """Score ``budget`` seeded random points, then polish the best exactly.

    The design is ``budget`` points drawn uniformly from the search box by
    ``numpy.random.default_rng(seed)``, each scored once. Exact coordinate
    ascent (``_ascend``) then starts from each of the ``_ASCENT_STARTS`` best
    of them, and each ascended point that moved costs one more evaluation, so
    the objective runs at most ``budget + _ASCENT_STARTS`` times. Returns the
    best ascended point and its objective value. Deterministic given the seed.
    Whether an objective is defined depends on the labels alone, so an
    undefined (None) score at the first point raises ``UndefinedMetricError``.
    """
    vectors = np.asarray(scan_vectors, dtype=np.float64)
    labels = np.asarray(scan_labels, dtype=bool)
    if vectors.ndim != 2 or vectors.shape[1] != NUM_TYPES:
        raise DataError(f"scan vectors must be (scans, {NUM_TYPES}), got {vectors.shape}")
    if labels.shape != vectors.shape:
        raise ArityError(f"labels shape {labels.shape} must match vectors {vectors.shape}")
    if not ((vectors >= 0.0) & (vectors <= 1.0)).all():
        raise DataError("scan vectors must be finite and inside [0, 1]")
    if objective not in OBJECTIVES:
        raise ConfigError(f"unknown objective {objective!r}; pick from {sorted(OBJECTIVES)}")
    if budget < 1:
        raise ConfigError("budget must be positive")
    score = OBJECTIVES[objective]

    lo, hi = SEARCH_BOUNDS
    X = lo + np.random.default_rng(seed).random((budget, NUM_TYPES)) * (hi - lo)
    y = [score(x, vectors, labels) for x in X]
    if y[0] is None:
        raise UndefinedMetricError(f"objective {objective} is undefined: its labels are "
                                   "one-class")
    y = np.array(y)

    cuts = [_cuts(vectors[:, t]) for t in range(NUM_TYPES)]
    starts = np.argsort(-y, kind="stable")[:_ASCENT_STARTS]
    ascended = [_ascend(objective, X[start], vectors, labels, cuts) for start in starts]
    values = [y[start] if np.array_equal(point, X[start]) else score(point, vectors, labels)
              for start, point in zip(starts, ascended)]
    best = int(np.argmax(values))
    return ThresholdSet.from_array(ascended[best]), float(values[best])


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
