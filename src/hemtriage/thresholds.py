"""Per-type decision thresholds, slice-to-scan aggregation, and the
threshold optimizer.

A slice is positive for a type when its probability meets or exceeds that
type's threshold; a scan is positive when any slice is, which is exactly
thresholding the per-type max over slices. The optimizer searches
[0.01, 1]^5; the default objective is the balanced accuracy of the scan-level
any-type decision. AUC itself is threshold-free, so it cannot serve as a
threshold search objective.

The search has two phases. A GP-EI phase explores with a squared-exponential
GP surrogate and expected improvement over quasi-random and local
candidates. Its posterior is never refit from scratch: one lower Cholesky
factor ``L`` of the design kernel grows by a row per evaluated point, and
each step whitens its candidates in one triangular solve. Then exact
coordinate ascent polishes the best evaluated points. Both objectives are
step functions that change only where a threshold crosses a scan value, so
with four thresholds fixed, one sweep of the fifth over the cuts between
those values gives the exact objective everywhere on that line: the ROC
threshold sweep, one axis at a time. ``mean_type_bacc`` is a mean of
per-type terms that each depend on one threshold, so one pass of the ascent
reaches its global optimum.

scipy is imported inside the optimizer's functions only: its import is most of
the package's start-up time, and no other command needs it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ArityError, ConfigError, DataError, FormatError, UndefinedMetricError
from .fileio import atomic_write_text, is_finite_number, read_json
from .metrics import compute_confusion, compute_metrics
from .volume import HEMORRHAGE_TYPES, NUM_TYPES

_THRESHOLD_KEYS = tuple(f"t_{t}" for t in HEMORRHAGE_TYPES)

SEARCH_BOUNDS = (0.01, 1.0)
_GP_LENGTH_SCALE = 0.2
_GP_NOISE = 1e-6
_NUM_INITIAL_POINTS = 20
_ASCENT_TAIL = 40   # evaluations of the budget left to the exact ascent
_ASCENT_STARTS = 4  # best evaluated points the ascent starts from


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


def _norm_pdf(z):
    return np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)


def _norm_cdf(z):
    from scipy.special import erf

    return 0.5 * (1.0 + erf(z / math.sqrt(2.0)))


def _rbf_kernel(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # Squared distance summed one axis at a time into one (a, b) buffer: the
    # same floats as summing an (a, b, axes) difference stack. Dividing it by
    # ``-2l^2`` in place gives the same floats as dividing ``-sq`` by ``2l^2``:
    # IEEE division is symmetric in sign.
    sq = np.empty((len(a), len(b)))
    np.square(np.subtract(a[:, None, 0], b[None, :, 0], out=sq), out=sq)
    term = np.empty_like(sq)
    for axis in range(1, a.shape[1]):
        sq += np.square(np.subtract(a[:, None, axis], b[None, :, axis], out=term), out=term)
    sq /= -2.0 * _GP_LENGTH_SCALE ** 2
    return np.exp(sq, out=sq)


def _cholesky_append(factor: np.ndarray, n: int, column: np.ndarray) -> None:
    """Grow ``factor[:n, :n]``, the lower Cholesky factor of the design kernel,
    by row ``n`` for a new point whose kernel against the first ``n`` points is
    ``column``. A pivot that is not positive raises ``LinAlgError``."""
    from scipy.linalg import solve_triangular

    row = (solve_triangular(factor[:n, :n], column, lower=True, check_finite=False)
           if n else column)
    pivot = 1.0 + _GP_NOISE - row @ row
    if not pivot > 0.0:
        raise np.linalg.LinAlgError(f"design kernel is not positive definite at point {n}")
    factor[n, :n] = row
    factor[n, n] = math.sqrt(pivot)


def _posterior(candidates, design, factor, beta):
    """Posterior mean and variance at ``candidates``: with ``V = L^-1 K(X,
    candidates)``, the mean is ``beta . V`` and the variance ``1 - |V|^2``."""
    from scipy.linalg import solve_triangular

    n = len(design)
    # The solve may overwrite the kernel, which no one else holds, and need not
    # check it: scan vectors are checked to lie in [0, 1] on entry, so every
    # kernel is finite.
    whitened = solve_triangular(factor[:n, :n], _rbf_kernel(design, candidates), lower=True,
                                overwrite_b=True, check_finite=False)
    return beta @ whitened, np.maximum(1.0 - np.einsum("ij,ij->j", whitened, whitened), 1e-12)


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
    """Search thresholds with GP-EI, then polish the best points exactly.

    Twenty seeded quasi-random points start the design; each later step
    evaluates the candidate with the highest expected improvement, until the
    GP phase has used all but the last ``_ASCENT_TAIL`` evaluations of
    ``budget``. Exact coordinate ascent (``_ascend``) then starts from each
    of the ``_ASCENT_STARTS`` best evaluated points, and each ascended point
    that moved costs one more evaluation. Returns the best ascended point and
    its objective value. Deterministic given the seed. Whether an objective
    is defined depends on the labels alone, so an undefined (None) score at
    the first point raises ``UndefinedMetricError``.
    """
    from scipy.linalg import solve_triangular
    from scipy.stats import qmc

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
    sampler = qmc.Halton(d=NUM_TYPES, scramble=True, seed=seed)
    rng = np.random.default_rng(seed)
    initial = min(_NUM_INITIAL_POINTS, budget)
    gp_budget = max(initial, budget - _ASCENT_TAIL)
    X = np.empty((gp_budget, NUM_TYPES))
    factor = np.zeros((gp_budget, gp_budget))
    X[:initial] = lo + sampler.random(initial) * (hi - lo)
    for j in range(initial):
        _cholesky_append(factor, j, _rbf_kernel(X[:j], X[j:j + 1])[:, 0])
    y = [score(x, vectors, labels) for x in X[:initial]]
    if y[0] is None:
        raise UndefinedMetricError(f"objective {objective} is undefined: its labels are "
                                   "one-class")
    y = np.array(y)

    for n in range(initial, gp_budget):
        design = X[:n]
        # Standardized targets keep the unit-variance kernel honest about
        # how much improvement is plausible.
        spread = max(float(y.std()), 1e-9)
        y_std = (y - y.mean()) / spread
        beta = solve_triangular(factor[:n, :n], y_std, lower=True)
        # Global quasi-random candidates and local moves around the best point.
        local = [np.clip(X[np.argmax(y)] + rng.normal(0.0, scale, size=(128, NUM_TYPES)), lo, hi)
                 for scale in (0.02, 0.06)]
        candidates = np.vstack([lo + sampler.random(512) * (hi - lo), *local])
        mu, var = _posterior(candidates, design, factor, beta)
        sigma = np.sqrt(var)
        z = (mu - y_std.max()) / sigma
        improvement = sigma * (z * _norm_cdf(z) + _norm_pdf(z))
        chosen = candidates[int(np.argmax(improvement))]
        _cholesky_append(factor, n, _rbf_kernel(design, chosen[None, :])[:, 0])
        X[n] = chosen
        y = np.append(y, score(chosen, vectors, labels))

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
