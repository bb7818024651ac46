"""Per-type decision thresholds, slice-to-scan aggregation, and the
Gaussian-process threshold optimizer.

A slice is positive for a type when its probability meets or exceeds that
type's threshold; a scan is positive when any slice is, which is exactly
thresholding the per-type max over slices. The optimizer searches
[0.01, 1]^5 with a squared-exponential GP surrogate and expected improvement;
the default objective is the balanced accuracy of the scan-level any-type
decision. AUC itself is threshold-free, so it cannot serve as a threshold
search objective.

The posterior is never refit from scratch. One lower Cholesky factor ``L`` of
the design kernel grows by a row per evaluated point; each candidate is
whitened once as ``V = L^-1 K(X, candidate)``, giving mean ``V . (L^-1 y)``
and variance ``1 - |V|^2``. The axis-line candidates of an anchor stay fixed
while it remains among the best points, so their ``V`` only gains a row per
new point; a step costs O(candidates x points) rather than a dense solve over
every candidate.

Kernels are built in place, in one (candidates x points) buffer. An axis-line
candidate differs from its anchor in one coordinate, so a line takes one
subtract-and-square for its own axis, and each other axis adds one shared row
of the anchor's squared offsets from the design points. The rows are added in
axis order, the order ``_rbf_kernel`` sums axes in. The sum is then divided
by ``-2l^2`` in place, which IEEE division makes the same float as ``-sq``
divided by ``2l^2``. So every kernel value is the same float as the plain
per-candidate kernel's; the tests check this bit for bit.

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
_REFINE_TAIL = 40  # final iterations rank only axis-line candidates
_REFINE_TOP = 2    # around the best points observed so far


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
    # same floats as summing an (a, b, axes) difference stack.
    sq = np.empty((len(a), len(b)))
    np.square(np.subtract(a[:, None, 0], b[None, :, 0], out=sq), out=sq)
    term = np.empty_like(sq)
    for axis in range(1, a.shape[1]):
        sq += np.square(np.subtract(a[:, None, axis], b[None, :, axis], out=term), out=term)
    return _exp_scaled(sq)


def _exp_scaled(sq: np.ndarray) -> np.ndarray:
    """``exp(-sq / 2l^2)``, in place. Dividing ``sq`` by ``-2l^2`` gives the
    same floats as dividing ``-sq`` by ``2l^2``: IEEE division is symmetric
    in sign."""
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


class _Block:
    """Candidates with ``V = L^-1 K(X, candidates)`` against the first ``n``
    design points; the posterior variance of a candidate is ``1 - sum V^2``
    over its column. ``extend`` adds one row of ``V`` per new design point."""

    def __init__(self, candidates, design, factor):
        self.candidates = candidates
        self._whiten(design, factor)

    def _whiten(self, design, factor):
        from scipy.linalg import solve_triangular

        n = len(design)
        cross = self.kernel(design)
        self.size = len(cross)
        self.whitened = np.empty((len(factor), self.size))
        # The solve may overwrite the kernel, which no one else holds, and
        # need not check it: scan vectors are checked to lie in [0, 1] on
        # entry, so every kernel is finite.
        self.whitened[:n] = solve_triangular(factor[:n, :n], cross.T, lower=True,
                                             overwrite_b=True, check_finite=False)
        self.sumsq = np.einsum("ij,ij->j", self.whitened[:n], self.whitened[:n])
        self.n = n

    def kernel(self, points):
        return _rbf_kernel(self.candidates, points)

    def candidate(self, index):
        return self.candidates[index]

    def extend(self, design, factor):
        for j, column in zip(range(self.n, len(design)), self.kernel(design[self.n:]).T):
            row = (column - factor[j, :j] @ self.whitened[:j]) / factor[j, j]
            self.whitened[j] = row
            self.sumsq += row * row
        self.n = len(design)
        return self

    def posterior(self, beta):
        mu = beta @ self.whitened[:self.n]
        return mu, np.maximum(1.0 - self.sumsq, 1e-12)


class _AxisLines(_Block):
    """``point`` with one coordinate swept over that axis's breakpoints, axis
    by axis: ``_axis_line_kernel`` gives their kernel, and ``candidate``
    builds one line point on demand."""

    def __init__(self, point, breakpoints, design, factor):
        self.point = point
        self.breakpoints = breakpoints
        self._whiten(design, factor)

    def kernel(self, points):
        return _axis_line_kernel(self.point, self.breakpoints, points)

    def candidate(self, index):
        axis, index = _locate(index, map(len, self.breakpoints))
        chosen = self.point.copy()
        chosen[axis] = self.breakpoints[axis][index]
        return chosen


def _axis_line_kernel(point: np.ndarray, breakpoints, points: np.ndarray) -> np.ndarray:
    """``_rbf_kernel`` of the axis lines of ``point`` against ``points``, float
    for float. A line differs from ``point`` in its own axis only, so only
    that axis takes a (breakpoints x points) subtract-and-square; every other
    axis adds one shared row of ``(point - points)^2``, in axis order, the
    same operations on the same operands as ``_rbf_kernel``."""
    shared = np.square(point[:, None] - points.T)  # (axes, points)
    leading = np.cumsum(shared, axis=0)  # summed left to right, as _rbf_kernel sums
    sq = np.empty((sum(map(len, breakpoints)), len(points)))
    start = 0
    for axis, values in enumerate(breakpoints):
        line = sq[start:start + len(values)]
        np.square(np.subtract(values[:, None], points[None, :, axis], out=line), out=line)
        if axis:
            line += leading[axis - 1]
        for later in shared[axis + 1:]:
            line += later
        start += len(values)
    return _exp_scaled(sq)


def _locate(index: int, sizes) -> tuple[int, int]:
    """The part that holds ``index`` of a concatenation of parts of ``sizes``,
    and the index inside that part."""
    for part, size in enumerate(sizes):
        if index < size:
            return part, index
        index -= size
    raise IndexError("index past the last part")


def optimize_thresholds(scan_vectors, scan_labels, objective: str = "any_bacc",
                        budget: int = 150, seed: int = 0) -> tuple[ThresholdSet, float]:
    """Search thresholds with a GP surrogate and expected improvement.

    Twenty seeded quasi-random points start the design; each later step fits
    the GP on everything evaluated so far and evaluates the candidate with the
    highest expected improvement. Returns the best evaluated point and its
    objective value. Deterministic given the seed. Whether an objective is
    defined depends on the labels alone, so an undefined (None) score at the
    first point raises ``UndefinedMetricError``.
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
    X = np.empty((budget, NUM_TYPES))
    factor = np.zeros((budget, budget))
    n = min(_NUM_INITIAL_POINTS, budget)
    X[:n] = lo + sampler.random(n) * (hi - lo)
    for j in range(n):
        _cholesky_append(factor, j, _rbf_kernel(X[:j], X[j:j + 1])[:, 0])
    y = [score(x, vectors, labels) for x in X[:n]]
    if y[0] is None:
        raise UndefinedMetricError(f"objective {objective} is undefined: its labels are "
                                   "one-class")
    y = np.array(y)

    # The objective only changes where a threshold crosses an observed scan
    # probability, so those per-axis values (and the plateau just above each)
    # are the candidate coordinates worth ranking under the acquisition.
    breakpoints = []
    for t in range(NUM_TYPES):
        values = np.unique(vectors[:, t])
        above = np.append((values[:-1] + values[1:]) / 2.0, hi)
        breakpoints.append(np.unique(np.clip(np.concatenate([values, above]), lo, hi)))

    lines: dict[int, _Block] = {}  # anchor index -> its axis-line block
    total_steps = budget - n
    for step in range(total_steps):
        design = X[:n]
        # Standardized targets keep the unit-variance kernel honest about
        # how much improvement is plausible.
        spread = max(float(y.std()), 1e-9)
        y_std = (y - y.mean()) / spread
        beta = solve_triangular(factor[:n, :n], y_std, lower=True)

        # Early steps mix global quasi-random candidates with local moves;
        # the tail ranks only single-coordinate moves around the best points,
        # which walks plateau edges the way a threshold sweep would. An
        # anchor's axis lines stay fixed while it remains an anchor, so its
        # block only gains a row per new point; blocks of former anchors go.
        refining = step >= total_steps - _REFINE_TAIL
        anchors = [int(a) for a in np.argsort(-y)[:_REFINE_TOP if refining else 4]]
        lines = {a: lines[a].extend(design, factor) if a in lines
                 else _AxisLines(X[a], breakpoints, design, factor)
                 for a in anchors}
        pool = [lines[a] for a in anchors]
        if not refining:
            pool.insert(0, _Block(lo + sampler.random(512) * (hi - lo), design, factor))
            local = [np.clip(X[anchors[0]] + rng.normal(0.0, scale, size=(128, NUM_TYPES)), lo, hi)
                     for scale in (0.02, 0.06)]
            pool.append(_Block(np.vstack(local), design, factor))

        mu, var = (np.concatenate(parts) for parts in zip(*(b.posterior(beta) for b in pool)))
        sigma = np.sqrt(var)
        z = (mu - y_std.max()) / sigma
        improvement = sigma * (z * _norm_cdf(z) + _norm_pdf(z))
        part, index = _locate(int(np.argmax(improvement)), (b.size for b in pool))
        chosen = pool[part].candidate(index)
        _cholesky_append(factor, n, _rbf_kernel(design, chosen[None, :])[:, 0])
        X[n] = chosen
        y = np.append(y, score(chosen, vectors, labels))
        n += 1

    winner = int(np.argmax(y))
    return ThresholdSet.from_array(X[winner]), float(y[winner])


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
