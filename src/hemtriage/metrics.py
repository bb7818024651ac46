"""Evaluation statistics: confusion matrices, derived rates, AUC, log loss,
binomial confidence intervals, cumulative positive-case curves, and box-plot
summaries.

An undefined statistic is None, never silently 0 or 1 and never an
exception: a zero-denominator rate, the AUC and ROC curve of one-class labels,
and the box of an empty group. Rare types with a handful of positives, or
none, make those cases reachable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ArityError, DataError
from .fileio import atomic_write_text, write_csv
from .volume import HEMORRHAGE_TYPES, NUM_TYPES

REPORT_LABELS = HEMORRHAGE_TYPES + ("any",)
_REPORT_COLUMNS = ("Hemorrhage", "TP", "FN", "TN", "FP", "SEN", "SPEC", "PPV",
                   "NPV", "AUC", "Acc", "BAcc", "MCC", "F1")
_STAT_FIELDS = ("sen", "spec", "ppv", "npv", "acc", "bacc", "mcc", "f1")


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int
    fn: int
    tn: int
    fp: int

    def __post_init__(self):
        counts = (self.tp, self.fn, self.tn, self.fp)
        if any(c < 0 for c in counts):
            raise DataError(f"confusion counts must be non-negative, got {counts}")
        if sum(counts) < 1:
            raise DataError("confusion matrix must count at least one sample")

    @property
    def total(self) -> int:
        return self.tp + self.fn + self.tn + self.fp


@dataclass(frozen=True)
class ClassifierStats:
    """Derived rates; None flags an undefined (zero-denominator) statistic."""

    sen: float | None
    spec: float | None
    ppv: float | None
    npv: float | None
    acc: float | None
    bacc: float | None
    mcc: float | None
    f1: float | None


def compute_confusion(decisions, truths) -> ConfusionMatrix:
    decisions = np.asarray(decisions, dtype=bool).ravel()
    truths = np.asarray(truths, dtype=bool).ravel()
    if len(decisions) != len(truths):
        raise ArityError(f"{len(decisions)} decisions vs {len(truths)} truths")
    if len(decisions) < 1:
        raise ArityError("need at least one decision/truth pair")
    return ConfusionMatrix(
        tp=int((decisions & truths).sum()),
        fn=int((~decisions & truths).sum()),
        tn=int((~decisions & ~truths).sum()),
        fp=int((decisions & ~truths).sum()),
    )


def _ratio(num: int, den: int) -> float | None:
    return num / den if den > 0 else None


def balanced_accuracy(true_pos, num_pos: int, true_neg, num_neg: int):
    """Mean of sensitivity and specificity from true-positive and
    true-negative counts, elementwise over count arrays; None when either
    class count is 0."""
    if not num_pos or not num_neg:
        return None
    return (true_pos / num_pos + true_neg / num_neg) / 2.0


def compute_metrics(cm: ConfusionMatrix) -> ClassifierStats:
    sen = _ratio(cm.tp, cm.tp + cm.fn)
    spec = _ratio(cm.tn, cm.tn + cm.fp)
    mcc_den = (cm.tp + cm.fp) * (cm.tp + cm.fn) * (cm.tn + cm.fp) * (cm.tn + cm.fn)
    return ClassifierStats(
        sen=sen,
        spec=spec,
        ppv=_ratio(cm.tp, cm.tp + cm.fp),
        npv=_ratio(cm.tn, cm.tn + cm.fn),
        acc=(cm.tp + cm.tn) / cm.total,
        bacc=balanced_accuracy(cm.tp, cm.tp + cm.fn, cm.tn, cm.tn + cm.fp),
        mcc=(cm.tp * cm.tn - cm.fp * cm.fn) / math.sqrt(mcc_den) if mcc_den > 0 else None,
        f1=_ratio(2 * cm.tp, 2 * cm.tp + cm.fp + cm.fn),
    )


def _split_scores(scores, labels):
    """Checked scores and labels with the positive and negative counts."""
    scores = np.asarray(scores, dtype=np.float64).ravel()
    labels = np.asarray(labels, dtype=bool).ravel()
    if len(scores) != len(labels):
        raise ArityError(f"{len(scores)} scores vs {len(labels)} labels")
    if not np.isfinite(scores).all():
        raise DataError("scores must be finite")
    num_pos = int(labels.sum())
    return scores, labels, num_pos, len(labels) - num_pos


def compute_auc(scores, labels) -> float | None:
    """Mann-Whitney AUC: ties between a positive and a negative count half;
    None when the labels hold one class.

    Computed from midranks, which equals brute-force pair counting exactly.
    """
    scores, labels, num_pos, num_neg = _split_scores(scores, labels)
    if not num_pos or not num_neg:
        return None
    _, tie_group, tie_counts = np.unique(scores, return_inverse=True, return_counts=True)
    midranks = np.cumsum(tie_counts) - (tie_counts - 1) / 2.0  # 1-based, per tie group
    pairs_won = midranks[tie_group][labels].sum() - num_pos * (num_pos + 1) / 2.0
    return pairs_won / (num_pos * num_neg)


def roc_points(scores, labels) -> np.ndarray | None:
    """ROC polyline: one (FPR, TPR) vertex per distinct score, ends pinned
    at (0,0) and (1,1); None when the labels hold one class. A score is
    called positive when >= the threshold."""
    scores, labels, num_pos, num_neg = _split_scores(scores, labels)
    if not num_pos or not num_neg:
        return None
    order = np.argsort(-scores, kind="mergesort")
    sorted_labels = labels[order]
    last_of_threshold = np.append(np.flatnonzero(np.diff(scores[order])), len(scores) - 1)
    points = np.zeros((len(last_of_threshold) + 1, 2))
    points[1:, 0] = np.cumsum(~sorted_labels)[last_of_threshold] / num_neg
    points[1:, 1] = np.cumsum(sorted_labels)[last_of_threshold] / num_pos
    return points


def log_loss(probabilities, labels) -> float:
    probs = np.asarray(probabilities, dtype=np.float64).ravel()
    truth = np.asarray(labels, dtype=np.float64).ravel()
    if len(probs) != len(truth):
        raise ArityError(f"{len(probs)} probabilities vs {len(truth)} labels")
    if len(probs) < 1:
        raise ArityError("need at least one probability/label pair")
    probs = np.clip(probs, 1e-15, 1.0 - 1e-15)
    return float(-np.mean(truth * np.log(probs) + (1.0 - truth) * np.log(1.0 - probs)))


def binomial_ci(proportion: float, count: int, z: float = 1.96) -> float:
    """Normal-approximation half-width z * sqrt(p(1-p)/n) for a Bernoulli rate."""
    if not 0.0 <= proportion <= 1.0:
        raise DataError(f"proportion must lie in [0, 1], got {proportion}")
    if count < 1:
        raise DataError(f"sample count must be positive, got {count}")
    return z * math.sqrt(proportion * (1.0 - proportion) / count)


@dataclass(frozen=True, eq=False)
class CumulativeCurves:
    decision_curve: np.ndarray
    truth_curve: np.ndarray
    final_difference: int  # decisions minus truths at the end, i.e. fp - fn
    disagreements: int     # fp + fn


def cumulative_curves(decisions, truths) -> CumulativeCurves:
    """Running positive counts of decisions and truths in review order.

    Curves above the truth line mean over-calling; below means missed cases.
    """
    decisions = np.asarray(decisions, dtype=bool).ravel()
    truths = np.asarray(truths, dtype=bool).ravel()
    if len(decisions) != len(truths):
        raise ArityError(f"{len(decisions)} decisions vs {len(truths)} truths")
    decision_curve = np.cumsum(decisions).astype(int)
    truth_curve = np.cumsum(truths).astype(int)
    return CumulativeCurves(
        decision_curve=decision_curve,
        truth_curve=truth_curve,
        final_difference=int(decision_curve[-1] - truth_curve[-1]) if len(decisions) else 0,
        disagreements=int((decisions != truths).sum()),
    )


@dataclass(frozen=True, eq=False)
class BoxplotStats:
    median: float
    q1: float
    q3: float
    whisker_low: float
    whisker_high: float
    outliers: np.ndarray


def boxplot_stats(values) -> BoxplotStats | None:
    """Quartiles by linear interpolation of order statistics (position (k-1)q);
    whiskers reach the most extreme points within 1.5 IQR of the box. None
    for an empty group."""
    values = np.asarray(values, dtype=np.float64).ravel()
    if len(values) < 1:
        return None
    q1, median, q3 = np.percentile(values, (25, 50, 75))
    iqr = q3 - q1
    low_fence = q1 - 1.5 * iqr
    high_fence = q3 + 1.5 * iqr
    inside = values[(values >= low_fence) & (values <= high_fence)]
    return BoxplotStats(
        median=float(median),
        q1=float(q1),
        q3=float(q3),
        whisker_low=float(inside.min()),
        whisker_high=float(inside.max()),
        outliers=np.sort(values[(values < low_fence) | (values > high_fence)]),
    )


def boxplot_stats_by_class(values, truths) -> dict[int, BoxplotStats | None]:
    values = np.asarray(values, dtype=np.float64).ravel()
    truths = np.asarray(truths, dtype=bool).ravel()
    if len(values) != len(truths):
        raise ArityError(f"{len(values)} values vs {len(truths)} truths")
    return {0: boxplot_stats(values[~truths]), 1: boxplot_stats(values[truths])}


@dataclass(frozen=True, eq=False)
class LabelReport:
    cm: ConfusionMatrix
    stats: ClassifierStats
    auc: float | None
    ci_acc: float
    ci_bacc: float | None


def report_columns(decisions, truths, scores=None):
    """Columns of (scans, 5) decisions, truths and optional scores, each keyed
    by ``REPORT_LABELS``; "any" ORs decisions and truths and takes the
    per-type max of scores."""
    def columns(matrix, any_of):
        return dict(zip(REPORT_LABELS, [*matrix.T, any_of(matrix, axis=1)]))
    return (columns(decisions, np.any), columns(truths, np.any),
            None if scores is None else columns(scores, np.max))


def build_report(decisions, truths, scores=None) -> dict[str, LabelReport]:
    """One row per label of ``REPORT_LABELS`` (five types plus any), in that
    order, from per-scan decisions/labels.

    ``decisions`` and ``truths`` are (scans, 5) booleans; optional ``scores``
    are (scans, 5) probabilities for AUC; ``report_columns`` derives "any".
    """
    decisions = np.asarray(decisions, dtype=bool)
    truths = np.asarray(truths, dtype=bool)
    if decisions.shape != truths.shape or decisions.ndim != 2 or decisions.shape[1] != NUM_TYPES:
        raise ArityError(f"decisions {decisions.shape} and truths {truths.shape} "
                         f"must be (scans, {NUM_TYPES})")
    if scores is not None:
        scores = np.asarray(scores, dtype=np.float64)
        if scores.shape != decisions.shape:
            raise ArityError(f"scores shape {scores.shape} must match decisions")
    label_decisions, label_truths, label_scores = report_columns(decisions, truths, scores)
    report = {}
    for label in REPORT_LABELS:
        cm = compute_confusion(label_decisions[label], label_truths[label])
        stats = compute_metrics(cm)
        report[label] = LabelReport(
            cm=cm,
            stats=stats,
            auc=None if scores is None else compute_auc(label_scores[label], label_truths[label]),
            ci_acc=binomial_ci(stats.acc, cm.total),
            ci_bacc=binomial_ci(stats.bacc, cm.total) if stats.bacc is not None else None,
        )
    return report


def _cell(value: float | None) -> str:
    return "NA" if value is None else f"{100.0 * value:.1f}"


def report_to_text(report: dict[str, LabelReport]) -> str:
    lines = []
    for label, row in report.items():
        lines.append(f"[{label}]")
        lines.append(f"tp={row.cm.tp} fn={row.cm.fn} tn={row.cm.tn} fp={row.cm.fp}")
        for field in _STAT_FIELDS:
            lines.append(f"{field}={_cell(getattr(row.stats, field))}")
        lines.append(f"auc={_cell(row.auc)}")
        lines.append(f"ci_acc=±{100.0 * row.ci_acc:.2f}")
        ci_bacc = "NA" if row.ci_bacc is None else f"±{100.0 * row.ci_bacc:.2f}"
        lines.append(f"ci_bacc={ci_bacc}")
        lines.append("")
    return "\n".join(lines)


def save_report(report: dict[str, LabelReport], csv_path, text_path) -> None:
    """The CSV is a percent table in the published column order; NA marks undefined."""
    write_csv(csv_path, _REPORT_COLUMNS,
              ([label.upper() if label != "any" else "Any",
                row.cm.tp, row.cm.fn, row.cm.tn, row.cm.fp,
                _cell(row.stats.sen), _cell(row.stats.spec), _cell(row.stats.ppv),
                _cell(row.stats.npv), _cell(row.auc), _cell(row.stats.acc),
                _cell(row.stats.bacc), _cell(row.stats.mcc), _cell(row.stats.f1)]
               for label, row in report.items()))
    atomic_write_text(text_path, report_to_text(report))
