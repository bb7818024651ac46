"""Output checks, artifact digests and quality figures for the benchmark.

The loaders are bound here at import time, before any tracing patches the
package, so checking outputs never shows up in the layer spans.
"""

from __future__ import annotations

import csv
import hashlib
from pathlib import Path

import numpy as np

from hemtriage.errors import PipelineError
from hemtriage.metrics import compute_auc
from hemtriage.slicemodel import load_slice_model, load_slice_probs
from hemtriage.stacker import load_stacker_model
from hemtriage.thresholds import load_thresholds
from hemtriage.volume import load_manifest, load_slice_labels

REPORT_LABELS = ("EDH", "SDH", "SAH", "IVH", "IPH", "Any")
REPORT_FILES = ("roc_curves.csv", "roc_curves.svg", "cumulative_curves.csv",
                "boxplot_stats.csv", "boxplot.svg", "ci_summary.csv")


class CheckFailed(Exception):
    """A stage produced a missing, malformed or incomplete output."""


def digest(path: Path) -> str:
    """sha256 over every file under ``path`` (relative names and bytes)."""
    path = Path(path)
    files = sorted(p for p in path.rglob("*") if p.is_file()) if path.is_dir() else [path]
    h = hashlib.sha256()
    for file in files:
        h.update(str(file.relative_to(path) if path.is_dir() else file.name).encode())
        h.update(b"\0")
        h.update(file.read_bytes())
    return h.hexdigest()


class Cohort:
    """Manifest truth and slice counts of one synthesized cohort."""

    def __init__(self, directory: Path):
        try:
            rows = load_manifest(directory / "manifest.csv")
            self.slice_labels = load_slice_labels(directory / "slice_labels.csv")
        except (PipelineError, OSError) as exc:
            raise CheckFailed(f"cohort {directory.name}: {exc}") from exc
        self.scan_ids = [row.scan_id for row in rows]
        self.any_truth = np.array([row.labels.vector().any() for row in rows])
        if set(self.scan_ids) != set(self.slice_labels):
            raise CheckFailed(f"cohort {directory.name}: manifest and slice labels disagree")

    @property
    def num_slices(self) -> int:
        return sum(m.shape[0] for m in self.slice_labels.values())

    def load_probs(self, path: Path) -> dict[str, np.ndarray]:
        """Load a probability CSV and check it covers every scan and slice."""
        try:
            probs = load_slice_probs(path)
        except (PipelineError, OSError) as exc:
            raise CheckFailed(str(exc)) from exc
        if set(probs) != set(self.scan_ids):
            raise CheckFailed(f"{path}: covers {len(probs)} scans, cohort has {len(self.scan_ids)}")
        for scan_id, rows in probs.items():
            if rows.shape != self.slice_labels[scan_id].shape:
                raise CheckFailed(f"{path}: scan {scan_id} has {rows.shape[0]} slice rows, "
                                  f"expected {self.slice_labels[scan_id].shape[0]}")
        return probs

    def scan_scores(self, probs) -> np.ndarray:
        """(scans, 5) per-type maxima over slices, in manifest order."""
        return np.array([probs[scan_id].max(axis=0) for scan_id in self.scan_ids])


def check_output(stage, cohort: Cohort) -> None:
    """Raise CheckFailed unless the stage's declared output loads and is complete."""
    out = stage.output
    if not out.exists():
        raise CheckFailed(f"{stage.key}: missing output {out}")
    try:
        if stage.name == "slice-train":
            load_slice_model(out)
        elif stage.name == "stack-train":
            load_stacker_model(out)
        elif stage.name == "optimize":
            load_thresholds(out)
    except (PipelineError, OSError) as exc:
        raise CheckFailed(f"{stage.key}: {exc}") from exc
    if stage.name in ("oof", "slice-predict", "stack-apply"):
        cohort.load_probs(out)
    elif stage.name == "evaluate":
        with open(out, newline="") as fh:
            labels = tuple(row[0] for row in list(csv.reader(fh))[1:])
        if labels != REPORT_LABELS:
            raise CheckFailed(f"{out}: report labels {labels}, expected {REPORT_LABELS}")
    elif stage.name == "report":
        missing = [name for name in REPORT_FILES if not (out / name).is_file()]
        if missing:
            raise CheckFailed(f"{out}: missing {missing}")


def balanced_accuracy(decisions: np.ndarray, truths: np.ndarray) -> float:
    sensitivity = (decisions & truths).sum() / truths.sum()
    specificity = (~decisions & ~truths).sum() / (~truths).sum()
    return float((sensitivity + specificity) / 2.0)


def judged(cohort: Cohort, probs_path: Path, thresholds_path: Path):
    """Scan-level any-type scores, decisions at the applied thresholds, and truth."""
    scores = cohort.scan_scores(cohort.load_probs(probs_path))
    thresholds = load_thresholds(thresholds_path).as_array()
    return scores.max(axis=1), (scores >= thresholds).any(axis=1), cohort.any_truth


def quality(judged_cohorts) -> tuple[float, float]:
    """Any-type AUC and balanced accuracy pooled over (scores, decisions, truth) triples."""
    scores, decisions, truths = (np.concatenate(parts) for parts in zip(*judged_cohorts))
    return float(compute_auc(scores, truths)), balanced_accuracy(decisions, truths)


def forest_size(slice_model_path: Path, stacker_path: Path) -> int:
    """Trees one slice passes through in slice-predict plus stack-apply."""
    classifier, _ = load_slice_model(slice_model_path)
    ensemble, _ = load_stacker_model(stacker_path)
    return (sum(len(m.trees) for m in classifier.models)
            + sum(len(m.trees) for group in ensemble.groups for m in group))


def distinct_per_axis(cohort: Cohort, probs_path: Path) -> list[int]:
    """Distinct scan-level probabilities per type: the optimizer's pool grows with them."""
    scores = cohort.scan_scores(cohort.load_probs(probs_path))
    return [int(np.unique(scores[:, t]).size) for t in range(scores.shape[1])]
