"""Workload definitions and the CLI stage chain every workload runs.

Each workload runs the whole README chain (synth, slice-train, oof,
stack-train, optimize, slice-predict, stack-apply, evaluate, report) on
cohorts generated from the workload seed, so every stage has a time on every
workload. What differs is the cohort sizes and which stages form the timed
part: the stages a workload is about are timed, the others run in set-up, at
a small size where the workload is not about them.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Fixed slice counts keep the work per cohort identical across seeds, so the
# spread between seeds measures the program, not the cohort draw.
SLICES_PER_SCAN = 14
DISTRACTOR_FRACTION = 0.3
# Training cohorts are enriched for positives, as case-enriched training sets
# are: at 0.3 a 20-scan cohort holds one positive scan per type, and the
# models (and every quality figure) would swing with the draw.
TRAIN_POSITIVE_FRACTION = 0.6
POSITIVE_FRACTION = 0.3
# The external cohort's volumes are never read (its probabilities come from
# write_external_probs), so it is synthesized at the smallest legal size.
EXTERNAL_SLICE_SIZE = 24

# Each run cycles through this many cohort sets, all derived from the workload
# seed: quality is pooled over them, and every later pass over a set must
# reproduce its artifacts byte for byte.
COHORT_SETS = 3

# The stages reported as end-to-end metrics; synth, evaluate and report take
# too little time to repeat steadily and are timed only as layers.
TIMED_STAGES = ("slice-train", "oof", "stack-train", "optimize", "slice-predict", "stack-apply")


@dataclass(frozen=True)
class Workload:
    name: str
    dominant: str           # layer predicted to lead self time in the timed part
    timed: tuple[str, ...]  # stages repeated in the timed loop; the rest run in set-up
    train_scans: int        # labelled cohort for slice-train, oof and stack-train
    folds: int
    stack_rounds: int
    incoming_scans: int     # disjoint cohort (seed + 1) for slice-predict and stack-apply
    budget: int             # optimize budget
    external_scans: int = 0  # > 0: optimize/evaluate/report read a synthetic external CSV
    published: bool = False  # evaluate at thresholds.PUBLISHED_THRESHOLDS, not optimized ones

    @property
    def main_cohort(self) -> str:
        """The cohort whose scans count towards scans_per_s."""
        if self.external_scans:
            return "external"
        return "incoming" if self.published else "train"


WORKLOADS = {w.name: w for w in (
    # GBDT training in all three growth modes; every training slice is
    # featurized about five times (slice-train plus three folds plus oof predict).
    Workload("train", dominant="gbdt.train",
             timed=("slice-train", "oof", "stack-train", "optimize", "slice-predict",
                    "stack-apply", "evaluate", "report"),
             train_scans=20, folds=4, stack_rounds=80, incoming_scans=12, budget=150),
    # Forest prediction on unseen scans: models are trained in set-up, the
    # timed part only reads them and featurizes each slice once.
    Workload("triage", dominant="gbdt.predict",
             timed=("slice-predict", "stack-apply", "evaluate", "report"),
             train_scans=20, folds=4, stack_rounds=60, incoming_scans=32, budget=150,
             published=True),
    # The GP-EI threshold search over an external model's probabilities; no
    # GBDT work in the timed part.
    Workload("threshold-search", dominant="thresholds.optimize",
             timed=("optimize", "evaluate", "report"),
             train_scans=16, folds=3, stack_rounds=40, incoming_scans=16, budget=100,
             external_scans=400),
)}


def cohort_seed(seed: int, cohort_set: int) -> int:
    """Synth seed of a cohort set; its cohorts use this seed plus 0, 1 and 2."""
    return 10 * (COHORT_SETS * seed + cohort_set)


@dataclass(frozen=True)
class Stage:
    name: str          # CLI subcommand
    key: str           # unique within a workload, e.g. "synth-train"
    argv: tuple[str, ...]
    output: Path       # file or directory the stage must produce
    cohort: str        # cohort the output describes, for coverage checks


@dataclass(frozen=True)
class Plan:
    stages: list[Stage]
    fit_cohort: str        # cohort optimize fits thresholds on
    fit_probs: Path
    judged_cohort: str     # cohort evaluate and report judge
    judged_probs: Path
    applied: Path          # thresholds evaluate and report apply


def cohort_dir(base: Path, cohort: str) -> Path:
    return base / f"cohort-{cohort}"


def plan(w: Workload, seed: int, base: Path) -> Plan:
    """The full stage chain of one iteration, in execution order, writing under ``base``."""
    def synth(cohort, scans, cohort_seed, *extra):
        out = cohort_dir(base, cohort)
        positives = TRAIN_POSITIVE_FRACTION if cohort == "train" else POSITIVE_FRACTION
        return Stage("synth", f"synth-{cohort}", (
            "--out", str(out), "--scans", str(scans), "--seed", str(cohort_seed),
            "--positive-fraction", str(positives),
            "--distractor-fraction", str(DISTRACTOR_FRACTION),
            "--slices-min", str(SLICES_PER_SCAN), "--slices-max", str(SLICES_PER_SCAN), *extra),
            out / "manifest.csv", cohort)

    def manifest(cohort):
        return str(cohort_dir(base, cohort) / "manifest.csv")

    train = cohort_dir(base, "train")
    slice_model = base / "slice_model.json"
    oof = base / "oof" / "oof_probs.csv"
    stacker = base / "stacker.json"
    thresholds = base / "thresholds.json"
    probs = base / "probs.csv"
    refined = base / "refined.csv"

    stages = [synth("train", w.train_scans, seed), synth("incoming", w.incoming_scans, seed + 1)]
    if w.external_scans:
        size = str(EXTERNAL_SLICE_SIZE)
        stages.append(synth("external", w.external_scans, seed + 2,
                            "--height", size, "--width", size))
        fit_cohort, fit_probs = "external", cohort_dir(base, "external") / EXTERNAL_PROBS
        judged_cohort, judged_probs = fit_cohort, fit_probs
    else:
        fit_cohort, fit_probs = "train", oof
        judged_cohort, judged_probs = ("incoming", refined) if w.published else ("train", oof)
    applied = base / PUBLISHED if w.published else thresholds
    labelled = ("--manifest", manifest("train"), "--slice-labels", str(train / "slice_labels.csv"))
    judged = ("--manifest", manifest(judged_cohort), "--probs", str(judged_probs),
              "--thresholds", str(applied))
    stages += [
        Stage("slice-train", "slice-train",
              labelled + ("--seed", str(seed), "--out", str(slice_model)), slice_model, "train"),
        Stage("oof", "oof", labelled + ("--folds", str(w.folds), "--seed", str(seed),
                                        "--out", str(oof.parent)), oof, "train"),
        Stage("stack-train", "stack-train", (
            "--oof", str(oof), "--slice-labels", str(train / "slice_labels.csv"),
            "--rounds", str(w.stack_rounds), "--seed", str(seed), "--out", str(stacker)),
            stacker, "train"),
        Stage("optimize", "optimize", (
            "--manifest", manifest(fit_cohort), "--probs", str(fit_probs),
            "--budget", str(w.budget), "--seed", str(seed), "--out", str(thresholds)),
            thresholds, fit_cohort),
        Stage("slice-predict", "slice-predict", (
            "--model", str(slice_model), "--manifest", manifest("incoming"),
            "--out", str(probs)), probs, "incoming"),
        Stage("stack-apply", "stack-apply", (
            "--model", str(stacker), "--probs", str(probs), "--out", str(refined)),
            refined, "incoming"),
        Stage("evaluate", "evaluate", judged + ("--out", str(base / "eval")),
              base / "eval" / "report.csv", judged_cohort),
        Stage("report", "report", judged + ("--out", str(base / "report")),
              base / "report", judged_cohort),
    ]
    return Plan(stages, fit_cohort, fit_probs, judged_cohort, judged_probs, applied)


EXTERNAL_PROBS = "external_probs.csv"  # written in set-up beside the external cohort
PUBLISHED = "published_thresholds.json"  # written in set-up
_EXTERNAL_BASE_LOGIT = -2.4
_EXTERNAL_SEPARATION = 1.8
_EXTERNAL_NOISE = 1.0


def write_external_probs(slice_labels: dict[str, np.ndarray], seed: int, path: Path) -> None:
    """A stand-in for an external per-slice model at the probability-CSV boundary.

    Probabilities are continuous, rise with the slice label and carry seeded
    noise, so positive and negative scans overlap.
    """
    rng = np.random.default_rng((seed, 7))
    lines = ["scan_id,slice_index,p_edh,p_sdh,p_sah,p_ivh,p_iph"]
    for scan_id in sorted(slice_labels):
        labels = slice_labels[scan_id]
        logits = (_EXTERNAL_BASE_LOGIT + _EXTERNAL_SEPARATION * labels
                  + rng.normal(0.0, _EXTERNAL_NOISE, size=labels.shape))
        probs = 1.0 / (1.0 + np.exp(-logits))
        for index, row in enumerate(probs):
            lines.append(",".join([scan_id, str(index)] + [repr(float(v)) for v in row]))
    path.write_text("\n".join(lines) + "\n")
