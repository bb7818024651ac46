"""Patient-grouped stratified fold assignment and out-of-fold prediction.

All scans sharing a patient id land in one fold, so no model ever predicts a
scan after seeing any scan of the same patient. Stratification is greedy:
patient groups are ordered by the global rarity of their rarest positive
label (then by how many of it they carry, then by size), and each group goes
to the fold that minimizes a summed squared imbalance over the label
columns (each type plus any) and the fold size, ties broken by fold index.
The seed only shuffles groups whose sort keys tie exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InfeasibleError, TrainingError
from .fileio import write_csv
from .parallel import fork_map
from .slicemodel import predict_by_scan
from .volume import NUM_TYPES

_FOLD_COLUMNS = ("scan_id", "patient_id", "fold")
_LABEL_COLUMNS = NUM_TYPES + 1  # every type plus "any"


@dataclass(frozen=True)
class FoldAssignment:
    k: int
    fold_of: dict[str, int]

    def __post_init__(self):
        if self.k < 2:
            raise ConfigError("fold count must be at least 2")
        for scan_id, fold in self.fold_of.items():
            if not 0 <= fold < self.k:
                raise ConfigError(f"scan {scan_id}: fold {fold} outside [0, {self.k})")


def assign_folds(rows, k: int, seed: int = 0) -> FoldAssignment:
    """Deterministic patient-grouped stratified assignment of manifest rows."""
    if k < 2:
        raise ConfigError(f"fold count must be at least 2, got {k}")
    rows = list(rows)
    groups: dict[str, list] = {}
    for row in rows:
        groups.setdefault(row.patient_id, []).append(row)
    if k > len(groups):
        raise InfeasibleError(f"cannot build {k} folds from {len(groups)} patient groups")

    patient_ids = sorted(groups)
    jitter = {pid: int(j) for pid, j in
              zip(patient_ids, np.random.default_rng(seed).permutation(len(patient_ids)))}

    counts = {}
    for pid in patient_ids:
        label_count = np.zeros(_LABEL_COLUMNS)
        for row in groups[pid]:
            vec = row.labels.vector()
            label_count[:NUM_TYPES] += vec
            label_count[NUM_TYPES] += vec.any()
        counts[pid] = label_count
    totals = sum(counts.values())

    def sort_key(pid):
        label_count = counts[pid]
        positive = np.nonzero(label_count[:NUM_TYPES])[0]
        if len(positive) == 0:
            return (1, 0.0, 0.0, -len(groups[pid]), jitter[pid])
        rarest = min(positive, key=lambda t: (totals[t], t))
        return (0, totals[rarest], -label_count[rarest], -len(groups[pid]), jitter[pid])

    fold_counts = np.zeros((k, _LABEL_COLUMNS))
    fold_sizes = np.zeros(k)
    group_fold: dict[str, int] = {}
    label_weight = 1.0 / np.maximum(totals, 1.0)  # rare labels dominate the score
    size_weight = 1.0 / len(rows)
    ordered = sorted(patient_ids, key=sort_key)
    for pid in ordered:
        label_count = counts[pid]
        size = len(groups[pid])
        # Marginal increase of the weighted summed squared fold loads: labels
        # the group does not carry contribute nothing, so positives
        # round-robin over the emptiest folds and sizes stay level.
        scores = ((2.0 * fold_counts * label_count + label_count ** 2) * label_weight).sum(axis=1)
        scores += (2.0 * fold_sizes * size + size ** 2) * size_weight
        best = int(np.argmin(scores))  # first minimum: lowest fold index wins ties
        fold_counts[best] += label_count
        fold_sizes[best] += size
        group_fold[pid] = best

    _repair_balance(ordered, groups, counts, group_fold, fold_counts, fold_sizes, totals, k)

    fold_of = {row.scan_id: group_fold[pid] for pid in patient_ids for row in groups[pid]}
    return FoldAssignment(k=k, fold_of=fold_of)


def _repair_balance(ordered, groups, counts, group_fold, fold_counts, fold_sizes, totals, k,
                    max_moves: int = 200) -> None:
    """Move one whole patient group, or swap two, between folds while that
    strictly shrinks per-label deviations beyond the largest single group's
    contribution; each step takes the first best candidate, moves before swaps.

    The greedy alone can trade one label's balance for another's on
    multi-label groups; this deterministic best-improvement pass cleans up
    the (rare, small) overshoots.
    """
    ideal = totals / k
    group_max = np.max([counts[pid] for pid in ordered], axis=0)
    size_max = max(len(groups[pid]) for pid in ordered)
    ideal_size = fold_sizes.sum() / k

    def violation(fc, fs):
        over = np.maximum(0.0, np.abs(fc - ideal) - group_max).sum()
        return over + np.maximum(0.0, np.abs(fs - ideal_size) - size_max).sum()

    def moved(move):
        """Fold counts and sizes after ``move``, a tuple of (pid, target) pairs."""
        trial_counts, trial_sizes = fold_counts.copy(), fold_sizes.copy()
        for pid, target in move:
            source = group_fold[pid]
            trial_counts[source] -= counts[pid]
            trial_counts[target] += counts[pid]
            trial_sizes[source] -= len(groups[pid])
            trial_sizes[target] += len(groups[pid])
        return trial_counts, trial_sizes

    def candidates():
        for pid in ordered:
            for target in range(k):
                if target != group_fold[pid]:
                    yield ((pid, target),)
        # Swapping two groups sidesteps the size bound that blocks plain moves.
        for i, pid_a in enumerate(ordered):
            for pid_b in ordered[i + 1:]:
                if group_fold[pid_a] != group_fold[pid_b]:
                    yield ((pid_a, group_fold[pid_b]), (pid_b, group_fold[pid_a]))

    for _ in range(max_moves):
        best_value = violation(fold_counts, fold_sizes)
        if best_value <= 1e-9:
            return
        best_move = None
        for move in candidates():
            value = violation(*moved(move))
            if value < best_value - 1e-12:
                best_value, best_move = value, move
        if best_move is None:
            return
        fold_counts[:], fold_sizes[:] = moved(best_move)
        for pid, target in best_move:
            group_fold[pid] = target


def generate_oof(features_by_scan, labels_by_scan, assignment: FoldAssignment,
                 train_fn) -> dict[str, np.ndarray]:
    """Out-of-fold per-slice probabilities for every scan.

    ``features_by_scan`` and ``labels_by_scan`` map each scan to its per-slice
    feature and label matrices. For each fold, ``train_fn(X, Y)`` fits a model
    (the CLI's is a one-group ``gbdt.GbdtEnsemble``) on the rows of the other
    folds' scans (concatenated in input order) and its ``predict`` scores the
    held-out scans in one call, so every prediction comes from a model that
    never saw that scan's fold.

    The folds run side by side, one forked worker per usable CPU
    (``parallel.fork_map``). ``train_fn`` runs in a worker: its side effects
    do not reach the caller, but the predictions, its warnings and its
    exceptions do.
    """
    scan_ids = list(features_by_scan)
    missing = [scan_id for scan_id in scan_ids if scan_id not in assignment.fold_of]
    if missing:
        raise ConfigError(f"scans without a fold assignment: {missing[:5]}")
    jobs = []  # (training scans, held-out scans) of each fold that holds scans
    for fold in range(assignment.k):
        held_out = [scan_id for scan_id in scan_ids if assignment.fold_of[scan_id] == fold]
        if not held_out:
            continue
        train_ids = [scan_id for scan_id in scan_ids if assignment.fold_of[scan_id] != fold]
        if not train_ids:
            raise TrainingError(f"fold {fold} leaves no training scans")
        jobs.append((train_ids, held_out))

    def run_fold(job: int) -> dict[str, np.ndarray]:
        train_ids, held_out = jobs[job]
        model = train_fn(np.concatenate([features_by_scan[s] for s in train_ids]),
                         np.concatenate([labels_by_scan[s] for s in train_ids]))
        return predict_by_scan(model.predict,
                               {scan_id: features_by_scan[scan_id] for scan_id in held_out})

    out: dict[str, np.ndarray] = {}
    for predictions in fork_map(run_fold, len(jobs)):
        out.update(predictions)
    return {scan_id: out[scan_id] for scan_id in scan_ids}


def save_fold_csv(rows, assignment: FoldAssignment, path) -> None:
    write_csv(path, _FOLD_COLUMNS,
              ([row.scan_id, row.patient_id, assignment.fold_of[row.scan_id]] for row in rows))
