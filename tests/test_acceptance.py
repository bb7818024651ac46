"""Acceptance suite: one test per criterion, each printing a PASS line and
enforcing its stated tolerance and runtime budget.

Criterion 1 replays the published per-type confusion tables. Five published
percentage cells are arithmetically inconsistent with their own row counts;
four of them match exactly under round-half-up at two decimals followed by
one (a double-rounding artifact), and one (test-set EDH sensitivity) has no
rounding path at all from its counts (5/23 = 21.74%, published 21.5). Those
cells are pinned to their exact recomputed values instead of the published
numbers; everything else must match to +-0.05 after one-decimal rounding.
"""

import time
import warnings
from decimal import ROUND_HALF_UP, Decimal
from fractions import Fraction

import numpy as np

from hemtriage import folds, gbdt, slicemodel, stacker, synth
from hemtriage.cli import main as cli_main
from hemtriage.metrics import binomial_ci, compute_auc, compute_metrics, ConfusionMatrix, log_loss
from hemtriage.slicemodel import predict_by_scan, volume_features
from hemtriage.thresholds import aggregate_scan, binarize_slice, optimize_thresholds, ThresholdSet
from hemtriage.volume import DEFAULT_WINDOWS, ManifestRow, ScanLabels

from conftest import MemorizingClassifier
from test_gbdt import tree_values
from test_metrics import brute_force_auc
from test_thresholds import grid_oracle, validation_scans

STATS = ("sen", "spec", "ppv", "npv", "acc", "bacc", "mcc", "f1")


def criterion(number, name):
    """Print one PASS/FAIL line per criterion; the wrapped test returns its
    detail string and raises AssertionError on failure as usual."""
    def wrap(fn):
        import functools

        @functools.wraps(fn)
        def inner(*args, **kwargs):
            try:
                detail = fn(*args, **kwargs)
            except AssertionError as exc:
                print(f"\nACCEPTANCE {number} ({name}): FAIL - {exc}")
                raise
            print(f"\nACCEPTANCE {number} ({name}): PASS [{detail}]")
        return inner
    return wrap

# (tp, fn, tn, fp) and published percents in STATS order.
TEST_TABLE = {
    "edh": ((5, 18, 3493, 2), (21.5, 99.9, 71.4, 99.5, 99.4, 60.8, 39.2, 33.3)),
    "sdh": ((424, 79, 2969, 46), (84.3, 98.5, 90.2, 97.4, 96.5, 91.4, 85.2, 87.2)),
    "sah": ((406, 122, 2952, 38), (76.9, 98.7, 91.4, 96.0, 95.5, 87.8, 81.3, 83.5)),
    "ivh": ((574, 42, 2869, 33), (93.2, 98.9, 94.6, 98.6, 97.9, 96.0, 92.6, 93.9)),
    "iph": ((713, 45, 2713, 47), (94.1, 98.3, 93.8, 98.4, 97.4, 96.2, 92.3, 93.9)),
    "any": ((1228, 15, 2230, 45), (98.8, 98.0, 96.5, 99.3, 98.3, 98.4, 96.3, 97.6)),
}
EXTERNAL_TABLE = {
    "edh": ((7, 18, 5926, 14), (28.0, 99.8, 33.3, 99.7, 99.5, 63.9, 30.3, 30.4)),
    "sdh": ((329, 38, 5429, 169), (89.7, 97.0, 66.1, 99.3, 96.5, 93.3, 75.3, 76.1)),
    "sah": ((246, 42, 5508, 169), (85.4, 97.0, 59.3, 99.2, 96.5, 91.2, 69.5, 70.0)),
    "ivh": ((112, 16, 5769, 68), (87.5, 98.8, 62.2, 99.7, 98.6, 93.2, 73.1, 72.7)),
    "iph": ((256, 31, 5489, 189), (89.2, 96.7, 57.5, 99.4, 96.3, 92.9, 69.9, 70.0)),
    "any": ((615, 59, 4978, 313), (91.3, 94.1, 66.3, 98.8, 93.8, 92.7, 74.5, 76.8)),
}

# Cells whose published value cannot be reproduced from the row's own counts.
# "double_round": published == half-up(half-up(x, 2 dp), 1 dp) exactly.
# "typo": no rounding path; the exact recomputed one-decimal value is pinned.
ERRATA = {
    ("test", "edh", "sen"): ("typo", 21.7),
    ("test", "sdh", "acc"): ("double_round", None),
    ("external", "sdh", "sen"): ("double_round", None),
    ("external", "iph", "f1"): ("double_round", None),
    ("external", "any", "sen"): ("double_round", None),
}


def exact_percent(table_name, label, stat, counts) -> Fraction:
    tp, fn, tn, fp = (Fraction(c) for c in counts)
    if stat == "sen":
        value = tp / (tp + fn)
    elif stat == "acc":
        value = (tp + tn) / (tp + fn + tn + fp)
    elif stat == "f1":
        value = 2 * tp / (2 * tp + fp + fn)
    else:
        raise AssertionError(f"errata only covers rational cells, not {stat}")
    return value * 100


def half_up(value: Decimal, places: str) -> Decimal:
    return value.quantize(Decimal(places), rounding=ROUND_HALF_UP)


@criterion(1, "table replay, 96 cells, 5 via documented errata")
def test_acceptance_1_table_replay():
    start = time.time()
    checked = 0
    for table_name, table in (("test", TEST_TABLE), ("external", EXTERNAL_TABLE)):
        for label, (counts, published) in table.items():
            stats = compute_metrics(ConfusionMatrix(*counts))
            for stat, target in zip(STATS, published):
                computed = getattr(stats, stat)
                assert computed is not None, (table_name, label, stat)
                erratum = ERRATA.get((table_name, label, stat))
                if erratum is None:
                    assert abs(round(100 * computed, 1) - target) <= 0.05 + 1e-9, \
                        (table_name, label, stat, 100 * computed, target)
                elif erratum[0] == "double_round":
                    exact = exact_percent(table_name, label, stat, counts)
                    doubled = half_up(half_up(Decimal(exact.numerator) / Decimal(exact.denominator),
                                              "0.01"), "0.1")
                    assert float(doubled) == target, (table_name, label, stat)
                    # and our value agrees with the exact fraction
                    assert abs(100 * computed - float(exact)) < 1e-9
                else:  # typo: pin the recomputed value
                    assert round(100 * computed, 1) == erratum[1], (table_name, label, stat)
                checked += 1
    elapsed = time.time() - start
    assert checked == 96 and elapsed < 1.0
    return f"{elapsed:.3f}s"


@criterion(2, "CI replay, 6 half-widths within 0.01pp")
def test_acceptance_2_ci_replay():
    start = time.time()
    published = {"edh": (63.9, 1.22), "sdh": (93.3, 0.63), "sah": (91.2, 0.72),
                 "ivh": (93.2, 0.64), "iph": (92.9, 0.65), "any": (92.7, 0.66)}
    for label, (bacc_pct, half_width_pct) in published.items():
        half_width = 100 * binomial_ci(bacc_pct / 100.0, 5965)
        assert abs(half_width - half_width_pct) <= 0.01, (label, half_width)
    elapsed = time.time() - start
    assert elapsed < 1.0
    return f"{elapsed:.3f}s"


@criterion(3, "AUC equals brute-force pair counting, 1000 sets")
def test_acceptance_3_auc_oracle():
    start = time.time()
    rng = np.random.default_rng(2024)
    trials = 0
    while trials < 1000:
        n = int(rng.integers(2, 201))
        scores = rng.integers(0, int(rng.integers(2, 30)), n) / 29.0  # heavy ties
        labels = rng.random(n) < rng.uniform(0.1, 0.9)
        if labels.all() or not labels.any():
            continue
        fast = compute_auc(scores, labels)
        brute = brute_force_auc(scores, labels)
        assert fast == brute or abs(fast - brute) < 1e-12, (trials, fast, brute)
        trials += 1
    elapsed = time.time() - start
    assert elapsed < 10.0
    return f"{elapsed:.1f}s"


@criterion(4, "GBDT: XOR < 0.05, monotone loss, determinism")
def test_acceptance_4_gbdt_properties():
    start = time.time()
    X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    y = np.array([0.0, 1.0, 1.0, 0.0])

    # XOR training loss below 0.05 within 50 rounds.
    config = gbdt.GbdtConfig(rounds=50, learning_rate=0.5, l2_reg=0.1,
                             growth="depthwise", max_depth=2, max_leaves=4)
    model = gbdt.train(X, y, config)
    assert len(model.trees) <= 50
    xor_loss = log_loss(gbdt.predict(model, X), y)
    assert xor_loss < 0.05

    # Non-increasing training loss with full sampling and lr <= 0.1.
    rng = np.random.default_rng(8)
    Xr = rng.random((200, 6))
    yr = ((Xr[:, 0] + 0.6 * Xr[:, 1] + rng.normal(0, 0.25, 200)) > 0.9).astype(float)
    for growth, extra in (("leafwise", {}), ("depthwise", {"max_depth": 4}),
                          ("oblivious", {"max_depth": 4})):
        cfg = gbdt.GbdtConfig(rounds=40, learning_rate=0.1, l2_reg=1.0, growth=growth,
                              max_leaves=15, **extra)
        trained = gbdt.train(Xr, yr, cfg)
        margins = np.full(len(yr), trained.base_score)
        previous = log_loss(gbdt._sigmoid(margins), yr)
        for tree in trained.trees:
            margins += tree_values(tree, Xr)
            current = log_loss(gbdt._sigmoid(margins), yr)
            assert current <= previous + 1e-12, growth
            previous = current

    # Training twice on the same inputs gives identical models.
    cfg = gbdt.GbdtConfig(rounds=20, growth="leafwise")
    a = gbdt.train(Xr, yr, cfg)
    b = gbdt.train(Xr, yr, cfg)
    probe = rng.random((50, 6))
    assert np.array_equal(gbdt.predict(a, probe), gbdt.predict(b, probe))
    assert all(np.array_equal(ta.value, tb.value) and np.array_equal(ta.feature, tb.feature)
               for ta, tb in zip(a.trees, b.trees))

    elapsed = time.time() - start
    assert elapsed < 30.0
    return f"xor loss {xor_loss:.4f}, {elapsed:.1f}s"


@criterion(5, "stacker benefit >= 0.02 scan-level any-type AUC")
def test_acceptance_5_stacker_benefit():
    start = time.time()
    config = synth.SynthConfig(num_scans=340, seed=11, distractor_fraction=0.45,
                               noise_sigma=5.0, slices_min=10, slices_max=16)
    dataset = synth.generate(config)

    patients = sorted({v.patient_id for v in dataset.volumes})
    rng = np.random.default_rng(0)
    eval_patients = set(rng.choice(patients, size=int(len(patients) * 0.30), replace=False))
    dev = [v for v in dataset.volumes if v.patient_id not in eval_patients]
    holdout = [v for v in dataset.volumes if v.patient_id in eval_patients]

    labels_by_scan = {v.scan_id: dataset.slice_labels[v.scan_id] for v in dev}
    rows = [ManifestRow(v.scan_id, v.patient_id, "x",
                        ScanLabels.from_vector(labels_by_scan[v.scan_id].any(axis=0)))
            for v in dev]
    assignment = folds.assign_folds(rows, k=4, seed=0)
    features_by_scan = {v.scan_id: volume_features(v, DEFAULT_WINDOWS) for v in dev}

    def train_fn(X, Y):
        return gbdt.train_ensemble(X, Y, (slicemodel.DEFAULT_REFERENCE_CONFIG,))

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        oof = folds.generate_oof(features_by_scan, labels_by_scan, assignment, train_fn)
        ensemble = stacker.train_stacker(oof, labels_by_scan, delta_s=2,
                                         configs=gbdt.default_presets(rounds=100))
        full_model = train_fn(np.concatenate(list(features_by_scan.values())),
                              np.concatenate(list(labels_by_scan.values())))

    probs_eval = predict_by_scan(full_model.predict,
                                 {v.scan_id: volume_features(v, DEFAULT_WINDOWS) for v in holdout})
    refined_eval = stacker.apply_stacker_all(ensemble, probs_eval, 2)
    truth = np.array([dataset.slice_labels[v.scan_id].any() for v in holdout])
    raw_scores = np.array([aggregate_scan(probs_eval[v.scan_id]).max() for v in holdout])
    stacked_scores = np.array([aggregate_scan(refined_eval[v.scan_id]).max() for v in holdout])
    raw_auc = compute_auc(raw_scores, truth)
    stacked_auc = compute_auc(stacked_scores, truth)

    elapsed = time.time() - start
    assert stacked_auc - raw_auc >= 0.02, (raw_auc, stacked_auc)
    assert elapsed < 300.0
    return (f"raw {raw_auc:.3f} -> stacked {stacked_auc:.3f}, "
            f"gain {stacked_auc - raw_auc:+.3f}, {elapsed:.0f}s")


@criterion(6, "optimizer within 0.005 of grid oracle, budget 150")
def test_acceptance_6_threshold_optimizer_vs_grid_oracle():
    start = time.time()
    vectors, labels = validation_scans(7 * 13 + 7)  # 200-scan synthetic validation set
    oracle_value, _ = grid_oracle(vectors, labels, step=0.01)
    _, achieved = optimize_thresholds(vectors, labels, objective="any_bacc",
                                      budget=150, seed=0)
    elapsed = time.time() - start
    assert achieved >= oracle_value - 0.005, (achieved, oracle_value)
    assert elapsed < 120.0
    return (f"achieved {achieved:.4f} vs oracle {oracle_value:.4f}, "
            f"gap {oracle_value - achieved:+.4f}, {elapsed:.0f}s")


@criterion(7, "leakage sentinel: out-of-fold memorizer below 100%")
def test_acceptance_7_leakage_sentinel():
    start = time.time()
    config = synth.SynthConfig(num_scans=24, positive_fraction=(0.1,) * 5,
                               slices_min=6, slices_max=9, seed=21)
    dataset = synth.generate(config)
    volumes = dataset.volumes
    labels_by_scan = dataset.slice_labels
    rows = [ManifestRow(v.scan_id, v.patient_id, "x",
                        ScanLabels.from_vector(labels_by_scan[v.scan_id].any(axis=0)))
            for v in volumes]
    assignment = folds.assign_folds(rows, k=4, seed=0)

    def scan_decisions(probs_by_scan):
        half = ThresholdSet(*(0.5,) * 5)
        return np.array([binarize_slice(aggregate_scan(probs_by_scan[v.scan_id]), half)[1]
                         for v in volumes])

    truth = np.array([labels_by_scan[v.scan_id].any() for v in volumes])

    features_by_scan = {v.scan_id: volume_features(v, DEFAULT_WINDOWS) for v in volumes}

    # In-fold: the memorizer saw every scan, so it is perfect by construction.
    in_fold = MemorizingClassifier(np.concatenate(list(features_by_scan.values())),
                                   np.concatenate(list(labels_by_scan.values())))
    in_probs = predict_by_scan(in_fold.predict, features_by_scan)
    in_accuracy = float((scan_decisions(in_probs) == truth).mean())
    assert in_accuracy == 1.0

    # Out-of-fold: fold isolation forces it back to guessing.
    oof = folds.generate_oof(features_by_scan, labels_by_scan, assignment,
                             MemorizingClassifier)
    oof_accuracy = float((scan_decisions(oof) == truth).mean())
    elapsed = time.time() - start
    assert oof_accuracy < 1.0
    assert elapsed < 60.0
    return f"in-fold {in_accuracy:.2f}, out-of-fold {oof_accuracy:.2f}, {elapsed:.0f}s"


def run_cli_pipeline(root):
    data = root / "data"
    manifest = str(data / "manifest.csv")
    slice_labels = str(data / "slice_labels.csv")
    steps = [
        ["synth", "--out", str(data), "--scans", "36", "--seed", "9",
         "--positive-fraction", "0.5", "--slices-min", "6", "--slices-max", "9",
         "--distractor-fraction", "0.3"],
        ["slice-train", "--manifest", manifest, "--slice-labels", slice_labels,
         "--rounds", "25", "--seed", "2", "--out", str(root / "slice_model.json")],
        ["slice-predict", "--model", str(root / "slice_model.json"), "--manifest", manifest,
         "--out", str(root / "probs.csv")],
        ["oof", "--manifest", manifest, "--slice-labels", slice_labels, "--folds", "3",
         "--rounds", "25", "--seed", "2", "--out", str(root / "oof")],
        ["stack-train", "--oof", str(root / "oof" / "oof_probs.csv"),
         "--slice-labels", slice_labels, "--delta-s", "2", "--rounds", "30",
         "--seed", "2", "--out", str(root / "stacker.json")],
        ["stack-apply", "--model", str(root / "stacker.json"),
         "--probs", str(root / "oof" / "oof_probs.csv"), "--out", str(root / "refined.csv")],
        ["optimize", "--manifest", manifest, "--probs", str(root / "refined.csv"),
         "--budget", "60", "--seed", "2", "--out", str(root / "thresholds.json")],
        ["evaluate", "--manifest", manifest, "--probs", str(root / "refined.csv"),
         "--thresholds", str(root / "thresholds.json"), "--out", str(root / "eval")],
        ["report", "--manifest", manifest, "--probs", str(root / "refined.csv"),
         "--thresholds", str(root / "thresholds.json"), "--out", str(root / "report")],
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for argv in steps:
            assert cli_main(argv) == 0, argv


@criterion(8, "end-to-end determinism, byte-identical artifacts")
def test_acceptance_8_end_to_end_determinism(tmp_path):
    start = time.time()
    first = tmp_path / "run1"
    second = tmp_path / "run2"
    run_cli_pipeline(first)
    run_cli_pipeline(second)

    first_files = sorted(p.relative_to(first) for p in first.rglob("*") if p.is_file())
    second_files = sorted(p.relative_to(second) for p in second.rglob("*") if p.is_file())
    assert first_files == second_files and len(first_files) > 20
    for rel in first_files:
        assert (first / rel).read_bytes() == (second / rel).read_bytes(), rel
    elapsed = time.time() - start
    assert elapsed < 600.0
    return f"{len(first_files)} artifacts, {elapsed:.0f}s"


@criterion(9, "binarize-then-OR equals max-then-binarize, 1000 scans")
def test_acceptance_9_decision_rule_equivalence():
    start = time.time()
    rng = np.random.default_rng(77)
    for _ in range(1000):
        num_slices = int(rng.integers(1, 15))
        rows = rng.random((num_slices, 5))
        thresholds = ThresholdSet(*rng.uniform(0.01, 1.0, 5))
        per_slice_flags, _ = binarize_slice(rows, thresholds)
        or_decision = per_slice_flags.any(axis=0)
        max_decision, _ = binarize_slice(aggregate_scan(rows), thresholds)
        assert np.array_equal(or_decision, max_decision)
    elapsed = time.time() - start
    assert elapsed < 5.0
    return f"{elapsed:.1f}s"
