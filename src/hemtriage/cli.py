"""Command-line orchestration of the triage pipeline.

Subcommands cover the full chain: synth, slice-train, slice-predict, oof,
stack-train, stack-apply, optimize, evaluate, report. Every output goes
through an atomic write, all randomness flows from explicit --seed flags, and
a command exits 0 only when every declared output was produced.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from . import folds, gbdt, metrics, slicemodel, stacker, svgplots, synth, thresholds
from .errors import ArityError, ConfigError, PipelineError
from .fileio import atomic_write_text, parse_flags, read_scan_table, write_csv
from .volume import (HEMORRHAGE_TYPES, NUM_TYPES, WindowSpec, check_manifest_coverage,
                     load_manifest, load_manifest_volumes, load_slice_labels, slice_truth)

_DECISION_COLUMNS = ("scan_id",) + HEMORRHAGE_TYPES


def _parse_windows(text: str) -> tuple[WindowSpec, ...]:
    try:
        specs = tuple(WindowSpec(*(float(part) for part in chunk.split(":")))
                      for chunk in text.split(","))
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"cannot parse --windows {text!r}: {exc}") from exc
    if len(specs) != 3:
        raise ConfigError("--windows needs exactly three center:width pairs")
    return specs


def _manifest_truths(rows) -> np.ndarray:
    return np.array([row.labels.vector() for row in rows], dtype=bool)


def _scan_scores(rows, probs_path) -> np.ndarray:
    """Scan-level probabilities in manifest order; the probability CSV must
    cover exactly the manifest's scans."""
    probs_by_scan = slicemodel.load_slice_probs(probs_path)
    check_manifest_coverage(probs_path, "probability CSV", probs_by_scan, rows)
    return np.array([thresholds.aggregate_scan(probs_by_scan[row.scan_id]) for row in rows])


def cmd_synth(args) -> None:
    config = synth.SynthConfig(
        num_scans=args.scans,
        positive_fraction=tuple(args.positive_fraction / NUM_TYPES for _ in range(NUM_TYPES)),
        slices_min=args.slices_min,
        slices_max=args.slices_max,
        height=args.height,
        width=args.width,
        noise_sigma=args.noise_sigma,
        distractor_fraction=args.distractor_fraction,
        paired_scan_fraction=args.paired_fraction,
        seed=args.seed,
    )
    dataset = synth.generate(config)
    paths = synth.write_dataset(dataset, args.out)
    positives = sum(1 for matrix in dataset.slice_labels.values() if matrix.any())
    print(f"wrote {len(dataset.volumes)} scans ({positives} positive) under {args.out}")
    print(f"manifest: {paths['manifest']}")


def _reference_config(rounds):
    config = slicemodel.DEFAULT_REFERENCE_CONFIG
    if rounds is not None:
        config = dataclasses.replace(config, rounds=rounds)
    return config


def _volume_features(volumes, windows) -> dict[str, np.ndarray]:
    return {v.scan_id: slicemodel.volume_features(v, windows) for v in volumes}


def _slice_shape(source, volumes, shape=None) -> tuple[int, int]:
    """The (height, width) of every volume's slices, which must equal
    ``shape`` when given (a slice model's) and else the first volume's: the
    histogram features count pixels, so one model reads one slice shape."""
    shape = shape or (volumes[0].height, volumes[0].width)
    for volume in volumes:
        if (volume.height, volume.width) != shape:
            raise ConfigError(f"{source}: scan {volume.scan_id} has {volume.height}x"
                              f"{volume.width} slices, expected {shape[0]}x{shape[1]}")
    return shape


def cmd_slice_train(args) -> None:
    windows = _parse_windows(args.windows)
    rows, volumes = load_manifest_volumes(args.manifest, args.volumes)
    truth = slice_truth(rows, {v.scan_id: v.num_slices for v in volumes}, args.slice_labels)
    shape = _slice_shape(args.manifest, volumes)
    features = np.concatenate(list(_volume_features(volumes, windows).values()))
    labels = np.concatenate(list(truth.values()))
    config = _reference_config(args.rounds)
    ensemble = gbdt.train_ensemble(features, labels, (config,))
    identity = f"reference-gbdt-v1(rounds={config.rounds},seed={args.seed})"
    slicemodel.save_slice_model(ensemble, identity, slicemodel.SliceInput(windows, shape),
                                args.out)
    print(f"trained {identity} on {features.shape[0]} slices -> {args.out}")


def cmd_slice_predict(args) -> None:
    ensemble, expected = slicemodel.load_slice_model(args.model)
    _, volumes = load_manifest_volumes(args.manifest, args.volumes)
    _slice_shape(args.model, volumes, expected.shape)
    probs = slicemodel.predict_by_scan(ensemble.predict,
                                       _volume_features(volumes, expected.windows))
    slicemodel.save_slice_probs(probs, args.out)
    print(f"predicted {sum(p.shape[0] for p in probs.values())} slices -> {args.out}")


def cmd_oof(args) -> None:
    windows = _parse_windows(args.windows)
    rows, volumes = load_manifest_volumes(args.manifest, args.volumes)
    truth = slice_truth(rows, {v.scan_id: v.num_slices for v in volumes}, args.slice_labels)
    _slice_shape(args.manifest, volumes)
    assignment = folds.assign_folds(rows, args.folds, seed=args.seed)
    config = _reference_config(args.rounds)
    oof = folds.generate_oof(_volume_features(volumes, windows), truth, assignment,
                             lambda X, Y: gbdt.train_ensemble(X, Y, (config,)))
    out_dir = Path(args.out)
    folds.save_fold_csv(rows, assignment, out_dir / "folds.csv")
    slicemodel.save_slice_probs(oof, out_dir / "oof_probs.csv")
    print(f"{args.folds}-fold out-of-fold predictions -> {out_dir / 'oof_probs.csv'}")


def _check_oof_slice_labels(oof_path, probs, labels_path, labels) -> None:
    """The slice label CSV must label every slice of every OOF scan."""
    missing = [scan_id for scan_id in probs if scan_id not in labels]
    if missing:
        raise ConfigError(f"{labels_path}: slice label CSV lacks {len(missing)} scans of "
                          f"the OOF CSV {oof_path}: {missing[:5]}")
    for scan_id, rows in probs.items():
        if rows.shape[0] != labels[scan_id].shape[0]:
            raise ArityError(f"scan {scan_id}: {rows.shape[0]} slices in the OOF CSV {oof_path} "
                             f"vs {labels[scan_id].shape[0]} in {labels_path}")


def cmd_stack_train(args) -> None:
    if args.slice_labels is not None and args.manifest is not None:
        raise ConfigError("stack-train takes --slice-labels or --manifest, not both")
    probs = slicemodel.load_slice_probs(args.oof)
    if args.slice_labels is not None:
        labels = load_slice_labels(args.slice_labels)
        _check_oof_slice_labels(args.oof, probs, args.slice_labels, labels)
    elif args.manifest is not None:
        rows = load_manifest(args.manifest)
        check_manifest_coverage(args.oof, "OOF CSV", probs, rows, complete=False)
        labels = slice_truth([row for row in rows if row.scan_id in probs],
                             {scan_id: slices.shape[0] for scan_id, slices in probs.items()})
    else:
        raise ConfigError("stack-train needs --slice-labels or --manifest")
    presets = gbdt.default_presets(rounds=args.rounds)
    ensemble = stacker.train_stacker(probs, labels, args.delta_s, presets)
    stacker.save_stacker_model(ensemble, args.delta_s, args.out)
    print(f"stacker (delta_s={args.delta_s}, {len(presets)} presets) -> {args.out}")


def cmd_stack_apply(args) -> None:
    ensemble, stored_delta_s = stacker.load_stacker_model(args.model)
    if args.delta_s is not None and args.delta_s != stored_delta_s:
        raise ConfigError(f"--delta-s {args.delta_s} does not match the model's "
                          f"delta_s={stored_delta_s}")
    probs = slicemodel.load_slice_probs(args.probs)
    refined = stacker.apply_stacker_all(ensemble, probs, stored_delta_s)
    slicemodel.save_slice_probs(refined, args.out)
    print(f"refined {len(refined)} scans -> {args.out}")


def cmd_optimize(args) -> None:
    rows = load_manifest(args.manifest)
    vectors = _scan_scores(rows, args.probs)
    truths = _manifest_truths(rows)
    best, achieved = thresholds.optimize_thresholds(
        vectors, truths, objective=args.objective, budget=args.budget, seed=args.seed)
    thresholds.save_thresholds(best, args.out)
    print(f"best {args.objective}={achieved:.4f} at "
          f"{[round(float(v), 4) for v in best.as_array()]} -> {args.out}")


def _load_decisions(path, rows) -> np.ndarray:
    scan_ids, _, flags = read_scan_table(path, _DECISION_COLUMNS, parse_flags, "decisions CSV")
    check_manifest_coverage(path, "decisions CSV", scan_ids, rows)
    position = dict(zip(scan_ids, range(len(scan_ids))))
    return flags[[position[row.scan_id] for row in rows]]


def cmd_evaluate(args) -> None:
    rows = load_manifest(args.manifest)
    truths = _manifest_truths(rows)
    if (args.decisions is None) == (args.probs is None):
        raise ConfigError("evaluate needs exactly one of --probs or --decisions")
    if args.decisions is not None and args.thresholds is not None:
        raise ConfigError("evaluate --decisions reads no --thresholds: give one or the other")
    if args.decisions is not None:
        decisions = _load_decisions(args.decisions, rows)
        scores = None
    else:
        if args.thresholds is None:
            raise ConfigError("--probs evaluation needs --thresholds")
        threshold_set = thresholds.load_thresholds(args.thresholds)
        scores = _scan_scores(rows, args.probs)
        decisions, _ = thresholds.binarize_slice(scores, threshold_set)
    report = metrics.build_report(decisions, truths, scores)
    out_dir = Path(args.out)
    metrics.save_report(report, out_dir / "report.csv", out_dir / "report.txt")
    any_row = report["any"]
    print(f"any-type: tp={any_row.cm.tp} fn={any_row.cm.fn} tn={any_row.cm.tn} "
          f"fp={any_row.cm.fp} -> {out_dir / 'report.csv'}")


def cmd_report(args) -> None:
    rows = load_manifest(args.manifest)
    truths = _manifest_truths(rows)
    threshold_set = thresholds.load_thresholds(args.thresholds)
    scores = _scan_scores(rows, args.probs)
    decisions, _ = thresholds.binarize_slice(scores, threshold_set)
    out_dir = Path(args.out)
    label_decisions, label_truths, label_scores = metrics.report_columns(decisions, truths,
                                                                         scores)
    label_thresholds = dict(zip(HEMORRHAGE_TYPES, threshold_set.as_array()))

    _write_roc(out_dir, label_scores, label_truths)
    _write_cumulative(out_dir, label_decisions, label_truths)
    _write_boxplots(out_dir, label_scores, label_truths, label_thresholds)
    _write_ci_summary(out_dir, metrics.build_report(decisions, truths, scores))
    print(f"report artifacts -> {out_dir}")


def _write_roc(out_dir, label_scores, label_truths) -> None:
    """One curve per label whose truths hold both classes."""
    series = []
    for label in metrics.REPORT_LABELS:
        points = metrics.roc_points(label_scores[label], label_truths[label])
        if points is not None:
            series.append((label, points[:, 0], points[:, 1]))
    write_csv(out_dir / "roc_curves.csv", ("label", "fpr", "tpr"),
              ((label, fpr, tpr) for label, fprs, tprs in series
               for fpr, tpr in zip(fprs.tolist(), tprs.tolist())))
    svg = svgplots.line_chart(series, title="Receiver operating curves",
                              x_label="false positive rate", y_label="true positive rate",
                              x_range=(0.0, 1.0), y_range=(0.0, 1.0), diagonal=True)
    atomic_write_text(out_dir / "roc_curves.svg", svg)


def _write_cumulative(out_dir, label_decisions, label_truths) -> None:
    rows = []
    for label in metrics.REPORT_LABELS:
        curves = metrics.cumulative_curves(label_decisions[label], label_truths[label])
        count = len(curves.decision_curve)
        rows.extend(zip([label] * count, range(count), curves.decision_curve.tolist(),
                        curves.truth_curve.tolist()))
        index = np.arange(1, count + 1)
        svg = svgplots.line_chart(
            [("prediction", index, curves.decision_curve),
             ("ground truth", index, curves.truth_curve, True)],
            title=f"Cumulative positive cases: {label} "
                  f"(net {curves.final_difference:+d}, disagreements {curves.disagreements})",
            x_label="scans in review order", y_label="cumulative positives")
        atomic_write_text(out_dir / f"cumulative_{label}.svg", svg)
    write_csv(out_dir / "cumulative_curves.csv",
              ("label", "scan_index", "prediction_cumulative", "truth_cumulative"), rows)


def _write_boxplots(out_dir, label_scores, label_truths, label_thresholds) -> None:
    """One box per label and truth class that holds any scan."""
    rows = []
    groups = []
    for label in metrics.REPORT_LABELS:
        by_class = metrics.boxplot_stats_by_class(label_scores[label], label_truths[label])
        for truth_class, stats in by_class.items():
            if stats is None:
                continue
            rows.append((label, truth_class, repr(stats.median), repr(stats.q1),
                         repr(stats.q3), repr(stats.whisker_low),
                         repr(stats.whisker_high), len(stats.outliers)))
            marker = label_thresholds.get(label)
            groups.append((f"{label}{'+' if truth_class else '-'}", stats, marker))
    write_csv(out_dir / "boxplot_stats.csv",
              ("label", "truth_class", "median", "q1", "q3",
               "whisker_low", "whisker_high", "num_outliers"), rows)
    svg = svgplots.box_chart(groups, title="Predicted probability by truth class",
                             y_label="probability")
    atomic_write_text(out_dir / "boxplot.svg", svg)


def _write_ci_summary(out_dir, report) -> None:
    write_csv(out_dir / "ci_summary.csv", ("label", "measure", "value_pct", "ci_half_width_pct"),
              ((label, measure, f"{100 * value:.2f}", f"{100 * ci:.2f}")
               for label, row in report.items()
               for measure, value, ci in (("acc", row.stats.acc, row.ci_acc),
                                          ("bacc", row.stats.bacc, row.ci_bacc))
               if value is not None))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hemtriage",
        description="Desk-scale head-CT hemorrhage triage pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a labeled phantom dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--scans", type=int, default=100)
    p.add_argument("--positive-fraction", type=float, default=0.3,
                   help="any-type positive fraction, split evenly over the 5 types")
    p.add_argument("--slices-min", type=int, default=10)
    p.add_argument("--slices-max", type=int, default=18)
    p.add_argument("--height", type=int, default=48)
    p.add_argument("--width", type=int, default=48)
    p.add_argument("--noise-sigma", type=float, default=4.0)
    p.add_argument("--distractor-fraction", type=float, default=0.0)
    p.add_argument("--paired-fraction", type=float, default=0.3)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("slice-train", help="train the reference slice model")
    p.add_argument("--manifest", required=True)
    p.add_argument("--volumes", default=None, help="root for manifest paths (default: manifest dir)")
    p.add_argument("--slice-labels", default=None)
    p.add_argument("--windows", default="40:80,80:200,40:380")
    p.add_argument("--rounds", type=int, default=None)
    p.add_argument("--seed", type=int, default=0,
                   help="only labels the model identity: training draws no random numbers")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_slice_train)

    p = sub.add_parser("slice-predict", help="per-slice probabilities for a manifest")
    p.add_argument("--model", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--volumes", default=None, help="root for manifest paths (default: manifest dir)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_slice_predict)

    p = sub.add_parser("oof", help="patient-grouped folds and out-of-fold predictions")
    p.add_argument("--manifest", required=True)
    p.add_argument("--volumes", default=None, help="root for manifest paths (default: manifest dir)")
    p.add_argument("--slice-labels", default=None)
    p.add_argument("--windows", default="40:80,80:200,40:380")
    p.add_argument("--folds", type=int, default=8)
    p.add_argument("--rounds", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="directory for folds.csv and oof_probs.csv")
    p.set_defaults(func=cmd_oof)

    p = sub.add_parser("stack-train", help="train the inter-slice stacking ensemble")
    p.add_argument("--oof", required=True, help="out-of-fold slice probability CSV")
    p.add_argument("--slice-labels", default=None)
    p.add_argument("--manifest", default=None,
                   help="scan-level labels to broadcast when no per-slice CSV exists")
    p.add_argument("--delta-s", type=int, default=2)
    p.add_argument("--rounds", type=int, default=200)
    p.add_argument("--seed", type=int, default=0,
                   help="no effect: training draws no random numbers; accepted so that "
                        "existing command lines keep working")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_stack_train)

    p = sub.add_parser("stack-apply", help="refine slice probabilities with a stacker")
    p.add_argument("--model", required=True)
    p.add_argument("--probs", required=True)
    p.add_argument("--delta-s", type=int, default=None,
                   help="must match the model's window if given")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_stack_apply)

    p = sub.add_parser("optimize", help="search decision thresholds")
    p.add_argument("--manifest", required=True)
    p.add_argument("--probs", required=True, help="refined slice probability CSV")
    p.add_argument("--objective", default="any_bacc", choices=sorted(thresholds.OBJECTIVES))
    p.add_argument("--budget", type=int, default=150,
                   help="random design points scored; exact coordinate ascent from the 4 best "
                        "then adds one objective evaluation per start that moves")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("evaluate", help="confusion matrices and derived statistics")
    p.add_argument("--manifest", required=True)
    p.add_argument("--probs", default=None)
    p.add_argument("--thresholds", default=None)
    p.add_argument("--decisions", default=None, help="scan-level decisions CSV instead of --probs")
    p.add_argument("--out", required=True, help="directory for report.csv and report.txt")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("report", help="ROC, cumulative, box-plot, and CI artifacts")
    p.add_argument("--manifest", required=True)
    p.add_argument("--probs", required=True)
    p.add_argument("--thresholds", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except (PipelineError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
