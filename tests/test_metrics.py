import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hemtriage.errors import ArityError, DataError
from hemtriage.metrics import (REPORT_LABELS, ConfusionMatrix, binomial_ci, boxplot_stats,
                               boxplot_stats_by_class, build_report, compute_auc,
                               compute_confusion, compute_metrics, cumulative_curves,
                               log_loss, roc_points, save_report)

# Published external-validation confusion rows (counts per type, n = 5965).
EXTERNAL_ROWS = {
    "edh": (7, 18, 5926, 14),
    "sdh": (329, 38, 5429, 169),
    "sah": (246, 42, 5508, 169),
    "ivh": (112, 16, 5769, 68),
    "iph": (256, 31, 5489, 189),
    "any": (615, 59, 4978, 313),
}
# Published test-set confusion rows (n = 3518 as tabulated).
TEST_ROWS = {
    "edh": (5, 18, 3493, 2),
    "sdh": (424, 79, 2969, 46),
    "sah": (406, 122, 2952, 38),
    "ivh": (574, 42, 2869, 33),
    "iph": (713, 45, 2713, 47),
    "any": (1228, 15, 2230, 45),
}


def brute_force_auc(scores, labels):
    """Independent oracle: count ordered positive/negative pairs directly."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=bool)
    pos = scores[labels]
    neg = scores[~labels]
    wins = np.sum(pos[:, None] > neg[None, :]) + 0.5 * np.sum(pos[:, None] == neg[None, :])
    return wins / (len(pos) * len(neg))


class TestConfusion:
    def test_perfect_agreement(self):
        cm = compute_confusion([1, 0, 1], [1, 0, 1])
        assert (cm.tp, cm.tn, cm.fp, cm.fn) == (2, 1, 0, 0)

    def test_all_false_positives(self):
        cm = compute_confusion([1, 1, 1, 1], [0, 0, 0, 0])
        assert (cm.fp, cm.tp, cm.tn, cm.fn) == (4, 0, 0, 0)

    def test_replayed_external_any_row(self):
        # Rebuild decision/truth arrays carrying exactly the published counts.
        tp, fn, tn, fp = EXTERNAL_ROWS["any"]
        decisions = [1] * tp + [0] * fn + [0] * tn + [1] * fp
        truths = [1] * tp + [1] * fn + [0] * tn + [0] * fp
        cm = compute_confusion(decisions, truths)
        assert (cm.tp, cm.fn, cm.tn, cm.fp) == (615, 59, 4978, 313)
        assert cm.total == 5965

    def test_length_mismatch(self):
        with pytest.raises(ArityError):
            compute_confusion([1, 0], [1])

    def test_negative_counts_rejected(self):
        with pytest.raises(DataError):
            ConfusionMatrix(-1, 0, 2, 0)


class TestComputeMetrics:
    def test_published_test_any_row_one_decimal(self):
        stats = compute_metrics(ConfusionMatrix(1228, 15, 2230, 45))
        assert round(100 * stats.sen, 1) == 98.8
        assert round(100 * stats.spec, 1) == 98.0
        assert round(100 * stats.ppv, 1) == 96.5
        assert round(100 * stats.npv, 1) == 99.3
        assert round(100 * stats.acc, 1) == 98.3
        assert round(100 * stats.bacc, 1) == 98.4
        assert round(100 * stats.mcc, 1) == 96.3
        assert round(100 * stats.f1, 1) == 97.6

    def test_published_external_edh_row_one_decimal(self):
        stats = compute_metrics(ConfusionMatrix(7, 18, 5926, 14))
        assert round(100 * stats.sen, 1) == 28.0
        assert round(100 * stats.spec, 1) == 99.8
        assert round(100 * stats.ppv, 1) == 33.3
        assert round(100 * stats.mcc, 1) == 30.3
        assert round(100 * stats.f1, 1) == 30.4
        assert round(100 * stats.bacc, 1) == 63.9

    def test_zero_denominators_flagged(self):
        stats = compute_metrics(ConfusionMatrix(0, 0, 5, 0))
        assert stats.sen is None and stats.ppv is None and stats.f1 is None
        assert stats.mcc is None and stats.bacc is None
        assert stats.spec == 1.0 and stats.acc == 1.0

    def test_formulas_against_direct_arithmetic(self):
        cm = ConfusionMatrix(12, 3, 40, 5)
        stats = compute_metrics(cm)
        assert stats.sen == 12 / 15
        assert stats.spec == 40 / 45
        assert stats.ppv == 12 / 17
        assert stats.npv == 40 / 43
        assert stats.acc == 52 / 60
        assert stats.bacc == (12 / 15 + 40 / 45) / 2
        assert stats.f1 == 24 / 32
        assert stats.mcc == pytest.approx(
            (12 * 40 - 5 * 3) / math.sqrt(17 * 15 * 45 * 43), abs=1e-15)

    @given(st.integers(0, 50), st.integers(0, 50), st.integers(0, 50), st.integers(0, 50))
    def test_mcc_flip_symmetry(self, tp, fn, tn, fp):
        if tp + fn + tn + fp == 0:
            return
        stats = compute_metrics(ConfusionMatrix(tp, fn, tn, fp))
        flipped_both = compute_metrics(ConfusionMatrix(tn, fp, tp, fn))
        decisions_only = compute_metrics(ConfusionMatrix(fp, tn, fn, tp))
        if stats.mcc is not None:
            assert flipped_both.mcc == pytest.approx(stats.mcc, abs=1e-12)
            assert decisions_only.mcc == pytest.approx(-stats.mcc, abs=1e-12)

    @given(st.integers(0, 40), st.integers(0, 40), st.integers(0, 40))
    def test_bacc_equals_acc_when_balanced(self, tp, fn, fp):
        # Force tp + fn == tn + fp by choosing tn accordingly.
        tn = tp + fn - fp
        if tn < 0 or tp + fn == 0 or tn + fp == 0:
            return
        stats = compute_metrics(ConfusionMatrix(tp, fn, tn, fp))
        assert stats.bacc == pytest.approx(stats.acc, abs=1e-12)


class TestAuc:
    def test_perfect_separation(self):
        assert compute_auc([0.9, 0.8, 0.1, 0.2], [1, 1, 0, 0]) == 1.0

    def test_all_ties(self):
        assert compute_auc([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0]) == 0.5

    def test_three_of_four_pairs(self):
        # pairs: (.9,.8)=1, (.9,.6)=1, (.7,.8)=0, (.7,.6)=1 -> 3/4
        assert compute_auc([0.9, 0.8, 0.7, 0.6], [1, 0, 1, 0]) == 0.75

    @pytest.mark.parametrize("labels", [[1, 1], [0, 0]])
    def test_one_class_is_none(self, labels):
        assert compute_auc([0.1, 0.2], labels) is None
        assert roc_points([0.1, 0.2], labels) is None

    def test_non_finite_scores_rejected(self):
        # Ranks of NaN scores mean nothing, whether each is its own tie group
        # (AUC 0.5 here) or all of them are one (0.417).
        scores, labels = [0.2, np.nan, 0.7, np.nan, 0.4], [1, 0, 1, 1, 0]
        for statistic in (compute_auc, roc_points):
            with pytest.raises(DataError, match="finite"):
                statistic(scores, labels)
            with pytest.raises(DataError, match="finite"):
                statistic([0.2, np.inf], [1, 0])

    def test_matches_brute_force_with_heavy_ties(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 60))
            scores = rng.integers(0, 5, n) / 4.0
            labels = rng.integers(0, 2, n).astype(bool)
            if labels.all() or not labels.any():
                continue
            assert compute_auc(scores, labels) == brute_force_auc(scores, labels)

    @settings(max_examples=60)
    @given(st.lists(st.tuples(st.floats(0, 1, width=16), st.booleans()),
                    min_size=2, max_size=40))
    def test_invariant_under_monotone_transform(self, pairs):
        scores = np.array([p[0] for p in pairs])
        labels = np.array([p[1] for p in pairs])
        if labels.all() or not labels.any():
            return
        base = compute_auc(scores, labels)
        transformed = compute_auc(np.exp(3.0 * scores) + 7.0, labels)
        assert transformed == pytest.approx(base, abs=1e-12)

    def test_roc_polyline_ends(self):
        points = roc_points([0.9, 0.8, 0.7, 0.6], [1, 0, 1, 0])
        assert tuple(points[0]) == (0.0, 0.0)
        assert tuple(points[-1]) == (1.0, 1.0)
        assert np.all(np.diff(points[:, 0]) >= 0) and np.all(np.diff(points[:, 1]) >= 0)


class TestLogLoss:
    def test_perfect_predictions_floor(self):
        assert log_loss([1.0, 0.0], [1, 0]) <= 1e-14

    def test_uninformative_half(self):
        assert log_loss([0.5, 0.5, 0.5], [1, 0, 1]) == pytest.approx(math.log(2), abs=1e-12)

    def test_hand_computed(self):
        # -mean(ln 0.9, ln 0.9)
        assert log_loss([0.9, 0.1], [1, 0]) == pytest.approx(0.105360516, abs=1e-9)


class TestBinomialCi:
    def test_published_edh_half_width(self):
        assert binomial_ci(0.639, 5965) == pytest.approx(0.0122, abs=5e-5)

    def test_published_any_half_width(self):
        assert binomial_ci(0.927, 5965) == pytest.approx(0.0066, abs=5e-5)

    def test_half_at_ten_thousand(self):
        assert binomial_ci(0.5, 10000) == pytest.approx(0.0098, abs=1e-6)

    def test_maximized_at_half_and_root_n_scaling(self, rng):
        for _ in range(20):
            p = float(rng.uniform(0, 1))
            assert binomial_ci(p, 500) <= binomial_ci(0.5, 500) + 1e-15
        assert binomial_ci(0.3, 400) == pytest.approx(binomial_ci(0.3, 100) / 2.0, rel=1e-12)


class TestCumulativeCurves:
    def test_hand_counted(self):
        curves = cumulative_curves([1, 1, 0], [1, 0, 1])
        assert curves.truth_curve.tolist() == [1, 1, 2]
        assert curves.decision_curve.tolist() == [1, 2, 2]
        assert curves.final_difference == 0
        assert curves.disagreements == 2

    def test_identical_inputs(self):
        curves = cumulative_curves([1, 0, 1], [1, 0, 1])
        assert curves.decision_curve.tolist() == curves.truth_curve.tolist()
        assert curves.final_difference == 0 and curves.disagreements == 0

    def test_external_any_net_overcall(self):
        tp, fn, tn, fp = EXTERNAL_ROWS["any"]
        decisions = [1] * tp + [0] * fn + [0] * tn + [1] * fp
        truths = [1] * tp + [1] * fn + [0] * tn + [0] * fp
        curves = cumulative_curves(decisions, truths)
        assert curves.final_difference == fp - fn == 254
        assert curves.truth_curve[-1] == tp + fn

    def test_curves_non_decreasing(self, rng):
        decisions = rng.integers(0, 2, 100)
        truths = rng.integers(0, 2, 100)
        curves = cumulative_curves(decisions, truths)
        assert np.all(np.diff(curves.decision_curve) >= 0)
        assert np.all(np.diff(curves.truth_curve) >= 0)
        assert curves.truth_curve[-1] == truths.sum()


class TestBoxplot:
    def test_one_through_nine(self):
        stats = boxplot_stats(range(1, 10))
        assert stats.median == 5 and stats.q1 == 3 and stats.q3 == 7
        assert len(stats.outliers) == 0
        assert stats.whisker_low == 1 and stats.whisker_high == 9

    def test_zero_iqr_outlier(self):
        stats = boxplot_stats([1, 1, 1, 1, 100])
        assert stats.outliers.tolist() == [100]
        assert stats.whisker_high == 1

    def test_single_value(self):
        stats = boxplot_stats([7.5])
        assert stats.median == stats.q1 == stats.q3 == 7.5
        assert stats.whisker_low == stats.whisker_high == 7.5

    def test_by_class_grouping(self):
        values = [0.1, 0.2, 0.8, 0.9]
        truths = [0, 0, 1, 1]
        groups = boxplot_stats_by_class(values, truths)
        assert groups[0].median == pytest.approx(0.15)
        assert groups[1].median == pytest.approx(0.85)

    def test_empty_group_is_none(self):
        assert boxplot_stats([]) is None
        groups = boxplot_stats_by_class([0.1, 0.2], [0, 0])
        assert groups[1] is None and groups[0].median == pytest.approx(0.15)


class TestReport:
    def test_build_report_shapes_and_any_row(self, rng):
        decisions = rng.integers(0, 2, (30, 5)).astype(bool)
        truths = rng.integers(0, 2, (30, 5)).astype(bool)
        scores = rng.random((30, 5))
        report = build_report(decisions, truths, scores)
        assert list(report) == list(REPORT_LABELS) == ["edh", "sdh", "sah", "ivh", "iph", "any"]
        any_cm = report["any"].cm
        direct = compute_confusion(decisions.any(axis=1), truths.any(axis=1))
        assert (any_cm.tp, any_cm.fn, any_cm.tn, any_cm.fp) == \
            (direct.tp, direct.fn, direct.tn, direct.fp)

    def test_one_class_label_has_no_auc(self, rng, tmp_path):
        decisions = rng.integers(0, 2, (30, 5)).astype(bool)
        truths = rng.integers(0, 2, (30, 5)).astype(bool)
        truths[:, 0] = False
        report = build_report(decisions, truths, rng.random((30, 5)))
        assert report["edh"].auc is None and report["edh"].stats.sen is None
        assert all(0.0 <= report[label].auc <= 1.0 for label in REPORT_LABELS[1:])
        save_report(report, tmp_path / "r.csv", tmp_path / "r.txt")
        edh = (tmp_path / "r.csv").read_text().splitlines()[1].split(",")
        assert edh[0] == "EDH" and edh[9] == "NA"

    def test_csv_has_published_column_order(self, rng, tmp_path):
        decisions = rng.integers(0, 2, (10, 5)).astype(bool)
        truths = decisions.copy()
        truths[0] = ~truths[0]
        save_report(build_report(decisions, truths), tmp_path / "r.csv", tmp_path / "r.txt")
        text = (tmp_path / "r.csv").read_text()
        header = text.splitlines()[0]
        assert header == "Hemorrhage,TP,FN,TN,FP,SEN,SPEC,PPV,NPV,AUC,Acc,BAcc,MCC,F1"
        assert len(text.splitlines()) == 7
