import hashlib
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from hemtriage.errors import (ArityError, ConfigError, DataError, FormatError, PipelineError,
                             UndefinedMetricError)
from hemtriage import thresholds as th
from hemtriage.metrics import compute_confusion, compute_metrics
from hemtriage.thresholds import (OBJECTIVES, PUBLISHED_THRESHOLDS, ThresholdSet,
                                  aggregate_scans, binarize_slice, load_thresholds,
                                  optimize_thresholds, save_thresholds)


def grid_oracle(vectors, labels, step=0.01):
    """Coordinate-descent oracle over the per-axis step grid, run to
    convergence from the mid-box start."""
    truth = np.asarray(labels, dtype=bool).any(axis=1)
    vectors = np.asarray(vectors)

    def objective(thr):
        decisions = (vectors >= thr).any(axis=1)
        sen = (decisions & truth).sum() / truth.sum()
        spec = (~decisions & ~truth).sum() / (~truth).sum()
        return (sen + spec) / 2

    grid = np.round(np.arange(step, 1.0 + step / 2, step), 10)
    thresholds = np.full(5, 0.5)
    best = objective(thresholds)
    improved = True
    while improved:
        improved = False
        for axis in range(5):
            trial = thresholds.copy()
            values = []
            for value in grid:
                trial[axis] = value
                values.append(objective(trial))
            index = int(np.argmax(values))
            if values[index] > best + 1e-12:
                best = values[index]
                thresholds[axis] = grid[index]
                improved = True
    return best, thresholds


def repeated_probability_scans(seed, num_scans):
    """Scan vectors on a quarter grid, so many scans share each value."""
    rng = np.random.default_rng(seed)
    labels = rng.random((num_scans, 5)) < 0.15
    labels[0, 0], labels[1] = True, False
    vectors = rng.beta(1.2, 6, (num_scans, 5)) + labels * rng.uniform(0.2, 0.6, (num_scans, 5))
    return np.round(np.clip(vectors, 0, 1) * 4) / 4, labels


def validation_scans(seed, num_scans=200, hard_frac=0.12):
    """Stacker-like refined scan vectors with a borderline minority."""
    rng = np.random.default_rng(seed)
    labels = np.zeros((num_scans, 5), dtype=bool)
    order = rng.permutation(num_scans)
    cursor = 0
    for t, count in enumerate([10, 14, 13, 12, 13]):
        labels[order[cursor:cursor + count], t] = True
        cursor += count
    vectors = rng.beta(1.2, 14, (num_scans, 5)) * 0.7
    for t in range(5):
        positive = labels[:, t]
        n = int(positive.sum())
        values = rng.beta(6, 1.5, n)
        hard = rng.random(n) < hard_frac
        values[hard] = rng.uniform(0.2, 0.5, hard.sum())
        vectors[positive, t] = values
        bait = rng.choice(np.flatnonzero(~positive), 3, replace=False)
        vectors[bait, t] = rng.uniform(0.45, 0.8, 3)
    return np.clip(vectors, 0, 1), labels


def brute_force_term(column, truth, threshold):
    """One type's balanced accuracy at one threshold, None for one-class truth."""
    return compute_metrics(compute_confusion(column >= threshold, truth)).bacc


def brute_force_objective(objective, point, vectors, labels):
    """One point's objective value through ``compute_metrics``, None where
    the labels leave it undefined."""
    if objective == "any_bacc":
        decisions = (vectors >= point).any(axis=1)
        return compute_metrics(compute_confusion(decisions, labels.any(axis=1))).bacc
    terms = [brute_force_term(vectors[:, t], labels[:, t], point[t]) for t in range(5)]
    defined = [term for term in terms if term is not None]
    return float(np.mean(defined)) if defined else None


def reference_optimize(vectors, labels, objective="any_bacc", budget=150, seed=0):
    """Independent reference for the whole search: the same seeded design,
    then coordinate ascent whose line search scores every cut by brute force
    (the full objective for ``any_bacc``, the axis's own type term for
    ``mean_type_bacc``). Every point is scored alone, by brute force. Returns
    every point the search scores, in order, and the thresholds and value it
    returns."""

    def score(point, vectors, labels):
        return brute_force_objective(objective, point, vectors, labels)

    lo, hi = th.SEARCH_BOUNDS
    X = lo + np.random.default_rng(seed).random((budget, 5)) * (hi - lo)
    evaluated = list(X)
    y = np.array([score(x, vectors, labels) for x in X])

    def line_score(trial, axis):
        if objective == "any_bacc":
            return score(trial, vectors, labels)
        return brute_force_term(vectors[:, axis], labels[:, axis], trial[axis])

    results = []
    for start in np.argsort(-y, kind="stable")[:th._ASCENT_STARTS]:
        point = X[start].copy()
        moved = True
        while moved:
            moved = False
            for axis in range(5):
                current = line_score(point, axis)
                if current is None:
                    continue
                best_cut, best_value = None, current
                for cut in th._cuts(vectors[:, axis]):
                    trial = point.copy()
                    trial[axis] = cut
                    value = line_score(trial, axis)
                    if value > best_value:
                        best_cut, best_value = cut, value
                if best_cut is not None:
                    point[axis] = best_cut
                    moved = True
        if np.array_equal(point, X[start]):
            results.append((point, y[start]))
        else:
            evaluated.append(point)
            results.append((point, score(point, vectors, labels)))
    best = int(np.argmax([value for _, value in results]))
    return evaluated, results[best][0], results[best][1]


def counted_objective(monkeypatch, objective):
    """Wrap ``OBJECTIVES[objective]`` to record every point it scores: each
    row of each batched call."""
    evaluated = []
    score = OBJECTIVES[objective]
    monkeypatch.setitem(OBJECTIVES, objective,
                        lambda x, v, l: evaluated.extend(np.array(x)) or score(x, v, l))
    return evaluated


coordinates = st.floats(0.0, 1.0)


@st.composite
def small_cohorts(draw, min_scans=1, max_scans=8):
    """A few scans whose values tie, sit on 0, 0.01 and 1.0, or fall anywhere
    in [0, 1], with labels that may leave a type (or every type) one-class."""
    num_scans = draw(st.integers(min_scans, max_scans))
    value = st.sampled_from([0.0, 0.01, 0.3, 1.0]) | coordinates
    vectors = np.array(draw(st.lists(st.lists(value, min_size=5, max_size=5),
                                     min_size=num_scans, max_size=num_scans)))
    # A scan drawn negative has no positive type, so about half the scans are
    # negative and the any-type truth is rarely one-class.
    labels = np.array([draw(st.lists(st.booleans(), min_size=5, max_size=5))
                       if draw(st.booleans()) else [False] * 5 for _ in range(num_scans)])
    return vectors, labels


class TestThresholdSet:
    def test_bounds_validated(self):
        with pytest.raises(ConfigError):
            ThresholdSet(0.0, 0.5, 0.5, 0.5, 0.5)
        with pytest.raises(ConfigError):
            ThresholdSet(0.5, 0.5, 0.5, 0.5, 1.2)
        ThresholdSet(1.0, 1.0, 1.0, 1.0, 1.0)

    def test_published_defaults(self):
        np.testing.assert_allclose(PUBLISHED_THRESHOLDS.as_array(),
                                   [0.47, 0.37, 0.45, 0.37, 0.20])


class TestBinarize:
    def test_published_thresholds_iph_only(self):
        flags, any_flag = binarize_slice([0.1, 0.2, 0.1, 0.1, 0.25], PUBLISHED_THRESHOLDS)
        assert flags.tolist() == [False, False, False, False, True]
        assert bool(any_flag) is True

    def test_all_zero_probabilities(self):
        flags, any_flag = binarize_slice(np.zeros(5), ThresholdSet(0.01, 0.5, 0.9, 1.0, 0.3))
        assert not flags.any() and not any_flag

    def test_equality_counts_positive(self):
        thresholds = ThresholdSet(0.47, 0.37, 0.45, 0.37, 0.20)
        flags, _ = binarize_slice([0.47, 0.0, 0.0, 0.0, 0.0], thresholds)
        assert flags.tolist() == [True, False, False, False, False]

    def test_matrix_input(self, rng):
        rows = rng.random((7, 5))
        flags, any_flags = binarize_slice(rows, PUBLISHED_THRESHOLDS)
        assert flags.shape == (7, 5) and any_flags.shape == (7,)


class TestAggregate:
    def test_single_slice_identity(self):
        row = np.array([[0.1, 0.2, 0.3, 0.4, 0.5]])
        np.testing.assert_array_equal(aggregate_scans([row]), row)

    def test_max_over_slices(self):
        rows = np.array([[0.1, 0.0, 0.0, 0.0, 0.0], [0.9, 0.0, 0.0, 0.0, 0.0]])
        assert aggregate_scans([rows])[0, 0] == 0.9

    def test_all_below_thresholds_scan_negative(self):
        rows = np.full((4, 5), 0.1)
        _, any_flag = binarize_slice(aggregate_scans([rows]), PUBLISHED_THRESHOLDS)
        assert not any_flag.any()

    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_empty_rejected(self, position):
        # A zero-row scan anywhere in the table is rejected, not given its
        # neighbour's row.
        scans = [np.full((2, 5), 0.5), np.full((3, 5), 0.25)]
        scans.insert(position, np.zeros((0, 5)))
        with pytest.raises(ArityError, match="at least one probability row"):
            aggregate_scans(scans)

    def test_no_scans_rejected(self):
        with pytest.raises(ArityError, match="at least one scan"):
            aggregate_scans([])

    @pytest.mark.parametrize("bad", [np.zeros((3, 4)), np.zeros(5), np.zeros((2, 5, 1))])
    def test_wrong_width_rejected(self, bad):
        with pytest.raises(DataError, match="probability rows must be"):
            aggregate_scans([np.zeros((2, 5)), bad])

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(1, 12), min_size=1, max_size=20), st.integers(0, 10_000))
    def test_equals_per_scan_max(self, num_slices, seed):
        rng = np.random.default_rng(seed)
        scans = [np.round(rng.random((n, 5)) * 4) / 4 for n in num_slices]
        expected = np.array([rows.max(axis=0) for rows in scans])
        assert aggregate_scans(scans).tobytes() == expected.tobytes()


class TestDecisionEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(1, 12), min_size=1, max_size=8), st.integers(0, 10_000))
    def test_or_over_slices_equals_max_then_binarize(self, num_slices, seed):
        rng = np.random.default_rng(seed)
        scans = [rng.random((n, 5)) for n in num_slices]
        thresholds = ThresholdSet(*rng.uniform(0.05, 1.0, 5))
        or_decisions = [binarize_slice(rows, thresholds)[0].any(axis=0) for rows in scans]
        max_decisions, _ = binarize_slice(aggregate_scans(scans), thresholds)
        assert np.array_equal(np.array(or_decisions), max_decisions)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000))
    def test_raising_a_threshold_never_creates_positive(self, seed):
        rng = np.random.default_rng(seed)
        rows = rng.random((6, 5))
        base = rng.uniform(0.05, 0.9, 5)
        flags_before, any_before = binarize_slice(rows, ThresholdSet(*base))
        axis = int(rng.integers(0, 5))
        raised = base.copy()
        raised[axis] = min(1.0, raised[axis] + rng.uniform(0.0, 0.4))
        flags_after, any_after = binarize_slice(rows, ThresholdSet(*raised))
        assert not (flags_after & ~flags_before).any()
        assert not (any_after & ~any_before).any()

    def test_invariant_under_increasing_transform(self, rng):
        rows = rng.random((5, 5))
        base = rng.uniform(0.1, 0.9, 5)

        def transform(x):
            return x ** 3  # strictly increasing on [0, 1]

        before, _ = binarize_slice(rows, ThresholdSet(*base))
        after, _ = binarize_slice(transform(rows), ThresholdSet(*transform(base)))
        assert np.array_equal(before, after)


class TestObjectives:
    def test_unknown_objective(self):
        vectors = np.random.default_rng(0).random((10, 5))
        labels = np.eye(10, 5, dtype=bool)
        with pytest.raises(ConfigError, match="unknown objective"):
            optimize_thresholds(vectors, labels, objective="nope", budget=25)

    def test_no_scans_rejected(self):
        with pytest.raises(ArityError, match="at least one scan"):
            optimize_thresholds(np.zeros((0, 5)), np.zeros((0, 5), dtype=bool), budget=25)

    def test_degenerate_labels_rejected(self):
        vectors = np.random.default_rng(0).random((10, 5))
        with pytest.raises(UndefinedMetricError):
            optimize_thresholds(vectors, np.zeros((10, 5), dtype=bool), budget=25)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1.5, -0.2])
    def test_scan_vectors_outside_unit_interval_rejected(self, bad):
        vectors = np.random.default_rng(0).random((10, 5))
        vectors[3, 2] = bad
        with pytest.raises(DataError, match=r"finite and inside \[0, 1\]"):
            optimize_thresholds(vectors, np.eye(10, 5, dtype=bool), budget=25)

    def test_every_type_one_class_rejected(self):
        vectors = np.random.default_rng(0).random((10, 5))
        labels = np.zeros((10, 5), dtype=bool)
        labels[:, 0] = True
        assert OBJECTIVES["mean_type_bacc"](np.full(5, 0.5), vectors, labels) is None
        with pytest.raises(UndefinedMetricError, match="mean_type_bacc"):
            optimize_thresholds(vectors, labels, objective="mean_type_bacc", budget=25)

    def test_mean_type_bacc_skips_one_class_types(self, rng):
        vectors = rng.random((20, 5))
        labels = rng.integers(0, 2, (20, 5)).astype(bool)
        labels[:, 3] = False  # undefined for this type; mean skips it
        value = OBJECTIVES["mean_type_bacc"](np.full(5, 0.5), vectors, labels)
        assert 0.0 <= value <= 1.0


class TestObjectiveTable:
    @pytest.mark.parametrize("objective", sorted(OBJECTIVES))
    def test_terms_partition_the_types(self, objective):
        # Each type sits in exactly one term, so each threshold moves one
        # term: the line search of an axis scores only that term.
        types = [t for term in th._TERMS[objective] for t in term]
        assert sorted(types) == list(range(5))
        assert all(term for term in th._TERMS[objective])


class TestBatchedObjectives:
    @settings(max_examples=150, deadline=None)
    @given(small_cohorts(),
           st.lists(st.lists(st.sampled_from([0.01, 0.3, 1.0]) | st.floats(0.01, 1.0),
                             min_size=5, max_size=5), min_size=1, max_size=12),
           st.sampled_from(sorted(OBJECTIVES)))
    def test_design_scores_match_brute_force(self, cohort, design, objective):
        vectors, labels = cohort
        design = np.array(design)
        scores = OBJECTIVES[objective](design, vectors, labels)
        expected = [brute_force_objective(objective, point, vectors, labels)
                    for point in design]
        if expected[0] is None:
            assert scores is None
        else:
            assert scores.shape == (len(design),)
            assert scores.tobytes() == np.array(expected).tobytes()

    @pytest.mark.parametrize("objective", sorted(OBJECTIVES))
    def test_design_scores_match_brute_force_on_200_scans(self, objective):
        vectors, labels = validation_scans(7)
        labels[:, 3] = False  # a one-class type is left out of the mean
        design = 0.01 + np.random.default_rng(2).random((200, 5)) * 0.99
        expected = [brute_force_objective(objective, point, vectors, labels) for point in design]
        assert OBJECTIVES[objective](design, vectors, labels).tobytes() == \
            np.array(expected).tobytes()

    @pytest.mark.parametrize("objective", sorted(OBJECTIVES))
    @pytest.mark.parametrize("rows_per_block", [1, 7])
    def test_blocks_give_the_same_bytes(self, monkeypatch, objective, rows_per_block):
        # The design of 60 points is larger than one block of 1 or 7 rows'
        # worth of comparison flags, and no call makes more flags than that.
        vectors, labels = validation_scans(7)
        labels[:, 3] = False  # a one-class type is left out of the mean
        score = OBJECTIVES[objective]

        def search():
            calls = []
            monkeypatch.setitem(OBJECTIVES, objective, lambda x, v, l: calls.append(
                (len(x), score(x, v, l))) or calls[-1][1])
            best, value = optimize_thresholds(vectors, labels, objective, budget=60, seed=4)
            return calls, best.as_array().tobytes(), np.float64(value).tobytes()

        whole_calls, *whole = search()
        assert whole_calls[0][0] == 60
        monkeypatch.setattr(th, "_BLOCK_FLAGS", rows_per_block * vectors.size)
        blocked_calls, *blocked = search()
        design_calls = -(-60 // rows_per_block)
        assert len(blocked_calls) == len(whole_calls) + design_calls - 1
        assert max(rows for rows, _ in blocked_calls) * vectors.size <= th._BLOCK_FLAGS
        design_scores = np.concatenate([scores for _, scores in blocked_calls[:design_calls]])
        assert design_scores.tobytes() == whole_calls[0][1].tobytes()
        assert blocked == whole


class TestOptimizer:
    def test_perfect_predictions_reach_one(self):
        labels = np.zeros((30, 5), dtype=bool)
        labels[:10, 0] = True
        vectors = labels.astype(float)
        _, achieved = optimize_thresholds(vectors, labels, budget=25, seed=0)
        assert achieved == 1.0

    def test_deterministic(self):
        vectors, labels = validation_scans(7)
        a, va = optimize_thresholds(vectors, labels, budget=60, seed=3)
        b, vb = optimize_thresholds(vectors, labels, budget=60, seed=3)
        assert np.array_equal(a.as_array(), b.as_array()) and va == vb

    def test_within_tolerance_of_grid_oracle(self):
        vectors, labels = validation_scans(7 * 13 + 7)
        oracle_value, _ = grid_oracle(vectors, labels)
        _, achieved = optimize_thresholds(vectors, labels, budget=150, seed=0)
        assert achieved >= oracle_value - 0.005

    def test_budget_respected_and_close_across_seeds(self):
        # The 9 validation cohorts, each with its own optimizer seed: the
        # optimizer stays within the acceptance margin of converged coordinate
        # descent on every one.
        worst = 0.0
        for seed, cohort in enumerate((98, 1, 2, 3, 5, 8, 13, 21, 34)):
            vectors, labels = validation_scans(cohort)
            oracle_value, _ = grid_oracle(vectors, labels)
            _, achieved = optimize_thresholds(vectors, labels, budget=150, seed=seed)
            worst = max(worst, oracle_value - achieved)
        assert worst <= 0.005

    @pytest.mark.parametrize("budget", [1, 5, 20, 30, 60, 100])
    def test_objective_calls_bounded(self, monkeypatch, budget):
        vectors, labels = validation_scans(3)
        evaluated = counted_objective(monkeypatch, "any_bacc")
        optimize_thresholds(vectors, labels, budget=budget, seed=1)
        assert len(evaluated) <= budget + th._ASCENT_STARTS

    def test_mean_type_bacc_reaches_per_type_optimum(self):
        vectors, labels = validation_scans(7)
        labels[:, 3] = False  # a one-class type is left out of the mean
        terms = []
        for t in (0, 1, 2, 4):
            trials = np.concatenate([vectors[:, t], np.linspace(0.01, 1.0, 100)])
            terms.append(max(brute_force_term(vectors[:, t], labels[:, t], threshold)
                             for threshold in trials[(trials >= 0.01) & (trials <= 1.0)]))
        _, value = optimize_thresholds(vectors, labels, "mean_type_bacc", budget=60, seed=1)
        assert value == float(np.mean(terms))


class TestOptimizerEquivalence:
    @pytest.mark.parametrize("case, objective, budget, seed", [
        ("validation", "any_bacc", 60, 3),
        ("validation", "mean_type_bacc", 60, 1),
        ("repeated", "any_bacc", 150, 12),
    ])
    def test_same_evaluations_as_reference(self, monkeypatch, case, objective, budget, seed):
        vectors, labels = (validation_scans(7) if case == "validation"
                           else repeated_probability_scans(13, 12))
        expected, expected_point, expected_value = reference_optimize(
            vectors, labels, objective, budget, seed)
        evaluated = counted_objective(monkeypatch, objective)
        best, value = optimize_thresholds(vectors, labels, objective, budget, seed)
        assert np.array_equal(np.array(evaluated), np.array(expected))
        assert np.array_equal(best.as_array(), expected_point) and value == expected_value


class TestAscent:
    """One informative axis: scans at 0.1 (negative), 0.3 (positive), 0.5
    (negative) and 0.9 (positive). The cuts at 0.2 and 0.7 tie for the best
    balanced accuracy, 0.75; the other axes are all zero and never decide."""

    vectors = np.zeros((4, 5))
    vectors[:, 0] = [0.1, 0.3, 0.5, 0.9]
    labels = np.zeros((4, 5), dtype=bool)
    labels[[1, 3], 0] = True

    def ascend(self, start):
        cuts = [th._cuts(self.vectors[:, t]) for t in range(5)]
        return th._ascend("any_bacc", np.array(start), self.vectors, self.labels, cuts)

    def test_tie_goes_to_the_lowest_cut(self):
        cuts = th._cuts(self.vectors[:, 0])
        values = th._line_values("any_bacc", np.ones(5), 0, self.vectors, self.labels, cuts)
        tied = cuts[values == values.max()]
        assert values.max() == 0.75 and len(tied) == 2
        assert self.ascend([1.0] * 5).tolist() == [tied[0]] + [1.0] * 4

    def test_tied_threshold_is_kept(self):
        cuts = th._cuts(self.vectors[:, 0])
        upper = float(cuts[(cuts > 0.5) & (cuts < 0.9)][0])
        assert self.ascend([upper] + [1.0] * 4).tolist() == [upper] + [1.0] * 4

    @settings(max_examples=60, deadline=None)
    @given(small_cohorts(2, 12), st.lists(st.floats(0.01, 1.0), min_size=5, max_size=5))
    def test_mean_type_bacc_reaches_per_type_optimum_from_any_start(self, cohort, start):
        vectors, labels = cohort
        cuts = [th._cuts(vectors[:, t]) for t in range(5)]
        point = th._ascend("mean_type_bacc", np.array(start), vectors, labels, cuts)
        for t in range(5):
            term = brute_force_term(vectors[:, t], labels[:, t], point[t])
            if term is None:
                assert point[t] == start[t]
                continue
            trials = np.concatenate([cuts[t], vectors[:, t], np.linspace(0.01, 1.0, 100)])
            assert all(brute_force_term(vectors[:, t], labels[:, t], threshold) <= term
                       for threshold in trials[(trials >= 0.01) & (trials <= 1.0)])


class TestExactSweep:
    @settings(max_examples=150, deadline=None)
    @given(small_cohorts(), st.lists(st.sampled_from([0.01, 0.3, 1.0]) | st.floats(0.01, 1.0),
                                     min_size=5, max_size=5),
           st.integers(0, 4), st.sampled_from(sorted(OBJECTIVES)))
    def test_line_values_match_brute_force_at_every_cut(self, cohort, point, axis, objective):
        vectors, labels = cohort
        point = np.array(point)
        cuts = th._cuts(vectors[:, axis])
        values = th._line_values(objective, point, axis, vectors, labels, cuts)
        expected = []
        for cut in cuts:
            trial = point.copy()
            trial[axis] = cut
            expected.append(OBJECTIVES["any_bacc"](trial, vectors, labels)
                            if objective == "any_bacc"
                            else brute_force_term(vectors[:, axis], labels[:, axis], cut))
        if expected[0] is None:
            assert values is None
        else:
            assert values.tolist() == expected

    @settings(max_examples=60, deadline=None)
    @given(small_cohorts(8, 24), st.sampled_from(sorted(OBJECTIVES)), st.integers(0, 50))
    def test_result_is_coordinatewise_optimal(self, cohort, objective, seed):
        vectors, labels = cohort
        score = OBJECTIVES[objective]
        assume(score(np.full(5, 0.5), vectors, labels) is not None)
        best, value = optimize_thresholds(vectors, labels, objective, budget=20, seed=seed)
        point = best.as_array()
        assert value == score(point, vectors, labels)
        # Every scan value and a fine grid, besides the cuts themselves.
        for axis in range(5):
            trials = np.concatenate([th._cuts(vectors[:, axis]), vectors[:, axis],
                                     np.linspace(0.01, 1.0, 100)])
            for threshold in trials[(trials >= 0.01) & (trials <= 1.0)]:
                trial = point.copy()
                trial[axis] = threshold
                assert score(trial, vectors, labels) <= value


class TestOptimizerPin:
    """A budget-100 search over 400 scans of continuous probabilities (400
    distinct values per axis), pinned by a digest of every evaluated point,
    random design and ascent alike, and by the thresholds it returns. CI also
    runs it on one BLAS thread, as the benchmark does: it must give the same
    bits both ways."""

    EVALUATED_SHA256 = "bc18930275015b48808ff633cafb61fd6c5cc3043268a7435d08fc61e8a2cf25"
    THRESHOLDS = [0.34178779953287675, 0.2348753219286281, 0.30196112710837764,
                  0.2586671079683686, 0.22957302667843787]
    VALUE = 0.9733727810650887

    def test_evaluations_and_thresholds_pinned(self, monkeypatch):
        vectors, labels = validation_scans(20, num_scans=400)
        assert [len(np.unique(vectors[:, t])) for t in range(5)] == [400] * 5
        evaluated = counted_objective(monkeypatch, "any_bacc")
        best, value = optimize_thresholds(vectors, labels, "any_bacc", budget=100, seed=20)
        digest = hashlib.sha256(np.array(evaluated).astype("<f8").tobytes()).hexdigest()
        assert len(evaluated) == 104 and digest == self.EVALUATED_SHA256
        # The first 100 are the seeded uniform design, scored in draw order.
        lo, hi = th.SEARCH_BOUNDS
        design = lo + np.random.default_rng(20).random((100, 5)) * (hi - lo)
        assert np.array_equal(np.array(evaluated[:100]), design)
        assert best.as_array().tolist() == self.THRESHOLDS and value == self.VALUE


class TestThresholdFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "thresholds.json"
        save_thresholds(PUBLISHED_THRESHOLDS, path)
        assert load_thresholds(path) == PUBLISHED_THRESHOLDS

    def test_missing_key_rejected(self, tmp_path):
        path = tmp_path / "thresholds.json"
        path.write_text('{"t_edh": 0.5}')
        with pytest.raises(FormatError):
            load_thresholds(path)

    @pytest.mark.parametrize("value, error", [("2.0", "t_edh must lie in"),
                                              ("0.0", "t_edh must lie in"),
                                              ("NaN", "NaN is not a JSON number"),
                                              ("-Infinity", "-Infinity is not a JSON number"),
                                              ("true", "thresholds must be finite numbers"),
                                              ('"0.47"', "thresholds must be finite numbers")])
    def test_bad_value_names_file(self, tmp_path, value, error):
        path = tmp_path / "thresholds.json"
        save_thresholds(PUBLISHED_THRESHOLDS, path)
        path.write_text(path.read_text().replace("0.47", value))
        with pytest.raises(PipelineError, match=re.escape(str(path)) + ": .*" + re.escape(error)):
            load_thresholds(path)
