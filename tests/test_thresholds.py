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
                                  aggregate_scan, binarize_slice, load_thresholds,
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


def direct_solve_optimize(vectors, labels, objective="any_bacc", budget=150, seed=0):
    """Independent reference for the GP-EI phase: the loop refitting the
    posterior from scratch each step, with an LU solve over every candidate,
    until 40 evaluations of the budget are left. Returns every point the phase
    evaluates and its objective value, in order."""
    from scipy.stats import qmc

    def kernel(a, b):
        sq = ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)
        return np.exp(-sq / (2.0 * th._GP_LENGTH_SCALE ** 2))

    score = OBJECTIVES[objective]
    lo, hi = th.SEARCH_BOUNDS
    sampler = qmc.Halton(d=5, scramble=True, seed=seed)
    rng = np.random.default_rng(seed)
    X = lo + sampler.random(min(th._NUM_INITIAL_POINTS, budget)) * (hi - lo)
    y = np.array([score(x, vectors, labels) for x in X])
    while len(X) < budget - 40:
        y_std = (y - y.mean()) / max(float(y.std()), 1e-9)
        design = kernel(X, X) + th._GP_NOISE * np.eye(len(X))
        best = X[np.argmax(y)]
        candidates = np.vstack([lo + sampler.random(512) * (hi - lo)]
                               + [np.clip(best + rng.normal(0.0, scale, size=(128, 5)), lo, hi)
                                  for scale in (0.02, 0.06)])
        cross = kernel(candidates, X)
        mu = cross @ np.linalg.solve(design, y_std)
        var = np.maximum(1.0 - np.einsum("ij,ji->i", cross, np.linalg.solve(design, cross.T)),
                         1e-12)
        sigma = np.sqrt(var)
        z = (mu - y_std.max()) / sigma
        improvement = sigma * (z * th._norm_cdf(z) + th._norm_pdf(z))
        chosen = candidates[int(np.argmax(improvement))]
        X = np.vstack([X, chosen])
        y = np.append(y, score(chosen, vectors, labels))
    return X, y


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


def reference_rbf_kernel(a, b):
    """The kernel written out of place, one temporary per operation: the
    bit-exact reference for the in-place kernel."""
    sq = (a[:, None, 0] - b[None, :, 0]) ** 2
    for axis in range(1, a.shape[1]):
        sq += (a[:, None, axis] - b[None, :, axis]) ** 2
    return np.exp(-sq / (2.0 * th._GP_LENGTH_SCALE ** 2))


def brute_force_term(column, truth, threshold):
    """One type's balanced accuracy at one threshold, None for one-class truth."""
    return compute_metrics(compute_confusion(column >= threshold, truth)).bacc


def counted_objective(monkeypatch, objective):
    """Wrap ``OBJECTIVES[objective]`` to record every point it is called at."""
    evaluated = []
    score = OBJECTIVES[objective]
    monkeypatch.setitem(OBJECTIVES, objective,
                        lambda x, v, l: evaluated.append(np.array(x)) or score(x, v, l))
    return evaluated


coordinates = st.floats(0.0, 1.0)


@st.composite
def kernel_cases(draw):
    """Two point sets, where a row of the second may equal a row of the first."""
    rows = st.lists(st.lists(coordinates, min_size=5, max_size=5), min_size=1, max_size=6)
    a, b = np.array(draw(rows)), np.array(draw(rows))
    if draw(st.booleans()):
        b[draw(st.integers(0, len(b) - 1))] = a[draw(st.integers(0, len(a) - 1))]
    return a, b


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
        np.testing.assert_array_equal(aggregate_scan(row), row[0])

    def test_max_over_slices(self):
        rows = np.array([[0.1, 0.0, 0.0, 0.0, 0.0], [0.9, 0.0, 0.0, 0.0, 0.0]])
        assert aggregate_scan(rows)[0] == 0.9

    def test_all_below_thresholds_scan_negative(self):
        rows = np.full((4, 5), 0.1)
        _, any_flag = binarize_slice(aggregate_scan(rows), PUBLISHED_THRESHOLDS)
        assert not any_flag

    def test_empty_rejected(self):
        with pytest.raises(ArityError):
            aggregate_scan(np.zeros((0, 5)))


class TestDecisionEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 12), st.integers(0, 10_000))
    def test_or_over_slices_equals_max_then_binarize(self, num_slices, seed):
        rng = np.random.default_rng(seed)
        rows = rng.random((num_slices, 5))
        thresholds = ThresholdSet(*rng.uniform(0.05, 1.0, 5))
        per_slice, _ = binarize_slice(rows, thresholds)
        or_decision = per_slice.any(axis=0)
        max_decision, _ = binarize_slice(aggregate_scan(rows), thresholds)
        assert np.array_equal(or_decision, max_decision)

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
        # Robustness picture, looser bound: the optimizer stays within a few
        # hundredths of converged coordinate descent on varied instances.
        worst = 0.0
        for seed in (0, 1, 2):
            vectors, labels = validation_scans(seed * 13 + 7)
            oracle_value, _ = grid_oracle(vectors, labels)
            _, achieved = optimize_thresholds(vectors, labels, budget=150, seed=seed)
            worst = max(worst, oracle_value - achieved)
        assert worst <= 0.02

    @pytest.mark.parametrize("budget", [1, 5, 20, 30, 60, 100])
    def test_objective_calls_bounded(self, monkeypatch, budget):
        vectors, labels = validation_scans(3)
        evaluated = counted_objective(monkeypatch, "any_bacc")
        optimize_thresholds(vectors, labels, budget=budget, seed=1)
        assert len(evaluated) <= max(min(budget, 20), budget - 40) + 4

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
    def test_same_evaluations_as_direct_solve(self, monkeypatch, case, objective, budget, seed):
        vectors, labels = (validation_scans(7) if case == "validation"
                           else repeated_probability_scans(13, 12))
        X, y = direct_solve_optimize(vectors, labels, objective, budget, seed)
        evaluated = counted_objective(monkeypatch, objective)
        _, value = optimize_thresholds(vectors, labels, objective, budget, seed)
        assert np.array_equal(np.array(evaluated[:len(X)]), X)
        assert len(evaluated) <= len(X) + 4 and value >= y.max()

    def test_grown_factor_matches_cholesky_on_repeated_points(self):
        rng = np.random.default_rng(0)
        X = np.vstack([rng.random((5, 5)), np.full((30, 5), 0.4), rng.random((5, 5))])
        factor = np.zeros((len(X), len(X)))
        for j in range(len(X)):
            th._cholesky_append(factor, j, th._rbf_kernel(X[:j], X[j:j + 1])[:, 0])
        expected = np.linalg.cholesky(th._rbf_kernel(X, X) + th._GP_NOISE * np.eye(len(X)))
        assert np.isfinite(factor).all()
        np.testing.assert_allclose(factor, expected, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("column", [[1.5], [np.nan]])
    def test_non_positive_pivot_raises(self, column):
        factor = np.zeros((2, 2))
        th._cholesky_append(factor, 0, np.zeros(0))
        with pytest.raises(np.linalg.LinAlgError):
            th._cholesky_append(factor, 1, np.array(column))
        assert factor[1].tolist() == [0.0, 0.0]


class TestKernelBits:
    @settings(max_examples=200, deadline=None)
    @given(kernel_cases())
    def test_kernels_match_reference_bit_for_bit(self, case):
        a, b = case

        def same_bytes(got, expected):
            return got.shape == expected.shape and got.tobytes() == expected.tobytes()

        # Both orientations: the posterior takes (design, candidates) and the
        # factor's new column (design, point).
        assert same_bytes(th._rbf_kernel(a, b), reference_rbf_kernel(a, b))
        assert same_bytes(th._rbf_kernel(b, a), reference_rbf_kernel(b, a))


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
    GP phase and ascent alike, and by the thresholds it returns. CI also runs
    it on one BLAS thread: the triangular solves and products must give the
    same bits both ways."""

    EVALUATED_SHA256 = "2d6c36ef557ccae9db560bf62fbedfc7e83a67d6a5300f994635b52fad95dd07"
    THRESHOLDS = [0.4315540492789401, 0.2783771568529723, 0.2944787931590653,
                  0.2586671079683686, 0.2286343872533241]
    VALUE = 0.9733727810650887

    def test_evaluations_and_thresholds_pinned(self, monkeypatch):
        vectors, labels = validation_scans(20, num_scans=400)
        assert [len(np.unique(vectors[:, t])) for t in range(5)] == [400] * 5
        evaluated = counted_objective(monkeypatch, "any_bacc")
        best, value = optimize_thresholds(vectors, labels, "any_bacc", budget=100, seed=20)
        digest = hashlib.sha256(np.array(evaluated).astype("<f8").tobytes()).hexdigest()
        assert len(evaluated) == 64 and digest == self.EVALUATED_SHA256
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
