import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fsosr.metrics import accuracy, aggregate, auroc


def pairwise_auroc(known, unknown):
    """Brute-force oracle: fraction of (unknown, known) pairs with the unknown
    scoring higher, ties counting half. The count is a sum of halves, exact in
    float, so auroc must equal it bit for bit."""
    total = 0.0
    for u in unknown:
        for k in known:
            if u > k:
                total += 1.0
            elif u == k:
                total += 0.5
    return total / (len(known) * len(unknown))


def sweep_auroc(known, unknown, n_thresholds=10001):
    """Independent oracle: trapezoidal area under the threshold-swept ROC."""
    known = np.asarray(known, dtype=float)
    unknown = np.asarray(unknown, dtype=float)
    lo = min(known.min(), unknown.min()) - 1.0
    hi = max(known.max(), unknown.max()) + 1.0
    thresholds = np.linspace(hi, lo, n_thresholds)
    tpr = [(unknown >= t).mean() for t in thresholds]
    fpr = [(known >= t).mean() for t in thresholds]
    return float(np.trapezoid([0.0] + tpr + [1.0], [0.0] + fpr + [1.0]))


class TestAccuracy:
    # joint argmax rows of a 5-way bank; rows 5 and up are background rows
    def test_all_correct(self):
        assert accuracy(np.array([0, 3]), np.array([0, 3])) == 1.0

    def test_all_rejected_as_unknown(self):
        assert accuracy(np.array([5, 6]), np.array([0, 1])) == 0.0

    def test_counting_oracle(self):
        rng = np.random.default_rng(0)
        rows, labels = [], []
        hits = 0
        for _ in range(75):
            truth = int(rng.integers(0, 5))
            roll = rng.random()
            if roll < 0.2:
                row = int(rng.integers(5, 7))
            else:
                row = int(rng.integers(0, 5))
            if row == truth:
                hits += 1
            rows.append(row)
            labels.append(truth)
        assert accuracy(np.array(rows), np.array(labels)) == hits / 75

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            accuracy(np.array([], dtype=int), np.array([], dtype=int))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            accuracy(np.array([0, 1, 2]), np.array([0, 1]))


class TestAuroc:
    def test_perfect_separation(self):
        assert auroc([0.1, 0.2, 0.3], [0.4, 0.5]) == 1.0

    def test_all_ties(self):
        assert auroc([1.0, 1.0, 1.0], [1.0, 1.0]) == 0.5

    def test_matches_both_oracles(self):
        rng = np.random.default_rng(1)
        for trial in range(20):
            if trial % 3 == 0:
                known = np.round(rng.uniform(0, 1, 40), 1)  # heavy ties
                unknown = np.round(rng.uniform(0.2, 1.2, 40), 1)
            else:
                known = np.round(rng.normal(0, 1, 40), 3)
                unknown = np.round(rng.normal(0.5, 1, 40), 3)
            got = auroc(known.tolist(), unknown.tolist())
            assert got == pairwise_auroc(known, unknown)
            assert got == pytest.approx(sweep_auroc(known, unknown), abs=1e-6)

    def test_complement_symmetry(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=30).tolist()
        b = rng.normal(size=25).tolist()
        assert auroc(a, b) + auroc(b, a) == pytest.approx(1.0, abs=1e-9)

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(st.floats(-5, 5, allow_nan=False), min_size=2, max_size=20),
        st.lists(st.floats(-5, 5, allow_nan=False), min_size=2, max_size=20),
    )
    def test_monotone_transform_invariance(self, known, unknown):
        # a 1e-3 grid keeps the transform injective in float arithmetic
        known = np.round(known, 3).tolist()
        unknown = np.round(unknown, 3).tolist()
        base = auroc(known, unknown)
        transform = lambda x: np.exp(0.5 * np.asarray(x)) + 3.0
        assert auroc(transform(known).tolist(), transform(unknown).tolist()) == pytest.approx(
            base, abs=1e-9
        )

    def test_permutation_invariance(self):
        rng = np.random.default_rng(3)
        known = rng.normal(size=15).tolist()
        unknown = rng.normal(size=12).tolist()
        base = auroc(known, unknown)
        assert auroc(known[::-1], sorted(unknown)) == base

    def test_signed_zeros_tie(self):
        # -0.0 == 0.0, so each zero pair counts half
        assert auroc([0.0, -1.0], [-0.0, 1.0]) == 0.875
        assert auroc([-0.0, 0.0], [0.0]) == 0.5

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.one_of(st.floats(-3, 3, allow_nan=False), st.sampled_from([0.0, -0.0])),
            min_size=2,
            max_size=40,
        ),
        st.integers(1, 39),
    )
    def test_tie_grid_matches_pair_count(self, values, split):
        # a 0.5 grid makes most values tie, and -0.0 ties with 0.0
        values = np.round(np.array(values) * 2.0) / 2.0
        split = min(split, len(values) - 1)
        known, unknown = values[:split], values[split:]
        assert auroc(known, unknown) == pairwise_auroc(known, unknown)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_scores_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            auroc([0.1, bad, 0.3], [0.2])
        with pytest.raises(ValueError, match="finite"):
            auroc([0.1, 0.3], [0.2, bad])

    def test_empty_side_rejected(self):
        with pytest.raises(ValueError):
            auroc([], [1.0])
        with pytest.raises(ValueError):
            auroc([1.0], [])


class TestAggregate:
    def test_single_episode(self):
        agg = aggregate([0.8], [0.9])
        assert agg["mean_accuracy"] == 0.8
        assert agg["mean_auroc"] == 0.9
        assert agg["ci95_accuracy"] == 0.0 and agg["ci95_auroc"] == 0.0
        assert agg["n_episodes"] == 1

    def test_two_episode_mean(self):
        agg = aggregate([0.8, 0.9], [0.7, 0.8])
        assert agg["mean_accuracy"] == pytest.approx(0.85)
        assert agg["mean_auroc"] == pytest.approx(0.75)

    def test_accumulation_oracle(self):
        rng = np.random.default_rng(4)
        accs = rng.uniform(0, 1, 600)
        aucs = rng.uniform(0, 1, 600)
        agg = aggregate(accs, aucs)
        assert agg["mean_accuracy"] == pytest.approx(float(np.mean(accs)), abs=1e-12)
        assert agg["mean_auroc"] == pytest.approx(float(np.mean(aucs)), abs=1e-12)
        expected_ci = 1.96 * float(np.std(accs, ddof=1)) / np.sqrt(600)
        assert agg["ci95_accuracy"] == pytest.approx(expected_ci, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate([], [])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            aggregate([0.8, 0.9], [0.7])
