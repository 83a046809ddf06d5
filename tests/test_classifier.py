import re

import numpy as np
import pytest

from fsosr.classifier import build_known_prototypes, check_norms, cosine_matrix, init_background, predict


class TestBuildKnownPrototypes:
    def test_single_shot_is_identity(self):
        known = build_known_prototypes(np.array([[3.0, -1.0]]), np.array([0]), n_way=1, k_shot=1)
        assert known.tolist() == [[3.0, -1.0]]
        assert known.dtype == np.float64

    def test_two_shot_midpoint(self):
        known = build_known_prototypes(np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([0, 0]), 1, 2)
        assert known.tolist() == [[0.5, 0.5]]

    def test_against_accumulation_oracle(self):
        rng = np.random.default_rng(0)
        rows, labels = [], []
        expected = {}
        for c in range(5):
            shots = rng.normal(size=(5, 12))
            rows.extend(shots)
            labels.extend([c] * 5)
            acc = np.zeros(12)
            for row in shots:
                acc = acc + row
            expected[c] = acc / 5
        # shuffled rows, so grouping by label is exercised
        perm = rng.permutation(25)
        known = build_known_prototypes(np.array(rows)[perm], np.array(labels)[perm], 5, 5)
        for c in range(5):
            np.testing.assert_allclose(known[c], expected[c], atol=1e-12)

    def test_permutation_gives_bit_identical_prototypes(self):
        rng = np.random.default_rng(1)
        shots = rng.normal(size=(10, 6))
        labels = np.array([0, 1] * 5)
        a = build_known_prototypes(shots, labels, 2, 5)
        b = build_known_prototypes(shots[::-1], labels[::-1], 2, 5)
        perm = rng.permutation(10)
        c = build_known_prototypes(shots[perm], labels[perm], 2, 5)
        assert a.tobytes() == b.tobytes() == c.tobytes()

    def test_column_zero_tie_gives_bit_identical_prototypes(self):
        # every shot of class 0 shares its first coordinate, so only the full
        # coordinate order fixes the summation order
        rng = np.random.default_rng(2)
        shots = rng.normal(size=(10, 6))
        labels = np.array([0, 1] * 5)
        shots[labels == 0, 0] = 0.25
        expected = build_known_prototypes(shots, labels, 2, 5).tobytes()
        for _ in range(20):
            perm = rng.permutation(10)
            got = build_known_prototypes(shots[perm], labels[perm], 2, 5)
            assert got.tobytes() == expected

    def test_unequal_counts_raise(self):
        with pytest.raises(ValueError, match="expected 1"):
            build_known_prototypes(np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([0, 0]), 2, 1)

    def test_label_outside_way_raises(self):
        with pytest.raises(ValueError, match="outside"):
            build_known_prototypes(np.array([[1.0, 0.0]]), np.array([3]), 2, 1)

    def test_zero_norm_prototype_raises(self):
        with pytest.raises(ValueError, match="zero norm"):
            build_known_prototypes(np.array([[1.0, 0.0], [-1.0, 0.0]]), np.array([0, 0]), 1, 2)


class TestInitBackground:
    def test_random_is_deterministic(self):
        a = init_background(3, "random", 3, seed=42)
        b = init_background(3, "random", 3, seed=42)
        assert a.tobytes() == b.tobytes()

    def test_different_seeds_differ(self):
        a = init_background(3, "random", 2, seed=1)
        b = init_background(3, "random", 2, seed=2)
        assert not np.array_equal(a, b)

    def test_avg_single_row_mean(self):
        out = init_background(2, "avg", 1, 0, np.array([[2.0, 0.0], [0.0, 2.0]]))
        assert out.tolist() == [[1.0, 1.0]]

    def test_avg_round_robin_partition(self):
        embeddings = np.array([[2.0, 0.0], [0.0, 2.0], [4.0, 0.0]])
        out = init_background(2, "avg", 2, 0, embeddings)
        # rows 0 and 2 go to partition 0, row 1 to partition 1
        assert out.tolist() == [[3.0, 0.0], [0.0, 2.0]]

    def test_random_bound_check_d640(self):
        out = init_background(640, "random", 4, seed=9)
        bound = 1.0 / np.sqrt(640)
        assert out.shape == (4, 640)
        assert np.all(out >= -bound)
        assert np.all(out <= bound)

    def test_avg_requires_embeddings(self):
        with pytest.raises(ValueError, match="background embedding"):
            init_background(2, "avg", 1, 0, None)
        with pytest.raises(ValueError, match="every row"):
            init_background(2, "avg", 3, 0, np.array([[1.0, 0.0]]))
        with pytest.raises(ValueError, match="shape n x 2"):
            init_background(2, "avg", 1, 0, np.ones((2, 3)))

    def test_zero_rows_allowed(self):
        out = init_background(2, "random", 0, seed=0)
        assert out.shape == (0, 2)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="init kind"):
            init_background(2, "fancy", 1, seed=0)


def scalar_cosine(row, q):
    """Per-pair cosine similarity: the reference for the batched routines."""
    return float(np.dot(row, q) / (np.linalg.norm(row) * np.linalg.norm(q)))


def predict_oracle(known, background, q, score_kind="margin"):
    """Per-query verdict: joint argmax row and unknownness from scalar cosines."""
    sims = [scalar_cosine(row, q) for row in np.vstack([known, background])]
    n_known = len(known)
    if score_kind == "neg_max_known" or len(background) == 0:
        unknownness = -max(sims[:n_known])
    else:
        unknownness = max(sims[n_known:]) - max(sims[:n_known])
    return int(np.argmax(sims)), unknownness


class TestCosineScores:
    def test_self_similarity_is_one_at_any_scale(self):
        rows = np.array([[1.0, 2.0, 3.0], [0.0, 1.0, 0.0]])
        for scale in (0.001, 1.0, 250.0):
            scores, _, _ = cosine_matrix(rows, scale * np.array([[1.0, 2.0, 3.0]]))
            assert scores[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_is_zero(self):
        scores, _, _ = cosine_matrix(np.array([[1.0, 0.0]]), np.array([[0.0, 5.0]]))
        assert scores[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_scalar_oracle(self):
        rng = np.random.default_rng(2)
        rows = rng.normal(size=(6, 7))
        queries = rng.normal(size=(5, 7))
        scores, wn, qn = cosine_matrix(rows, queries)
        assert scores.shape == (5, 6)
        np.testing.assert_allclose(wn, [np.linalg.norm(r) for r in rows], rtol=0, atol=1e-12)
        np.testing.assert_allclose(qn, [np.linalg.norm(q) for q in queries], rtol=0, atol=1e-12)
        for i, q in enumerate(queries):
            for j, row in enumerate(rows):
                assert scores[i, j] == pytest.approx(scalar_cosine(row, q), abs=1e-12)

    @pytest.mark.parametrize("dim", [64, 640])
    def test_matches_normalized_product_oracle(self, dim):
        # the scores are the raw queries against the unit rows, divided by the
        # query norms afterwards; the formula that normalizes both sides first
        # agrees to rounding, at any scale of either side
        rng = np.random.default_rng(dim)
        for scale_w, scale_q in ((1.0, 1.0), (1e-3, 250.0), (40.0, 0.02)):
            rows = scale_w * rng.normal(size=(11, dim))
            queries = scale_q * rng.normal(size=(150, dim))
            expected = (queries / np.linalg.norm(queries, axis=1)[:, None]) @ (
                rows / np.linalg.norm(rows, axis=1)[:, None]
            ).T
            scores, _, _ = cosine_matrix(rows, queries)
            np.testing.assert_allclose(scores, expected, rtol=0, atol=1e-15)

    def test_scores_within_cosine_range(self):
        rng = np.random.default_rng(3)
        scores, _, _ = cosine_matrix(rng.normal(size=(3, 5)), rng.normal(size=(4, 5)))
        assert np.all(scores >= -1.0) and np.all(scores <= 1.0)

    def test_zero_norm_query_raises(self):
        with pytest.raises(ValueError, match="query 1 has zero norm"):
            cosine_matrix(np.ones((1, 2)), np.array([[1.0, 0.0], [0.0, 0.0]]))

    def test_zero_norm_row_names_index(self):
        with pytest.raises(ValueError, match="row 1"):
            cosine_matrix(np.array([[1.0, 0.0], [0.0, 0.0]]), np.array([[1.0, 1.0]]))

    def test_non_finite_norm_names_row(self):
        # each entry is finite, but the sum of squares overflows
        huge = np.array([[1.0, 0.0], [1e300, 1e300]])
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="row 1 has non-finite norm"):
            cosine_matrix(huge, np.array([[1.0, 1.0]]))
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="query 0 has non-finite norm"):
            cosine_matrix(np.ones((1, 2)), huge[::-1])


class TestCheckNorms:
    def test_fine_norms_come_back_unchanged(self):
        norms = np.array([0.5, 2.0, 3.0])
        assert check_norms(norms, "row") is norms

    @pytest.mark.parametrize("norms, message", [
        ([1.0, 2.0, 0.0, 0.0], "row 2 has zero norm"),
        ([1.0, 2.0, 3.0, np.inf], "row 3 has non-finite norm"),
        ([1.0, 2.0, np.nan, 0.0], "row 2 has non-finite norm"),
        ([1.0, np.inf, 0.0], "row 1 has non-finite norm"),
    ])
    def test_only_later_rows_bad_names_the_first(self, norms, message):
        # the first rows are fine, so the min/sum test fails only through a
        # later row, and the full scan names the first bad one
        with pytest.raises(ValueError, match=re.escape(message)):
            check_norms(np.array(norms), "row")

    def test_sum_overflow_on_finite_norms_passes(self):
        norms = np.array([1e308, 1e308, 1.0])
        with np.errstate(over="ignore"):
            assert check_norms(norms, "row") is norms

    def test_empty_passes(self):
        assert check_norms(np.empty(0), "row").size == 0


class TestPredict:
    def _bank(self):
        known = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]])
        background = np.array([[0.0, 0.0, 0.0, 1.0]])
        return np.vstack([known, background])

    def test_exact_known_match(self):
        rows, unknownness = predict(self._bank(), 3, np.array([[0.0, 0.0, 2.0, 0.0]]))
        assert rows.tolist() == [2]
        assert unknownness[0] < 0

    def test_exact_background_match(self):
        rows, unknownness = predict(self._bank(), 3, np.array([[0.0, 0.0, 0.0, 3.0]]))
        assert rows.tolist() == [3]  # background row 0, after the 3 known rows
        assert unknownness[0] > 0

    def test_verdict_matches_argmax_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            known = rng.normal(size=(4, 6))
            background = rng.normal(size=(2, 6))
            queries = rng.normal(size=(5, 6))
            rows, unknownness = predict(np.vstack([known, background]), 4, queries)
            for q, row, score in zip(queries, rows, unknownness):
                best, expected = predict_oracle(known, background, q)
                assert row == best
                assert score == pytest.approx(expected, abs=1e-12)

    def test_no_background_matches_oracle(self):
        rng = np.random.default_rng(7)
        for kind in ("margin", "neg_max_known"):
            known = rng.normal(size=(4, 6))
            queries = rng.normal(size=(9, 6))
            rows, unknownness = predict(known, 4, queries, kind)
            for q, row, score in zip(queries, rows, unknownness):
                best, expected = predict_oracle(known, np.zeros((0, 6)), q, kind)
                assert row == best
                assert score == pytest.approx(expected, abs=1e-12)

    def test_scale_invariance(self):
        rng = np.random.default_rng(5)
        known = rng.normal(size=(3, 5))
        background = rng.normal(size=(1, 5))
        queries = rng.normal(size=(6, 5))
        base_rows, base_scores = predict(np.vstack([known, background]), 3, queries)
        for alpha in (0.01, 3.0, 100.0):
            rows, scores = predict(np.vstack([known * alpha, background]), 3, queries * alpha)
            np.testing.assert_array_equal(rows, base_rows)
            np.testing.assert_allclose(scores, base_scores, rtol=0, atol=1e-9)

    def test_tie_breaks_to_lowest_index(self):
        bank = np.array([[1.0, 0.0], [1.0, 0.0]])
        rows, _ = predict(bank, 2, np.array([[1.0, 0.0]]))
        assert rows.tolist() == [0]

    def test_without_background_never_unknown(self):
        rng = np.random.default_rng(6)
        rows, _ = predict(rng.normal(size=(4, 5)), 4, rng.normal(size=(20, 5)))
        assert np.all(rows < 4)

    def test_neg_max_known_score_kind(self):
        bank = self._bank()
        queries = np.array([[0.5, 0.1, 0.0, 0.4], [0.0, 0.2, 0.3, 0.9]])
        scores, _, _ = cosine_matrix(bank, queries)
        _, unknownness = predict(bank, 3, queries, "neg_max_known")
        np.testing.assert_allclose(unknownness, -scores[:, :3].max(axis=1), rtol=0, atol=1e-15)
        with pytest.raises(ValueError, match="score kind"):
            predict(bank, 3, queries, "whatever")

    @pytest.mark.parametrize("num_known", [0, -1, 5])
    def test_known_row_count_checked(self, num_known):
        with pytest.raises(ValueError, match=re.escape(f"num_known must lie in [1, 4], got {num_known}")):
            predict(self._bank(), num_known, np.ones((1, 4)))
