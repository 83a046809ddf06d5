import numpy as np
import pytest

from fsosr.classifier import (
    InitStrategy,
    PrototypeBank,
    build_known_prototypes,
    cosine_matrix,
    init_background,
    predict,
)
from fsosr.featmap import EmbeddingVector


def emb(*vals):
    return EmbeddingVector(np.array(vals, dtype=float))


class TestBuildKnownPrototypes:
    def test_single_shot_is_identity(self):
        bank = build_known_prototypes([(emb(3.0, -1.0), 0)], n_way=1, k_shot=1)
        assert bank.known_weights.tolist() == [[3.0, -1.0]]

    def test_two_shot_midpoint(self):
        bank = build_known_prototypes([(emb(1.0, 0.0), 0), (emb(0.0, 1.0), 0)], 1, 2)
        assert bank.known_weights.tolist() == [[0.5, 0.5]]

    def test_against_accumulation_oracle(self):
        rng = np.random.default_rng(0)
        support = []
        expected = {}
        for c in range(5):
            shots = rng.normal(size=(5, 12))
            for row in shots:
                support.append((EmbeddingVector(row), c))
            acc = np.zeros(12)
            for row in shots:
                acc = acc + row
            expected[c] = acc / 5
        bank = build_known_prototypes(support, 5, 5)
        for c in range(5):
            np.testing.assert_allclose(bank.known_weights[c], expected[c], atol=1e-12)

    def test_permutation_gives_bit_identical_prototypes(self):
        rng = np.random.default_rng(1)
        shots = [(EmbeddingVector(rng.normal(size=6)), 0) for _ in range(5)]
        a = build_known_prototypes(shots, 1, 5).known_weights
        b = build_known_prototypes(shots[::-1], 1, 5).known_weights
        shuffled = [shots[i] for i in (2, 0, 4, 1, 3)]
        c = build_known_prototypes(shuffled, 1, 5).known_weights
        assert a.tobytes() == b.tobytes() == c.tobytes()

    def test_unequal_counts_raise(self):
        with pytest.raises(ValueError, match="expected 1"):
            build_known_prototypes([(emb(1.0, 0.0), 0), (emb(0.0, 1.0), 0)], 2, 1)

    def test_zero_norm_prototype_raises(self):
        with pytest.raises(ValueError, match="zero norm"):
            build_known_prototypes([(emb(1.0, 0.0), 0), (emb(-1.0, 0.0), 0)], 1, 2)


class TestInitBackground:
    def test_random_is_deterministic(self):
        bank = build_known_prototypes([(emb(1.0, 0.0, 0.0), 0)], 1, 1)
        s = InitStrategy("random", seed=42)
        a = init_background(bank, s, 3).background_weights
        b = init_background(bank, s, 3).background_weights
        assert a.tobytes() == b.tobytes()

    def test_different_seeds_differ(self):
        bank = build_known_prototypes([(emb(1.0, 0.0, 0.0), 0)], 1, 1)
        a = init_background(bank, InitStrategy("random", seed=1), 2).background_weights
        b = init_background(bank, InitStrategy("random", seed=2), 2).background_weights
        assert not np.array_equal(a, b)

    def test_avg_single_row_mean(self):
        bank = build_known_prototypes([(emb(1.0, 1.0), 0)], 1, 1)
        out = init_background(bank, InitStrategy("avg"), 1, [emb(2.0, 0.0), emb(0.0, 2.0)])
        assert out.background_weights.tolist() == [[1.0, 1.0]]

    def test_avg_round_robin_partition(self):
        bank = build_known_prototypes([(emb(1.0, 1.0), 0)], 1, 1)
        embeddings = [emb(2.0, 0.0), emb(0.0, 2.0), emb(4.0, 0.0)]
        out = init_background(bank, InitStrategy("avg"), 2, embeddings)
        # rows 0 and 2 go to partition 0, row 1 to partition 1
        assert out.background_weights.tolist() == [[3.0, 0.0], [0.0, 2.0]]

    def test_random_bound_check_d640(self):
        bank = PrototypeBank(np.ones((1, 640)))
        out = init_background(bank, InitStrategy("random", seed=9), 4)
        bound = 1.0 / np.sqrt(640)
        assert np.all(out.background_weights >= -bound)
        assert np.all(out.background_weights <= bound)

    def test_avg_requires_embeddings(self):
        bank = build_known_prototypes([(emb(1.0, 0.0), 0)], 1, 1)
        with pytest.raises(ValueError, match="background embedding"):
            init_background(bank, InitStrategy("avg"), 1, None)
        with pytest.raises(ValueError, match="every row"):
            init_background(bank, InitStrategy("avg"), 3, [emb(1.0, 0.0)])

    def test_global_seeds_once_then_persists(self):
        bank = build_known_prototypes([(emb(1.0, 0.0, 0.0), 0)], 1, 1)
        strategy = InitStrategy("global", seed=5)
        first = init_background(bank, strategy, 2).background_weights
        assert strategy.persisted_weights is not None
        strategy.persisted_weights = strategy.persisted_weights * 2.0
        second = init_background(bank, strategy, 2).background_weights
        np.testing.assert_array_equal(second, first * 2.0)

    def test_zero_rows_allowed(self):
        bank = build_known_prototypes([(emb(1.0, 0.0), 0)], 1, 1)
        out = init_background(bank, InitStrategy("random"), 0)
        assert out.num_background == 0

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="init kind"):
            InitStrategy("fancy")


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


class TestPredict:
    def _bank(self):
        known = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]])
        background = np.array([[0.0, 0.0, 0.0, 1.0]])
        return PrototypeBank(known, background)

    def test_exact_known_match(self):
        rows, unknownness = predict(self._bank(), np.array([[0.0, 0.0, 2.0, 0.0]]))
        assert rows.tolist() == [2]
        assert unknownness[0] < 0

    def test_exact_background_match(self):
        rows, unknownness = predict(self._bank(), np.array([[0.0, 0.0, 0.0, 3.0]]))
        assert rows.tolist() == [3]  # background row 0, after the 3 known rows
        assert unknownness[0] > 0

    def test_verdict_matches_argmax_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            known = rng.normal(size=(4, 6))
            background = rng.normal(size=(2, 6))
            queries = rng.normal(size=(5, 6))
            rows, unknownness = predict(PrototypeBank(known, background), queries)
            for q, row, score in zip(queries, rows, unknownness):
                best, expected = predict_oracle(known, background, q)
                assert row == best
                assert score == pytest.approx(expected, abs=1e-12)

    def test_no_background_matches_oracle(self):
        rng = np.random.default_rng(7)
        for kind in ("margin", "neg_max_known"):
            known = rng.normal(size=(4, 6))
            queries = rng.normal(size=(9, 6))
            rows, unknownness = predict(PrototypeBank(known), queries, kind)
            for q, row, score in zip(queries, rows, unknownness):
                best, expected = predict_oracle(known, np.zeros((0, 6)), q, kind)
                assert row == best
                assert score == pytest.approx(expected, abs=1e-12)

    def test_scale_invariance(self):
        rng = np.random.default_rng(5)
        known = rng.normal(size=(3, 5))
        background = rng.normal(size=(1, 5))
        queries = rng.normal(size=(6, 5))
        base_rows, base_scores = predict(PrototypeBank(known, background), queries)
        for alpha in (0.01, 3.0, 100.0):
            rows, scores = predict(PrototypeBank(known * alpha, background), queries * alpha)
            np.testing.assert_array_equal(rows, base_rows)
            np.testing.assert_allclose(scores, base_scores, rtol=0, atol=1e-9)

    def test_tie_breaks_to_lowest_index(self):
        bank = PrototypeBank(np.array([[1.0, 0.0], [1.0, 0.0]]))
        rows, _ = predict(bank, np.array([[1.0, 0.0]]))
        assert rows.tolist() == [0]

    def test_without_background_never_unknown(self):
        rng = np.random.default_rng(6)
        bank = PrototypeBank(rng.normal(size=(4, 5)))
        rows, _ = predict(bank, rng.normal(size=(20, 5)))
        assert np.all(rows < bank.num_known)

    def test_neg_max_known_score_kind(self):
        bank = self._bank()
        queries = np.array([[0.5, 0.1, 0.0, 0.4], [0.0, 0.2, 0.3, 0.9]])
        scores, _, _ = cosine_matrix(bank.all_weights(), queries)
        _, unknownness = predict(bank, queries, "neg_max_known")
        np.testing.assert_allclose(unknownness, -scores[:, :3].max(axis=1), rtol=0, atol=1e-15)
        with pytest.raises(ValueError, match="score kind"):
            predict(bank, queries, "whatever")

    def test_query_shape_checked(self):
        with pytest.raises(ValueError, match="queries need shape n x 4"):
            predict(self._bank(), np.ones(4))
