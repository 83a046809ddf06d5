import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fsosr.featmap import (
    EmbeddingVector,
    FeatureMap,
    mask_apply,
    minmax_norm,
    spatial_avg_pool,
    spatial_softmax,
)


def small_maps(max_side=5):
    return st.integers(1, max_side).flatmap(
        lambda h: st.integers(1, max_side).flatmap(
            lambda w: st.lists(
                st.floats(-50, 50, allow_nan=False), min_size=h * w, max_size=h * w
            ).map(lambda vals: np.array(vals).reshape(h, w))
        )
    )


class TestTypes:
    def test_feature_map_rejects_nan(self):
        with pytest.raises(ValueError, match="non-finite"):
            FeatureMap(np.full((2, 2, 2), np.nan))

    def test_feature_map_rejects_wrong_rank(self):
        with pytest.raises(ValueError):
            FeatureMap(np.zeros((2, 2)))

    def test_values_are_immutable(self):
        f = FeatureMap(np.ones((2, 2, 2)))
        with pytest.raises(ValueError):
            f.values[0, 0, 0] = 5.0

    def test_construction_copies_input(self):
        src = np.ones((2, 3, 1))
        f = FeatureMap(src)
        src[0, 0, 0] = 99.0
        assert f.values[0, 0, 0] == 1.0

    def test_embedding_dims(self):
        e = EmbeddingVector([1.0, 2.0])
        assert e.dim == 2
        with pytest.raises(ValueError):
            EmbeddingVector([[1.0]])


class TestSpatialAvgPool:
    def test_single_cell_identity(self):
        f = FeatureMap(np.array([[[1.0, 2.0, 3.0]]]))
        assert spatial_avg_pool(f).values.tolist() == [1.0, 2.0, 3.0]

    def test_arithmetic_mean(self):
        f = FeatureMap(np.array([1.0, 2.0, 3.0, 4.0]).reshape(2, 2, 1))
        assert spatial_avg_pool(f).values.tolist() == [2.5]

    def test_against_summation_oracle(self):
        rng = np.random.default_rng(0)
        vals = rng.normal(size=(4, 4, 8))
        pooled = spatial_avg_pool(FeatureMap(vals)).values
        for c in range(8):
            total = 0.0
            for a in range(4):
                for b in range(4):
                    total += vals[a, b, c]
            assert pooled[c] == pytest.approx(total / 16, abs=1e-12)

    def test_linearity(self):
        rng = np.random.default_rng(1)
        f = rng.normal(size=(3, 5, 4))
        g = rng.normal(size=(3, 5, 4))
        lhs = spatial_avg_pool(FeatureMap(2.5 * f + 0.3 * g)).values
        rhs = 2.5 * spatial_avg_pool(FeatureMap(f)).values + 0.3 * spatial_avg_pool(FeatureMap(g)).values
        np.testing.assert_allclose(lhs, rhs, atol=1e-9)


class TestMinmaxNorm:
    def test_affine_rescale(self):
        out = minmax_norm(np.array([[0.0, 5.0, 10.0]]))
        assert out.tolist() == [[0.0, 0.5, 1.0]]

    def test_degenerate_constant_map(self):
        out = minmax_norm(np.array([[3.0, 3.0], [3.0, 3.0]]))
        assert out.tolist() == [[0.0, 0.0], [0.0, 0.0]]

    def test_elementwise_oracle(self):
        rng = np.random.default_rng(2)
        vals = rng.normal(size=(3, 3))
        out = minmax_norm(vals)
        lo, hi = vals.min(), vals.max()
        for a in range(3):
            for b in range(3):
                assert out[a, b] == pytest.approx((vals[a, b] - lo) / (hi - lo), abs=1e-12)

    def test_stack_normalizes_each_map_alone(self):
        rng = np.random.default_rng(8)
        stack = np.stack([rng.normal(size=(3, 4)), np.full((3, 4), 2.5), 100 * rng.normal(size=(3, 4))])
        out = minmax_norm(stack)
        assert out.shape == stack.shape
        np.testing.assert_array_equal(out[1], np.zeros((3, 4)))
        for i in (0, 2):
            np.testing.assert_array_equal(out[i], minmax_norm(stack[i]))

    @settings(max_examples=50, deadline=None)
    @given(small_maps(), st.floats(0.01, 100), st.floats(-100, 100))
    def test_positive_affine_invariance(self, vals, alpha, beta):
        base = minmax_norm(vals)
        scaled = minmax_norm(alpha * vals + beta)
        np.testing.assert_allclose(base, scaled, atol=1e-9)

    @settings(max_examples=50, deadline=None)
    @given(small_maps())
    def test_output_range(self, vals):
        out = minmax_norm(vals)
        assert out.min() >= 0.0 and out.max() <= 1.0
        if vals.max() - vals.min() >= 1e-12:
            assert out.min() == 0.0 and out.max() == 1.0


class TestSpatialSoftmax:
    def test_uniform_map(self):
        out = spatial_softmax(np.full((2, 3), 7.7))
        np.testing.assert_allclose(out, np.full((2, 3), 1 / 6), atol=1e-12)
        rescaled = spatial_softmax(np.full((2, 3), 7.7), peak_rescale=True)
        np.testing.assert_allclose(rescaled, np.ones((2, 3)), atol=1e-12)

    def test_closed_form_two_cells(self):
        out = spatial_softmax(np.array([[0.0, np.log(3.0)]]))
        np.testing.assert_allclose(out, [[0.25, 0.75]], atol=1e-12)

    def test_exp_sum_oracle(self):
        rng = np.random.default_rng(3)
        vals = rng.normal(size=(3, 3))
        out = spatial_softmax(vals)
        denom = sum(np.exp(v) for v in vals.ravel())
        for a in range(3):
            for b in range(3):
                assert out[a, b] == pytest.approx(np.exp(vals[a, b]) / denom, abs=1e-12)

    def test_stack_softmax_is_per_map(self):
        rng = np.random.default_rng(9)
        stack = rng.normal(size=(3, 2, 4))
        for peak in (False, True):
            out = spatial_softmax(stack, peak_rescale=peak)
            for i in range(3):
                np.testing.assert_allclose(out[i], spatial_softmax(stack[i], peak), atol=1e-15)

    @settings(max_examples=50, deadline=None)
    @given(small_maps(), st.floats(-30, 30))
    def test_sums_to_one_and_shift_invariant(self, vals, shift):
        out = spatial_softmax(vals)
        assert out.sum() == pytest.approx(1.0, abs=1e-9)
        shifted = spatial_softmax(vals + shift)
        np.testing.assert_allclose(out, shifted, atol=1e-9)


class TestMaskApply:
    def test_zero_mask_is_identity(self):
        rng = np.random.default_rng(4)
        f = rng.normal(size=(3, 4, 2))
        out = mask_apply(f, np.zeros((3, 4)))
        np.testing.assert_array_equal(out, f)

    def test_full_mask_suppresses_everything(self):
        rng = np.random.default_rng(5)
        f = rng.normal(size=(3, 4, 2))
        out = mask_apply(f, np.ones((3, 4)))
        np.testing.assert_array_equal(out, np.zeros((3, 4, 2)))

    def test_elementwise_product_oracle(self):
        rng = np.random.default_rng(6)
        fvals = rng.normal(size=(3, 3, 4))
        mvals = rng.uniform(size=(3, 3))
        out = mask_apply(fvals, (mvals))
        for a in range(3):
            for b in range(3):
                for c in range(4):
                    assert out[a, b, c] == pytest.approx(fvals[a, b, c] * (1 - mvals[a, b]), abs=1e-12)

    def test_stack_applies_each_mask_to_its_map(self):
        rng = np.random.default_rng(10)
        fvals = rng.normal(size=(2, 3, 3, 4))
        mvals = rng.uniform(size=(2, 3, 3))
        out = mask_apply(fvals, mvals)
        for i in range(2):
            np.testing.assert_array_equal(out[i], mask_apply(fvals[i], mvals[i]))

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError, match="does not match"):
            mask_apply(np.zeros((2, 2, 1)), np.zeros((3, 2)))

    def test_out_of_range_mask_raises(self):
        f = np.zeros((2, 2, 1))
        with pytest.raises(ValueError, match="lie in"):
            mask_apply(f, np.array([[0.0, 1.5], [0.0, 0.0]]))

    @settings(max_examples=50, deadline=None)
    @given(small_maps(4))
    def test_never_increases_magnitude(self, mvals):
        mvals = (mvals - mvals.min()) / max(mvals.max() - mvals.min(), 1e-9)
        rng = np.random.default_rng(7)
        fvals = rng.normal(size=mvals.shape + (3,))
        out = mask_apply(fvals, (mvals))
        assert np.all(np.abs(out) <= np.abs(fvals) + 1e-15)
