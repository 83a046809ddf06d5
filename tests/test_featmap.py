import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from fsosr.featmap import (
    EPS_NORM,
    minmax_norm,
    spatial_avg_pool,
    spatial_softmax,
)
from fsosr.pipeline import _Held


def small_maps(max_side=5):
    return st.integers(1, max_side).flatmap(
        lambda h: st.integers(1, max_side).flatmap(
            lambda w: st.lists(
                st.floats(-50, 50, allow_nan=False), min_size=h * w, max_size=h * w
            ).map(lambda vals: np.array(vals).reshape(h, w))
        )
    )


def _masked_minmax(m):
    """minmax_norm's rule as one masked formula, whether a map is flat or not."""
    lo, hi = m.min(axis=(-2, -1), keepdims=True), m.max(axis=(-2, -1), keepdims=True)
    span = hi - lo
    flat = (span < EPS_NORM) & (span <= EPS_NORM * np.maximum(-lo, hi))
    return np.where(flat, 0.0, (m - lo) / np.where(flat, 1.0, span))


class TestHolders:
    def test_holders_keep_the_array_they_are_given(self):
        # pipeline's holder of a mined map or embedding, as the benchmark's tracer reads it
        arr = np.arange(24, dtype=np.float32).reshape(2, 3, 4)
        f = _Held(arr)
        assert f.values is arr
        assert (f.height, f.width, f.channels) == (2, 3, 4)
        row = arr[0, 0]
        assert _Held(row).values is row


class TestSpatialAvgPool:
    def test_single_cell_identity(self):
        assert spatial_avg_pool(np.array([[[1.0, 2.0, 3.0]]])).tolist() == [1.0, 2.0, 3.0]

    def test_arithmetic_mean(self):
        assert spatial_avg_pool(np.array([1.0, 2.0, 3.0, 4.0]).reshape(2, 2, 1)).tolist() == [2.5]

    def test_against_summation_oracle(self):
        rng = np.random.default_rng(0)
        vals = rng.normal(size=(4, 4, 8))
        pooled = spatial_avg_pool(vals)
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
        lhs = spatial_avg_pool(2.5 * f + 0.3 * g)
        rhs = 2.5 * spatial_avg_pool(f) + 0.3 * spatial_avg_pool(g)
        np.testing.assert_allclose(lhs, rhs, atol=1e-9)

    @pytest.mark.parametrize(
        "shape",
        [(5, 5, 640), (8, 8, 64), (1, 1, 64), (1, 1, 640), (3, 7, 5), (7, 3, 9),
         (50, 5, 5, 640), (360, 8, 8, 64)],
    )
    @pytest.mark.parametrize("seed", [0, 11])
    def test_float32_maps_pool_as_their_float64_widening(self, shape, seed):
        rng = np.random.default_rng(seed)
        maps = (rng.normal(size=shape) + 10.0 * rng.normal(size=shape[-1])).astype(np.float32)
        pooled = spatial_avg_pool(maps)
        assert pooled.dtype == np.float64
        assert np.array_equal(pooled, spatial_avg_pool(maps.astype(np.float64)))

    def test_stack_pools_each_map_alone(self):
        stack = np.random.default_rng(11).normal(size=(3, 2, 5, 4))
        out = spatial_avg_pool(stack)
        assert out.shape == (3, 4)
        for i in range(3):
            np.testing.assert_array_equal(out[i], spatial_avg_pool(stack[i]))


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
        shifted = alpha * vals + beta
        # Rounding in alpha * vals + beta moves each cell by up to eps * scale,
        # scale being the largest magnitude involved, and normalizing divides
        # that error by the new range alpha * ptp. Where the range is under a
        # few times eps * scale / atol (e.g. [0, 1e-300] + 1 == [1, 1]) the
        # transform itself has lost the map's shape and nothing can recover it.
        atol = 1e-9
        scale = max(np.abs(shifted).max(), alpha * np.abs(vals).max(), np.finfo(float).tiny)
        assume(np.ptp(vals) == 0 or alpha * np.ptp(vals) >= 5 * np.finfo(float).eps * scale / atol)
        base = minmax_norm(vals)
        scaled = minmax_norm(shifted)
        np.testing.assert_allclose(base, scaled, atol=atol)

    def test_small_map_and_its_power_of_two_rescale_agree(self):
        vals = np.array([[0.0, 1.13720475e-11]])
        for alpha in (0.0625, 0.5, 16.0):
            np.testing.assert_array_equal(minmax_norm(alpha * vals), [[0.0, 1.0]])
        assert minmax_norm(np.zeros((2, 2))).tolist() == [[0.0, 0.0], [0.0, 0.0]]

    def test_shortcut_gives_the_masked_formulas_bytes(self):
        # Stacks of 1-5 maps at scales 1e-14 to 1e10, half of them with flat
        # maps: constant, or of range 1e-13 or 1e-300 about 0, 1 or 2.5. A
        # stack whose every range is EPS_NORM or more takes the shortcut; a
        # range below it, flat or not (a map at scale 1e-14), the masked formula.
        rng = np.random.default_rng(26)
        shortcut = 0
        for _ in range(300):
            n, h, w = rng.integers(1, 6, size=3)
            stack = rng.normal(size=(n, h, w)) * 10.0 ** rng.uniform(-14, 10, size=(n, 1, 1))
            for i in rng.choice(n, size=rng.integers(0, n + 1) * int(rng.integers(2)), replace=False):
                stack[i] = rng.choice([0.0, 1.0, 2.5]) + rng.choice([0.0, 1e-13, 1e-300]) * rng.random((h, w))
            spans = stack.max(axis=(1, 2)) - stack.min(axis=(1, 2))
            shortcut += bool(spans.min() >= EPS_NORM)
            assert minmax_norm(stack).tobytes() == _masked_minmax(stack).tobytes()
        assert 50 < shortcut < 250  # both branches ran

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
        np.testing.assert_allclose(out, np.ones((2, 3)), atol=1e-12)

    def test_closed_form_two_cells(self):
        out = spatial_softmax(np.array([[0.0, np.log(3.0)]]))
        np.testing.assert_allclose(out, [[1 / 3, 1.0]], atol=1e-12)

    def test_exp_sum_oracle(self):
        # the sum-to-one softmax divided by its peak
        rng = np.random.default_rng(3)
        vals = rng.normal(size=(3, 3))
        out = spatial_softmax(vals)
        denom = sum(np.exp(v) for v in vals.ravel())
        peak = np.exp(vals.max()) / denom
        for a in range(3):
            for b in range(3):
                assert out[a, b] == pytest.approx(np.exp(vals[a, b]) / denom / peak, abs=1e-12)

    def test_stack_softmax_is_per_map(self):
        rng = np.random.default_rng(9)
        stack = rng.normal(size=(3, 2, 4))
        out = spatial_softmax(stack)
        for i in range(3):
            np.testing.assert_allclose(out[i], spatial_softmax(stack[i]), atol=1e-15)

    @settings(max_examples=50, deadline=None)
    @given(small_maps(), st.floats(-30, 30))
    def test_peak_is_one_and_shift_invariant(self, vals, shift):
        out = spatial_softmax(vals)
        assert out.max() == pytest.approx(1.0, abs=1e-9)
        shifted = spatial_softmax(vals + shift)
        np.testing.assert_allclose(out, shifted, atol=1e-9)
