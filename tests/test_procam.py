import dataclasses
import re

import numpy as np
import pytest

from fsosr import procam
from fsosr.classifier import build_known_prototypes
from fsosr.episode import (
    EpisodeSpec,
    SyntheticConfig,
    benchmark_config,
    generate_synthetic,
    sample_episode,
    spatial_avg_pool,
)
from fsosr.pipeline import _Held, procam_for_support
from fsosr.procam import NORM_KINDS, ProCamConfig, cam, mask_iou, mine, minmax_norm, spatial_softmax


def _loop_oracle(fvals, wvals, iterations, softmax=False):
    """Per-item mining written out step by step, materialising every masked
    copy of the features: the reference the batched core, which scales one
    activation map instead, is checked against. Returns the final mask, the
    (H, W, d) background map and the per-iteration masks."""
    h = fvals.copy()
    total = np.zeros(fvals.shape[:2])
    steps = []
    for _ in range(iterations):
        m = np.tensordot(h, wvals, axes=([2], [0]))
        if softmax:
            e = np.exp(m - m.max())
            nm = e / e.sum()
            nm = nm / nm.max()
        else:
            lo, hi = m.min(), m.max()
            nm = np.zeros_like(m) if hi - lo < 1e-12 else (m - lo) / (hi - lo)
        steps.append(nm)
        total = total + nm
        h = h * (1.0 - nm)[:, :, None]
    lo, hi = total.min(), total.max()
    final = np.zeros_like(total) if hi - lo < 1e-12 else (total - lo) / (hi - lo)
    return final, fvals * (1.0 - final)[:, :, None], steps


def _einsum_mine(stack, weights, cfg):
    """mine with both contractions written as einsums over the (n, H, W, d)
    stack: the reference the per-map matmuls are checked against."""
    activation = np.einsum("...hwd,...d->...hw", stack, weights)
    trace = []
    for _ in range(cfg.iterations):
        step = minmax_norm(activation) if cfg.norm_kind == "minmax" else spatial_softmax(activation)
        trace.append(step)
        activation = activation * (1.0 - step)
    final = minmax_norm(sum(trace))
    cells = final.shape[-2] * final.shape[-1]
    return final, np.einsum("nhw,nhwd->nd", 1.0 - final, stack) / cells, trace


class TestCam:
    def test_one_hot_selects_channel(self):
        rng = np.random.default_rng(0)
        fvals = rng.normal(size=(3, 4, 5))
        w = np.zeros(5)
        w[2] = 1.0
        out = cam(fvals, w)
        np.testing.assert_allclose(out, fvals[:, :, 2], atol=1e-15)

    def test_constant_input(self):
        f = np.ones((2, 3, 4))
        w = np.array([0.5, -1.0, 2.0, 0.25])
        out = cam(f, w)
        np.testing.assert_allclose(out, np.full((2, 3), 1.75), atol=1e-12)

    def test_per_location_dot_oracle(self):
        rng = np.random.default_rng(1)
        fvals = rng.normal(size=(3, 3, 4))
        w = rng.normal(size=4)
        out = cam(fvals, w)
        for a in range(3):
            for b in range(3):
                expected = sum(w[c] * fvals[a, b, c] for c in range(4))
                assert out[a, b] == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("shape", [(8, 8, 64), (25, 8, 8, 64), (5, 5, 640), (50, 5, 5, 640)])
    def test_matches_einsum_oracle(self, shape):
        # one matmul per map over its (H*W, d) cells; the channel sums agree
        # with the einsum contraction to rounding, relative to |cell| |w|
        rng = np.random.default_rng(shape[-1])
        f = rng.normal(size=shape)
        w = rng.normal(size=shape[:-3] + shape[-1:])
        out = cam(f, w)
        expected = np.einsum("...hwd,...d->...hw", f, w)
        assert out.shape == expected.shape == shape[:-1]
        scale = np.linalg.norm(f, axis=-1) * np.linalg.norm(w, axis=-1)[..., None, None]
        assert np.all(np.abs(out - expected) <= 1e-13 * scale)

    def test_fewer_than_three_axes_rejected(self):
        with pytest.raises(ValueError, match=re.escape("need shape (..., H, W, d), got (4, 3)")):
            cam(np.zeros((4, 3)), np.ones(3))


class TestMineMatchesEinsum:
    """mine's per-map matmuls (the activation maps and the background
    contraction) against the einsum contractions they replace: masks within
    1e-13, backgrounds within 1e-13 of their row norms. The weights are scaled
    by 1/sqrt(d) so activations stay of order one, as on the synthetic data."""

    @pytest.mark.parametrize("norm_kind", ["minmax", "softmax"])
    @pytest.mark.parametrize(
        "shape,flat", [((1, 8, 8, 64), False), ((25, 8, 8, 64), True), ((50, 5, 5, 640), True)]
    )
    def test_masks_and_backgrounds(self, shape, flat, norm_kind):
        rng = np.random.default_rng(shape[0])
        stack = rng.normal(size=shape)
        if flat:  # every cell of one map holds the same features
            stack[3] = stack[3, :1, :1]
        weights = rng.normal(size=(shape[0], shape[-1])) / np.sqrt(shape[-1])
        cfg = ProCamConfig(iterations=4, norm_kind=norm_kind)
        masks, backgrounds, trace = mine(stack, weights, cfg)
        want_masks, want_backgrounds, want_trace = _einsum_mine(stack, weights, cfg)
        np.testing.assert_allclose(masks, want_masks, rtol=0, atol=1e-13)
        assert len(trace) == len(want_trace) == 4
        for step, want in zip(trace, want_trace):
            np.testing.assert_allclose(step, want, rtol=0, atol=1e-13)
        norms = np.linalg.norm(want_backgrounds, axis=1)
        assert np.all(np.abs(backgrounds - want_backgrounds).max(axis=1) <= 1e-13 * norms)
        if flat:
            assert not masks[3].any()
            np.testing.assert_allclose(backgrounds[3], stack[3, 0, 0], rtol=1e-13)


class TestMineWidensFloat32:
    @pytest.mark.parametrize("data", ["std", "wide"])
    def test_dataset_maps_mine_as_their_float64_widening(self, benchmark_dataset, data):
        # the dataset's float32 support maps, as `fsosr heatmap` passes them, on
        # the benchmark's 8x8x64 maps (5-way) and the ResNet-12 shape 5x5x640 (10-way)
        if data == "std":
            ds, spec = benchmark_dataset[1], EpisodeSpec(n_way=5)
        else:
            wide = dataclasses.replace(benchmark_config(), num_classes=15, items_per_class=15,
                                       height=5, width=5, channels=640, fg_regions=None)
            ds, spec = generate_synthetic(wide)[0], EpisodeSpec(n_way=10)
        for seed in range(20):
            episode = sample_episode(ds, spec, seed)
            labels = episode.support_labels
            known = build_known_prototypes(ds.embeddings[episode.support], labels, spec.n_way, spec.k_shot)
            cfg = ProCamConfig(norm_kind=NORM_KINDS[seed % 2])
            maps = ds.values[episode.support]
            assert maps.dtype == np.float32
            masks, backgrounds, trace = mine(maps, known[labels], cfg)
            want_masks, want_backgrounds, want_trace = mine(maps.astype(np.float64), known[labels], cfg)
            assert len(trace) == len(want_trace) == cfg.iterations
            for got, want in zip((masks, backgrounds, *trace), (want_masks, want_backgrounds, *want_trace)):
                assert got.dtype == np.float64
                assert got.tobytes() == want.tobytes()


class TestProcam:
    """mine on one-map stacks, f[None] with w[None]."""

    def test_single_iteration_reduction(self):
        rng = np.random.default_rng(2)
        f = rng.normal(size=(4, 4, 6))
        w = rng.normal(size=6)
        [mask], [background], _ = mine(f[None], w[None], ProCamConfig(iterations=1))
        expected_mask = minmax_norm(cam(f, w))
        np.testing.assert_array_equal(mask, expected_mask)
        expected_background = (f * (1.0 - expected_mask)[:, :, None]).mean(axis=(0, 1))
        np.testing.assert_allclose(background, expected_background, rtol=0, atol=1e-12)

    def test_point_activation(self):
        fvals = np.zeros((3, 3, 2))
        fvals[1, 2, 0] = 5.0
        [mask], [background], _ = mine(fvals[None], np.array([[1.0, 0.0]]), ProCamConfig(iterations=3))
        assert mask[1, 2] == pytest.approx(1.0)
        others = mask.copy()
        others[1, 2] = 0.0
        assert np.all(others == 0.0)
        # the only nonzero feature sits under the mask
        np.testing.assert_array_equal(background, np.zeros(2))

    def test_loop_oracle_minmax(self):
        rng = np.random.default_rng(3)
        fvals = rng.normal(size=(6, 6, 8))
        wvals = rng.normal(size=8)
        [mask], [background], trace = mine(fvals[None], wvals[None], ProCamConfig(iterations=4))
        final, expected_background, steps = _loop_oracle(fvals, wvals, 4)
        np.testing.assert_allclose(mask, final, atol=1e-9)
        np.testing.assert_allclose(background, expected_background.mean(axis=(0, 1)), atol=1e-9)
        assert len(trace) == 4
        for [got], expected in zip(trace, steps):
            np.testing.assert_allclose(got, expected, atol=1e-9)

    def test_loop_oracle_softmax_mode(self):
        rng = np.random.default_rng(4)
        fvals = rng.normal(size=(5, 5, 6))
        wvals = rng.normal(size=6)
        [mask], [background], _ = mine(
            fvals[None], wvals[None], ProCamConfig(iterations=3, norm_kind="softmax")
        )
        final, expected_background, _ = _loop_oracle(fvals, wvals, 3, softmax=True)
        np.testing.assert_allclose(mask, final, atol=1e-9)
        np.testing.assert_allclose(background, expected_background.mean(axis=(0, 1)), atol=1e-9)

    @pytest.mark.parametrize("norm_kind", ["minmax", "softmax"])
    def test_running_mask_sum_is_the_sum_of_the_trace(self, monkeypatch, norm_kind):
        # the final normalization gets the masks summed as mine goes, which
        # must be sum(trace) bit for bit; the stack holds a zero map and a flat one
        totals = []
        monkeypatch.setattr(procam, "minmax_norm", lambda m: totals.append(m) or minmax_norm(m))
        rng = np.random.default_rng(21)
        stack = rng.normal(size=(6, 5, 4, 8))
        stack[2], stack[4] = 0.0, stack[4, :1, :1]
        masks, _, trace = mine(stack, rng.normal(size=(6, 8)), ProCamConfig(iterations=4, norm_kind=norm_kind))
        assert totals[-1].tobytes() == sum(trace).tobytes()
        assert masks.tobytes() == minmax_norm(sum(trace)).tobytes()

    def test_trace_kept_by_default(self):
        f = np.random.default_rng(5).normal(size=(3, 3, 2))
        _, _, trace = mine(f[None], np.array([[1.0, 0.0]]), ProCamConfig(iterations=2))
        assert len(trace) == 2
        assert all(step.shape == (1, 3, 3) for step in trace)

    def test_invalid_config(self):
        with pytest.raises(ValueError, match="iterations"):
            ProCamConfig(iterations=0)
        with pytest.raises(ValueError, match="norm kind"):
            ProCamConfig(norm_kind="zscore")


class TestProcamInvariants:
    def test_monotone_suppression_and_coverage(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            fvals = rng.normal(size=(5, 5, 6))
            wvals = rng.normal(size=6)
            h = fvals.copy()
            running = np.zeros((5, 5))
            for _ in range(4):
                m = np.tensordot(h, wvals, axes=([2], [0]))
                lo, hi = m.min(), m.max()
                nm = np.zeros_like(m) if hi - lo < 1e-12 else (m - lo) / (hi - lo)
                new_running = running + nm
                assert np.all(new_running >= running - 1e-15)
                new_h = h * (1.0 - nm)[:, :, None]
                assert np.all(np.abs(new_h) <= np.abs(h) + 1e-15)
                h, running = new_h, new_running

    def test_scale_invariance_minmax(self):
        rng = np.random.default_rng(7)
        fvals = rng.normal(size=(4, 4, 5))
        wvals = rng.normal(size=5)
        cfg = ProCamConfig(iterations=3)
        base_mask, _, base_trace = mine(fvals[None], wvals[None], cfg)
        for alpha in (0.01, 1.0, 100.0):
            mask, _, trace = mine(alpha * fvals[None], wvals[None], cfg)
            np.testing.assert_allclose(mask, base_mask, atol=1e-9)
            for got, expected in zip(trace, base_trace):
                np.testing.assert_allclose(got, expected, atol=1e-9)

    def test_final_mask_range(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            f = rng.normal(size=(4, 4, 3))
            [vals], _, _ = mine(f[None], rng.normal(size=3)[None], ProCamConfig(iterations=4))
            assert vals.min() >= 0.0 and vals.max() <= 1.0
            assert vals.min() == 0.0 and vals.max() == pytest.approx(1.0)

    def test_synthetic_foreground_mean_exceeds_background(self, default_dataset):
        ds, masks = default_dataset
        protos = {}
        for c in range(ds.num_classes):
            protos[c] = ds.embeddings[ds.class_index[c]].mean(axis=0)
        for tau in (1, 2, 3, 4):
            cfg = ProCamConfig(iterations=tau)
            for c in range(ds.num_classes):
                fg_means, bkg_means = [], []
                for i in ds.class_index[c]:
                    [mask], _, _ = mine(ds.values[i][None].astype(np.float64), protos[c][None], cfg)
                    gt = masks[i]
                    fg_means.append(mask[gt].mean())
                    bkg_means.append(mask[~gt].mean())
                assert np.mean(fg_means) > np.mean(bkg_means), f"class {c}, tau {tau}"


def _mine_supports(supports, known, cfg):
    """procam_for_support with the supports' pooled rows as the caller's
    foregrounds."""
    pooled = spatial_avg_pool(np.stack([fmap.values for fmap, _ in supports]))
    return procam_for_support(supports, known, cfg, pooled)


class TestBackgroundEmbedding:
    """The background embeddings that procam_for_support hands to fine-tuning."""

    def test_zero_mask_equals_pool(self):
        # constant activation map -> degenerate range -> zero mask -> no-op
        fvals = np.ones((3, 3, 4)) * np.arange(1.0, 5.0)
        f = _Held(fvals)
        [(_, bg)] = _mine_supports([(f, 0)], np.ones((1, 4)), ProCamConfig(iterations=2))
        np.testing.assert_allclose(bg.values, spatial_avg_pool(fvals), atol=1e-12)

    def test_full_mask_gives_zero_vector(self):
        # every nonzero feature sits in the cell the mask covers fully
        fvals = np.zeros((2, 2, 3))
        fvals[0, 1] = np.random.default_rng(9).uniform(1.0, 2.0, size=3)
        [(_, bg)] = _mine_supports(
            [(_Held(fvals), 0)], np.ones((1, 3)), ProCamConfig(iterations=2)
        )
        np.testing.assert_array_equal(bg.values, np.zeros(3))

    def test_pooling_oracle(self):
        rng = np.random.default_rng(10)
        f = _Held(rng.normal(size=(4, 4, 5)))
        w = rng.normal(size=5)
        cfg = ProCamConfig(iterations=2)
        [(_, bg)] = _mine_supports([(f, 0)], w[None], cfg)
        np.testing.assert_allclose(bg.values, mine(f.values[None], w[None], cfg)[1][0], atol=1e-12)


class TestProcamForSupport:
    def test_degenerate_cam_keeps_foreground_embedding(self):
        fvals = np.ones((3, 3, 2))
        supports = [(_Held(fvals), 0)]
        pairs = _mine_supports(supports, np.array([[1.0, 1.0]]), ProCamConfig(iterations=2))
        fg, bg = pairs[0]
        np.testing.assert_allclose(fg.values, bg.values, atol=1e-12)

    def test_disjoint_point_activations(self):
        d = 3
        bank_rows = np.eye(d)
        supports = []
        for c in range(d):
            fvals = np.zeros((3, 3, d))
            fvals[c, c, c] = 4.0
            supports.append((_Held(fvals), c))
        pairs = _mine_supports(supports, bank_rows, ProCamConfig(iterations=1))
        for c, (fg, bg) in enumerate(pairs):
            assert fg.values[c] == pytest.approx(4.0 / 9)
            assert bg.values[c] == pytest.approx(0.0, abs=1e-12)

    def test_pipeline_oracle(self):
        cfg = SyntheticConfig(num_classes=5, items_per_class=5, seed=3)
        ds, _ = generate_synthetic(cfg)
        supports = [(_Held(ds.values[i]), c) for c in range(5) for i in ds.class_index[c][:5]]
        pooled = spatial_avg_pool(np.stack([f.values for f, _ in supports]))
        known = build_known_prototypes(pooled, np.array([c for _, c in supports]), 5, 5)
        pc = ProCamConfig(iterations=4)
        pairs = _mine_supports(supports, known, pc)
        for (fmap, label), (fg, bg) in zip(supports, pairs):
            [background] = mine(fmap.values[None], known[label][None], pc)[1]
            np.testing.assert_allclose(fg.values, spatial_avg_pool(fmap.values), atol=1e-12)
            np.testing.assert_allclose(bg.values, background, atol=1e-12)

    @pytest.mark.parametrize("norm_kind", ["minmax", "softmax"])
    def test_mixed_flat_batch_matches_loop_oracle(self, norm_kind):
        # one flat item (every cell has the same features, so its CAM is
        # constant) among normal items of very different scales: a min or max
        # taken over the batch instead of per item would move every result.
        # The last item activates one cell and is negative everywhere else, so
        # the first pass suppresses its peak fully and that zeroed cell is the
        # maximum of every later pass.
        rng = np.random.default_rng(11)
        d = 6
        known = rng.normal(size=(3, d))
        w = known[1]
        peaked = -rng.uniform(0.5, 1.0, size=(4, 5))
        peaked[2, 3] = 3.0
        maps = [
            rng.normal(size=(4, 5, d)),
            100.0 * rng.normal(size=(4, 5, d)),
            np.ones((4, 5, d)) * rng.normal(size=d),
            0.01 * rng.normal(size=(4, 5, d)),
            peaked[:, :, None] * (w / np.dot(w, w)),
        ]
        labels = [0, 1, 0, 2, 1]
        cfg = ProCamConfig(iterations=4, norm_kind=norm_kind)
        pairs = _mine_supports([(_Held(m), c) for m, c in zip(maps, labels)], known, cfg)
        masks, backgrounds, trace = mine(np.stack(maps), known[labels], cfg)
        assert backgrounds.shape == (len(maps), d)
        for i, (fvals, label, (fg, bg)) in enumerate(zip(maps, labels, pairs)):
            final, background, steps = _loop_oracle(
                fvals, known[label], 4, softmax=norm_kind == "softmax"
            )
            np.testing.assert_allclose(masks[i], final, rtol=0, atol=1e-12)
            for step, expected in zip(trace, steps):
                np.testing.assert_allclose(step[i], expected, rtol=0, atol=1e-12)
            expected_bg = background.mean(axis=(0, 1))
            np.testing.assert_allclose(backgrounds[i], expected_bg, rtol=0, atol=1e-12)
            np.testing.assert_allclose(fg.values, fvals.mean(axis=(0, 1)), rtol=0, atol=1e-12)
            np.testing.assert_allclose(bg.values, expected_bg, rtol=0, atol=1e-12)
        # the peak is gone after one pass and stays the maximum afterwards
        assert trace[0][4][2, 3] == 1.0
        assert all(step[4][2, 3] == 1.0 for step in trace[1:])
        # the flat item is left untouched
        np.testing.assert_allclose(pairs[2][1].values, maps[2].mean(axis=(0, 1)), rtol=0, atol=1e-12)


class TestMaskIou:
    def test_perfect_and_disjoint(self):
        gt = np.zeros((3, 3), dtype=bool)
        gt[0, 0] = True
        exact = np.zeros((3, 3))
        exact[0, 0] = 1.0
        assert mask_iou(exact, gt) == 1.0
        disjoint = np.zeros((3, 3))
        disjoint[2, 2] = 1.0
        assert mask_iou(disjoint, gt) == 0.0

    def test_threshold(self):
        gt = np.array([[True, False]])
        assert mask_iou(np.array([[0.4, 0.0]]), gt) == 0.0
        assert mask_iou(np.array([[0.5, 0.0]]), gt) == 1.0
