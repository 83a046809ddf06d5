import dataclasses

import numpy as np
import pytest

from fsosr.classifier import build_known_prototypes, predict
from fsosr.episode import (
    EpisodeSpec,
    FeatureDataset,
    NonFiniteItemError,
    SyntheticConfig,
    benchmark_config,
    derive_episode_seed,
    foreground_profile,
    generate_synthetic,
    resolve_fg_regions,
    sample_episode,
    spatial_avg_pool,
)
from fsosr.metrics import accuracy
from fsosr.procam import cam


def tiny_dataset(num_classes=10, items_per_class=8, h=2, w=2, d=3, seed=0):
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(num_classes * items_per_class, h, w, d))
    return FeatureDataset(values, np.repeat(np.arange(num_classes), items_per_class))


def closed_classes(ds, ep, k_shot):
    """The dataset labels of an episode's closed classes in episode-class
    order: the label of each class's first support."""
    return ds.labels[ep.support[::k_shot]]


def tuple_sampler_oracle(ds, spec, seed):
    """The sampler as it was when episodes were tuples of items: the same rng
    calls in the same order, with each item given by its dataset index.
    Returns (support, known_queries, unknown_queries, closed classes), the
    first two as (index, episode class) pairs."""
    rng = np.random.default_rng(seed)
    chosen = rng.choice(ds.num_classes, size=spec.n_way + spec.n_open_classes, replace=False)
    closed = [int(c) for c in chosen[: spec.n_way]]
    support, known = [], []
    for episode_class, label in enumerate(closed):
        pool = tuple(ds.class_index[label])
        picks = rng.choice(len(pool), size=spec.k_shot + spec.n_query, replace=False)
        support += [(pool[p], episode_class) for p in picks[: spec.k_shot]]
        known += [(pool[p], episode_class) for p in picks[spec.k_shot :]]
    unknown = []
    for label in chosen[spec.n_way :]:
        pool = tuple(ds.class_index[int(label)])
        unknown += [pool[p] for p in rng.choice(len(pool), size=spec.n_open_query, replace=False)]
    return support, known, unknown, tuple(closed)


class TestFeatureDataset:
    def test_rejects_sparse_labels(self):
        with pytest.raises(ValueError, match="dense"):
            FeatureDataset(np.zeros((2, 2, 2, 3)), [0, 2])

    def test_sparse_label_message_is_bounded(self):
        with pytest.raises(ValueError, match=r"99999 missing, first \[1, 2, 3, 4, 5\]") as info:
            FeatureDataset(np.zeros((2, 1, 1, 1)), [0, 100000])
        assert len(str(info.value)) < 1024

    def test_class_index(self):
        ds = tiny_dataset(num_classes=3, items_per_class=2)
        assert ds.num_classes == 3
        assert tuple(ds.class_index[1]) == (2, 3)

    def test_class_index_follows_dataset_order(self):
        ds = FeatureDataset(np.zeros((5, 1, 1, 1)), [1, 0, 1, 0, 1])
        assert [tuple(ds.class_index[c]) for c in range(2)] == [(1, 3), (0, 2, 4)]

    def test_rejects_bad_tensor_and_labels(self):
        with pytest.raises(ValueError, match="non-empty"):
            FeatureDataset(np.zeros((2, 2, 3)), [0, 0])
        with pytest.raises(ValueError, match="non-empty"):
            FeatureDataset(np.zeros((0, 2, 2, 3)), [])
        with pytest.raises(ValueError, match="integer labels"):
            FeatureDataset(np.zeros((2, 1, 1, 1)), [0])
        with pytest.raises(ValueError, match="integer labels"):
            FeatureDataset(np.zeros((2, 1, 1, 1)), [0.0, 1.0])
        with pytest.raises(ValueError, match="item 1 has negative label -1"):
            FeatureDataset(np.zeros((2, 1, 1, 1)), [0, -1])

    def test_rejects_non_finite_item(self):
        values = np.zeros((4, 2, 2, 3))
        values[2, 1, 0, 2] = np.nan
        with pytest.raises(ValueError, match="item 2 contains non-finite values"):
            FeatureDataset(values, [0, 0, 1, 1])

    @pytest.mark.filterwarnings("error")
    def test_value_beyond_float32_range_is_named(self):
        # finite, but cast to float32 it would be inf, which the input never held
        with pytest.raises(ValueError, match=r"^item 0 holds a value beyond float32's range ±3\.4028235e\+38$"):
            FeatureDataset(np.full((2, 1, 1, 1), 1e300), [0, 1])
        values = np.zeros((3, 1, 2, 1))
        values[2, 0, 1, 0] = -1e39
        with pytest.raises(ValueError, match="^item 2 holds a value beyond"):
            FeatureDataset(values, [0, 1, 1])
        # NaN and inf are the input's own non-finite values
        for bad in (np.nan, np.inf, -np.inf):
            values[1, 0, 0, 0] = bad
            with pytest.raises(NonFiniteItemError, match="^item 1 contains non-finite values$"):
                FeatureDataset(values, [0, 1, 1])

    def test_tensor_is_read_only(self):
        source = np.ones((2, 1, 1, 2))
        ds = FeatureDataset(source, [0, 1])
        for arr in (ds.values, ds.embeddings, ds.labels, ds.class_index[0]):
            assert not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            ds.values[0, 0, 0, 0] = 5.0
        # a writable source is copied, so changing it leaves the dataset alone
        source[0] = 7.0
        assert ds.values[0, 0, 0, 0] == 1.0
        frozen = ds.values
        assert FeatureDataset(frozen, [0, 1]).values is frozen

    def test_tensor_is_held_as_float32(self):
        wide = np.linspace(-3.0, 3.0, 24).reshape(2, 2, 2, 3)
        ds = FeatureDataset(wide, [0, 1])
        assert ds.values.dtype == np.float32 and ds.embeddings.dtype == np.float64
        np.testing.assert_array_equal(ds.values, wide.astype(np.float32))
        # a writable float32 tensor is copied, a read-only one is kept as it is
        narrow = wide.astype(np.float32)
        assert not np.shares_memory(FeatureDataset(narrow, [0, 1]).values, narrow)
        narrow.flags.writeable = False
        assert FeatureDataset(narrow, [0, 1]).values is narrow

    @pytest.mark.parametrize("shape", [(8, 8, 64), (5, 5, 640)])
    def test_embeddings_equal_per_item_pool(self, shape):
        h, w, d = shape
        cfg = dataclasses.replace(
            benchmark_config(), num_classes=24, items_per_class=3, height=h, width=w,
            channels=d, fg_regions=None,
        )
        ds, _ = generate_synthetic(cfg)
        for i in range(len(ds)):
            assert np.array_equal(ds.embeddings[i], spatial_avg_pool(ds.values[i]))
        # and as an episode's stack of maps was pooled before
        picks = np.random.default_rng(0).choice(len(ds), size=25, replace=False)
        stack = np.stack([np.array(ds.values[i]) for i in picks])
        assert np.array_equal(ds.embeddings[picks], spatial_avg_pool(stack))


class TestSampleEpisode:
    def test_forced_selection_uses_every_class(self):
        ds = tiny_dataset(num_classes=7, items_per_class=4)
        spec = EpisodeSpec(n_way=2, k_shot=2, n_query=2, n_open_classes=5, n_open_query=4)
        ep = sample_episode(ds, spec, 11)
        # 2 closed + 5 open = all 7 classes in play; closed classes use all 4 items
        assert len(set(closed_classes(ds, ep, spec.k_shot).tolist())) == 2
        assert len(ep.support) == 4 and len(ep.known_queries) == 4
        assert len(ep.unknown_queries) == 20

    def test_determinism_and_seed_sensitivity(self):
        ds = tiny_dataset()
        spec = EpisodeSpec(n_way=3, k_shot=2, n_query=2, n_open_classes=2, n_open_query=2)
        a = sample_episode(ds, spec, 5)
        b = sample_episode(ds, spec, 5)
        np.testing.assert_array_equal(closed_classes(ds, a, 2), closed_classes(ds, b, 2))
        for field in ("support", "support_labels", "known_queries", "known_labels", "unknown_queries"):
            np.testing.assert_array_equal(getattr(a, field), getattr(b, field))
        c = sample_episode(ds, spec, 6)
        same_classes = np.array_equal(closed_classes(ds, a, 2), closed_classes(ds, c, 2))
        assert not (same_classes and np.array_equal(a.support, c.support))

    def test_no_item_reused_within_episode(self):
        ds = tiny_dataset()
        spec = EpisodeSpec(n_way=4, k_shot=3, n_query=3, n_open_classes=3, n_open_query=5)
        ep = sample_episode(ds, spec, 3)
        seen = np.concatenate([ep.support, ep.known_queries, ep.unknown_queries]).tolist()
        assert len(seen) == len(set(seen))

    def test_labels_match_class_mapping(self):
        ds = tiny_dataset()
        spec = EpisodeSpec(n_way=4, k_shot=3, n_query=2, n_open_classes=3, n_open_query=5)
        ep = sample_episode(ds, spec, 8)
        mapping = closed_classes(ds, ep, spec.k_shot)
        assert len(set(mapping.tolist())) == spec.n_way
        np.testing.assert_array_equal(ds.labels[ep.support], mapping[ep.support_labels])
        np.testing.assert_array_equal(ds.labels[ep.known_queries], mapping[ep.known_labels])
        assert not set(ds.labels[ep.unknown_queries].tolist()) & set(mapping.tolist())

    def test_index_arrays_match_tuple_sampler_oracle(self):
        ds = tiny_dataset(num_classes=12, items_per_class=9)
        for seed in range(200):
            spec = EpisodeSpec(n_way=1 + 1 + seed % 5, k_shot=1 + seed % 4, n_query=1 + seed % 3,
                               n_open_classes=1 + seed % 5, n_open_query=1 + seed % 9)
            ep = sample_episode(ds, spec, derive_episode_seed(31, seed))
            support, known, unknown, mapping = tuple_sampler_oracle(ds, spec, derive_episode_seed(31, seed))
            assert tuple(closed_classes(ds, ep, spec.k_shot).tolist()) == mapping
            assert list(zip(ep.support.tolist(), ep.support_labels.tolist())) == support
            assert list(zip(ep.known_queries.tolist(), ep.known_labels.tolist())) == known
            assert ep.unknown_queries.tolist() == unknown

    def test_closed_class_frequencies_near_uniform(self):
        ds = tiny_dataset(num_classes=20, items_per_class=8)
        spec_base = EpisodeSpec(n_way=5, k_shot=2, n_query=2, n_open_classes=5, n_open_query=2)
        counts = np.zeros(20)
        n_episodes = 600
        for i in range(n_episodes):
            ep = sample_episode(ds, spec_base, derive_episode_seed(42, i))
            for label in closed_classes(ds, ep, spec_base.k_shot):
                counts[label] += 1
        expected = n_episodes * 5 / 20
        sigma = np.sqrt(n_episodes * (5 / 20) * (15 / 20))
        assert np.all(np.abs(counts - expected) <= 3 * sigma)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            EpisodeSpec(n_way=1)
        with pytest.raises(ValueError):
            EpisodeSpec(n_query=0)


class TestDeriveEpisodeSeed:
    def test_deterministic_and_distinct(self):
        a = derive_episode_seed(7, 3)
        assert a == derive_episode_seed(7, 3)
        assert a != derive_episode_seed(7, 4)
        assert a != derive_episode_seed(8, 3)
        assert a != derive_episode_seed(7, 3, stream=1)


class TestGenerateSynthetic:
    def test_noiseless_items_identical_and_carry_signature(self):
        cfg = SyntheticConfig(num_classes=3, items_per_class=4, noise_sigma=0.0, seed=1)
        ds, masks = generate_synthetic(cfg)
        regions = resolve_fg_regions(cfg)
        for c in range(3):
            idx = ds.class_index[c]
            first = ds.values[idx[0]]
            for i in idx[1:]:
                np.testing.assert_array_equal(ds.values[i], first)
            profile = foreground_profile(regions[c], cfg.height, cfg.width)
            mask = profile > 0
            # the stored profile is the float64 one rounded to float32 once
            np.testing.assert_array_equal(
                first[:, :, c], (profile * cfg.signal_strength).astype(np.float32)
            )
            # foreground cells carry exactly the class signature: all other channels zero there
            for ch in range(cfg.channels):
                if ch == c:
                    continue
                assert np.all(first[mask, ch] == 0.0)
            np.testing.assert_array_equal(
                first[~mask, cfg.num_classes], np.full((~mask).sum(), np.float32(cfg.bkg_strength))
            )

    def test_masks_align_with_regions(self):
        cfg = SyntheticConfig(num_classes=4, items_per_class=2, seed=2)
        ds, masks = generate_synthetic(cfg)
        regions = resolve_fg_regions(cfg)
        for i, label in enumerate(ds.labels):
            top, left, rh, rw = regions[label]
            expected = np.zeros((cfg.height, cfg.width), dtype=bool)
            expected[top : top + rh, left : left + rw] = True
            np.testing.assert_array_equal(masks[i], expected)

    def test_zero_signal_gives_chance_accuracy(self):
        cfg = SyntheticConfig(num_classes=10, items_per_class=12, channels=16,
                              signal_strength=0.0, noise_sigma=0.1, seed=3)
        ds, _ = generate_synthetic(cfg)
        hits = []
        for i in range(60):
            ep = sample_episode(ds, EpisodeSpec(n_way=5, k_shot=5, n_query=5, n_open_classes=5,
                                                n_open_query=5), derive_episode_seed(9, i))
            known = build_known_prototypes(ds.embeddings[ep.support], ep.support_labels, 5, 5)
            rows, _ = predict(known, 5, ds.embeddings[ep.known_queries])
            hits.append(accuracy(rows, ep.known_labels))
        assert abs(np.mean(hits) - 0.2) < 0.06

    def test_class_mean_cam_highlights_foreground(self, default_dataset):
        ds, masks = default_dataset
        protos = {}
        for c in range(ds.num_classes):
            protos[c] = ds.embeddings[ds.class_index[c]].mean(axis=0)
        for i, label in enumerate(ds.labels):
            activation = cam(ds.values[i], protos[label])
            gt = masks[i]
            assert activation[gt].mean() > activation[~gt].mean()

    def test_channel_budget_errors(self):
        with pytest.raises(ValueError, match="num_classes \\+ 1"):
            generate_synthetic(SyntheticConfig(num_classes=5, channels=5))
        with pytest.raises(ValueError, match="num_classes \\+ 2"):
            generate_synthetic(SyntheticConfig(num_classes=5, channels=6, bkg_noise_scale=1.0))

    def test_explicit_regions_validated(self):
        with pytest.raises(ValueError, match="exceeds"):
            resolve_fg_regions(SyntheticConfig(num_classes=1, fg_regions=((6, 6, 4, 4),)))
        with pytest.raises(ValueError, match="need 2"):
            resolve_fg_regions(SyntheticConfig(num_classes=2, fg_regions=((0, 0, 2, 2),)))

    def test_background_energy_shift_varies_items(self):
        cfg = SyntheticConfig(num_classes=2, items_per_class=6, channels=8,
                              noise_sigma=0.05, bkg_noise_mean=10.0, bkg_noise_scale=5.0, seed=4)
        ds, _ = generate_synthetic(cfg)
        shift_channel = cfg.num_classes + 1
        per_item = ds.values[:, :, :, shift_channel].mean(axis=(1, 2))
        assert np.std(per_item) > 0.05
        assert np.mean(per_item) == pytest.approx(0.5, abs=0.3)

    def test_generation_deterministic(self):
        cfg = SyntheticConfig(seed=11)
        a, _ = generate_synthetic(cfg)
        b, _ = generate_synthetic(cfg)
        np.testing.assert_array_equal(a.labels, b.labels)
        assert a.values.tobytes() == b.values.tobytes()
