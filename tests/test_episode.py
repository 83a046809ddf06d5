import numpy as np
import pytest

from fsosr.classifier import build_known_prototypes, predict
from fsosr.episode import (
    EpisodeSpec,
    FeatureDataset,
    SyntheticConfig,
    derive_episode_seed,
    foreground_profile,
    generate_synthetic,
    resolve_fg_regions,
    sample_episode,
)
from fsosr.featmap import FeatureMap, spatial_avg_pool
from fsosr.metrics import accuracy
from fsosr.procam import cam


def tiny_dataset(num_classes=10, items_per_class=8, h=2, w=2, d=3, seed=0):
    rng = np.random.default_rng(seed)
    items = []
    for c in range(num_classes):
        for _ in range(items_per_class):
            items.append((FeatureMap(rng.normal(size=(h, w, d))), c))
    return FeatureDataset(items)


class TestFeatureDataset:
    def test_rejects_mixed_shapes(self):
        items = [(FeatureMap(np.zeros((2, 2, 3))), 0), (FeatureMap(np.zeros((2, 3, 3))), 0)]
        with pytest.raises(ValueError, match="shape"):
            FeatureDataset(items)

    def test_rejects_sparse_labels(self):
        items = [(FeatureMap(np.zeros((2, 2, 3))), 0), (FeatureMap(np.zeros((2, 2, 3))), 2)]
        with pytest.raises(ValueError, match="dense"):
            FeatureDataset(items)

    def test_sparse_label_message_is_bounded(self):
        items = [(FeatureMap(np.zeros((1, 1, 1))), 0), (FeatureMap(np.zeros((1, 1, 1))), 100000)]
        with pytest.raises(ValueError, match=r"99999 missing, first \[1, 2, 3, 4, 5\]") as info:
            FeatureDataset(items)
        assert len(str(info.value)) < 1024

    def test_class_index(self):
        ds = tiny_dataset(num_classes=3, items_per_class=2)
        assert ds.num_classes == 3
        assert ds.class_index[1] == (2, 3)


class TestSampleEpisode:
    def test_forced_selection_uses_every_class(self):
        ds = tiny_dataset(num_classes=7, items_per_class=4)
        spec = EpisodeSpec(n_way=2, k_shot=2, n_query=2, n_open_classes=5, n_open_query=4, seed=11)
        ep = sample_episode(ds, spec)
        # 2 closed + 5 open = all 7 classes in play; closed classes use all 4 items
        assert len(set(ep.class_mapping)) == 2
        assert len(ep.support) == 4 and len(ep.known_queries) == 4
        assert len(ep.unknown_queries) == 20

    def test_determinism_and_seed_sensitivity(self):
        ds = tiny_dataset()
        spec = EpisodeSpec(n_way=3, k_shot=2, n_query=2, n_open_classes=2, n_open_query=2, seed=5)
        a = sample_episode(ds, spec)
        b = sample_episode(ds, spec)
        assert a.class_mapping == b.class_mapping
        for (fa, ca), (fb, cb) in zip(a.support, b.support):
            assert fa is fb and ca == cb
        c = sample_episode(ds, EpisodeSpec(n_way=3, k_shot=2, n_query=2, n_open_classes=2, n_open_query=2, seed=6))
        same = a.class_mapping == c.class_mapping and all(
            fa is fc for (fa, _), (fc, _) in zip(a.support, c.support)
        )
        assert not same

    def test_no_item_reused_within_episode(self):
        ds = tiny_dataset()
        spec = EpisodeSpec(n_way=4, k_shot=3, n_query=3, n_open_classes=3, n_open_query=5, seed=3)
        ep = sample_episode(ds, spec)
        seen = [id(f) for f, _ in ep.support]
        seen += [id(f) for f, _ in ep.known_queries]
        seen += [id(f) for f in ep.unknown_queries]
        assert len(seen) == len(set(seen))

    def test_closed_class_frequencies_near_uniform(self):
        ds = tiny_dataset(num_classes=20, items_per_class=8)
        spec_base = EpisodeSpec(n_way=5, k_shot=2, n_query=2, n_open_classes=5, n_open_query=2)
        counts = np.zeros(20)
        n_episodes = 600
        for i in range(n_episodes):
            ep = sample_episode(ds, EpisodeSpec(**{**spec_base.__dict__, "seed": derive_episode_seed(42, i)}))
            for label in ep.class_mapping:
                counts[label] += 1
        expected = n_episodes * 5 / 20
        sigma = np.sqrt(n_episodes * (5 / 20) * (15 / 20))
        assert np.all(np.abs(counts - expected) <= 3 * sigma)

    def test_insufficient_classes_error(self):
        ds = tiny_dataset(num_classes=5)
        with pytest.raises(ValueError, match="5 classes"):
            sample_episode(ds, EpisodeSpec(n_way=3, n_open_classes=3, seed=0))

    def test_insufficient_items_error(self):
        ds = tiny_dataset(num_classes=10, items_per_class=8)
        with pytest.raises(ValueError, match="items"):
            sample_episode(ds, EpisodeSpec(n_way=2, k_shot=5, n_query=5, n_open_classes=2, n_open_query=2, seed=0))

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
            first = ds.items[idx[0]][0].values
            for i in idx[1:]:
                np.testing.assert_array_equal(ds.items[i][0].values, first)
            profile = foreground_profile(regions[c], cfg.height, cfg.width)
            mask = profile > 0
            np.testing.assert_array_equal(first[:, :, c], profile * cfg.signal_strength)
            # foreground cells carry exactly the class signature: all other channels zero there
            for ch in range(cfg.channels):
                if ch == c:
                    continue
                assert np.all(first[mask, ch] == 0.0)
            np.testing.assert_array_equal(
                first[~mask, cfg.num_classes], np.full((~mask).sum(), cfg.bkg_strength)
            )

    def test_masks_align_with_regions(self):
        cfg = SyntheticConfig(num_classes=4, items_per_class=2, seed=2)
        ds, masks = generate_synthetic(cfg)
        regions = resolve_fg_regions(cfg)
        for i, (_, label) in enumerate(ds.items):
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
                                                n_open_query=5, seed=derive_episode_seed(9, i)))
            sup = spatial_avg_pool(np.stack([f.values for f, _ in ep.support]))
            bank = build_known_prototypes(sup, np.array([c for _, c in ep.support]), 5, 5)
            rows, _ = predict(bank, spatial_avg_pool(np.stack([f.values for f, _ in ep.known_queries])))
            hits.append(accuracy(zip(rows, (truth for _, truth in ep.known_queries))))
        assert abs(np.mean(hits) - 0.2) < 0.06

    def test_class_mean_cam_highlights_foreground(self, default_dataset):
        ds, masks = default_dataset
        protos = {}
        for c in range(ds.num_classes):
            pooled = spatial_avg_pool(np.stack([ds.items[i][0].values for i in ds.class_index[c]]))
            protos[c] = pooled.mean(axis=0)
        for i, (fmap, label) in enumerate(ds.items):
            activation = cam(fmap.values, protos[label])
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
        per_item = [f.values[:, :, shift_channel].mean() for f, _ in ds.items]
        assert np.std(per_item) > 0.05
        assert np.mean(per_item) == pytest.approx(0.5, abs=0.3)

    def test_generation_deterministic(self):
        cfg = SyntheticConfig(seed=11)
        a, _ = generate_synthetic(cfg)
        b, _ = generate_synthetic(cfg)
        for (fa, la), (fb, lb) in zip(a.items, b.items):
            assert la == lb
            assert fa.values.tobytes() == fb.values.tobytes()
