"""Episodic task sampling from a labeled feature dataset, plus a synthetic
feature-map generator with ground-truth foreground masks for desk-scale runs."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice

import numpy as np


@dataclass(frozen=True)
class EpisodeSpec:
    """One N-way K-shot open-set task: n_query known queries per closed class,
    n_open_query queries from each of n_open_classes disjoint open classes."""

    n_way: int = 5
    k_shot: int = 5
    n_query: int = 10
    n_open_classes: int = 5
    n_open_query: int = 10

    def __post_init__(self) -> None:
        if self.n_way < 2:
            raise ValueError("n_way must be >= 2")
        if self.k_shot < 1 or self.n_query < 1:
            raise ValueError("k_shot and n_query must be >= 1")
        if self.n_open_classes < 1 or self.n_open_query < 1:
            raise ValueError("n_open_classes and n_open_query must be >= 1")


@dataclass(frozen=True)
class Episode:
    """Sampled task as dataset item indices. Supports and known queries run class
    by class; support_labels and known_labels hold episode-local classes 0..N-1."""

    support: np.ndarray
    support_labels: np.ndarray
    known_queries: np.ndarray
    known_labels: np.ndarray
    unknown_queries: np.ndarray


def spatial_avg_pool(f: np.ndarray) -> np.ndarray:
    """Mean of each map (..., H, W, d) over its spatial locations, one value
    per channel: (..., d), in double precision whatever the maps' precision."""
    return f.mean(axis=(-3, -2), dtype=np.float64)


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


class NonFiniteItemError(ValueError):
    """A dataset item holds a non-finite value."""


class FeatureDataset:
    """N labeled feature maps: `values`, one (N, H, W, d) float32 tensor, the
    precision FSOF stores; their (N,) dense `labels`; the (N, d) float64
    `embeddings`, each map's spatial mean, pooled once, here, and checked
    finite; and `class_index[c]`, class c's item indices in dataset order.
    Every array is read-only. A read-only float32 tensor, such as
    read_dataset's view of a mapped file, is kept as is; anything else is
    converted or copied once, and a finite value beyond float32's range is
    an error that names its item."""

    @np.errstate(over="ignore", invalid="ignore")  # the check reports casts to inf and inf - inf sums
    def __init__(self, values, labels) -> None:
        source = values
        if getattr(values, "dtype", None) != np.float32 or values.flags.writeable:
            values = _read_only(np.array(values, dtype=np.float32))
        if values.ndim != 4 or values.shape[0] < 1 or min(values.shape) < 1:
            raise ValueError(
                f"dataset needs a non-empty (N, H, W, d) tensor, got shape {values.shape}"
            )
        labels = np.asarray(labels)
        if labels.shape != values.shape[:1] or not np.issubdtype(labels.dtype, np.integer):
            raise ValueError(
                f"need {len(values)} integer labels, got {labels.dtype} of shape {labels.shape}"
            )
        if labels.min() < 0:
            i = int(np.argmax(labels < 0))
            raise ValueError(f"item {i} has negative label {labels[i]}")
        classes, counts = np.unique(labels, return_counts=True)
        num_classes = int(classes[-1]) + 1
        if len(classes) < num_classes:
            present = set(classes.tolist())
            first = list(islice((c for c in range(num_classes) if c not in present), 5))
            raise ValueError(
                f"labels must be dense in [0, {num_classes}), "
                f"{num_classes - len(classes)} missing, first {first}"
            )
        # float32 cells cannot overflow a float64 sum (2**32 of at most 3.4e38),
        # so an item's means are finite exactly when its values are
        embeddings = spatial_avg_pool(values)
        finite = np.isfinite(embeddings).all(axis=1)
        if not finite.all():
            i = int(np.argmin(finite))
            if np.isfinite(source[i]).all():  # finite before the cast
                raise ValueError(f"item {i} holds a value beyond float32's range ±3.4028235e+38")
            raise NonFiniteItemError(f"item {i} contains non-finite values")
        order = np.argsort(labels, kind="stable")
        self.values = values
        self.labels = _read_only(labels.astype(np.intp))
        self.embeddings = _read_only(embeddings)
        self.class_index = tuple(_read_only(g) for g in np.split(order, np.cumsum(counts)[:-1]))

    @property
    def num_classes(self) -> int:
        return len(self.class_index)

    @property
    def height(self) -> int:
        return self.values.shape[1]

    @property
    def width(self) -> int:
        return self.values.shape[2]

    @property
    def channels(self) -> int:
        return self.values.shape[3]

    def __len__(self) -> int:
        return len(self.values)


def derive_episode_seed(master_seed: int, index: int, stream: int = 0) -> int:
    """Per-episode seed from a master seed and an episode counter, so runs are
    reproducible and episodes can be processed in any order or in parallel.
    Distinct streams give independent seeds for one episode (sampling vs
    background initialization)."""
    ss = np.random.SeedSequence([int(master_seed), int(index), int(stream)])
    return int.from_bytes(ss.generate_state(2).tobytes(), "little")


def sample_episode(ds: FeatureDataset, spec: EpisodeSpec, seed: int) -> Episode:
    """Draw one episode from a generator seeded with `seed`.

    Closed and open classes are drawn together without replacement, so they are
    always disjoint; per closed class, k_shot + n_query distinct items are
    split into support and queries. Precondition: the dataset fits the spec, as
    validate_dataset_for_config checks once per run; else rng.choice raises.
    """
    rng = np.random.default_rng(seed)
    chosen = rng.choice(ds.num_classes, size=spec.n_way + spec.n_open_classes, replace=False).tolist()
    picks = []
    for i, label in enumerate(chosen):
        count = spec.k_shot + spec.n_query if i < spec.n_way else spec.n_open_query
        pool = ds.class_index[label]
        picks.append(pool[rng.choice(len(pool), size=count, replace=False)])
    known = np.array(picks[: spec.n_way])

    classes = np.arange(spec.n_way)
    return Episode(
        support=known[:, : spec.k_shot].ravel(),
        support_labels=np.repeat(classes, spec.k_shot),
        known_queries=known[:, spec.k_shot :].ravel(),
        known_labels=np.repeat(classes, spec.n_query),
        unknown_queries=np.concatenate(picks[spec.n_way :]),
    )


@dataclass(frozen=True)
class SyntheticConfig:
    """Synthetic feature-map dataset: per class, a rectangular foreground
    region carries an orthogonal channel signature (a ramp of intensities so
    the region has stronger and weaker cells); everywhere else carries a
    shared background channel pattern. Gaussian noise on top.

    The noise field is Gaussian with an i.i.d. per-cell part plus a rank-one
    part: one per-item draw of noise_sigma * (bkg_noise_mean +
    bkg_noise_scale * z), z standard normal, added uniformly across the grid
    on a dedicated channel. Items then differ in how much shared background
    energy they carry, the way real images differ in background content,
    which is what makes unknown detection hard while leaving per-cell
    structure (and so activation mining) intact. All noise vanishes at
    noise_sigma = 0, leaving every item of a class identical.

    fg_regions entries are (top, left, height, width) per class; None lays the
    regions out from the seed.
    """

    num_classes: int = 5
    items_per_class: int = 20
    height: int = 8
    width: int = 8
    channels: int = 16
    signal_strength: float = 1.0
    noise_sigma: float = 0.1
    bkg_strength: float = 0.05
    bkg_noise_mean: float = 0.0
    bkg_noise_scale: float = 0.0
    fg_regions: tuple[tuple[int, int, int, int], ...] | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("num_classes", "items_per_class", "height", "width", "channels"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        for name in ("height", "width", "channels"):  # each is a u16 in an FSOF item header
            if getattr(self, name) > 65535:
                raise ValueError(f"{name} must be at most 65535, the largest map side FSOF holds")
        for name in ("signal_strength", "noise_sigma", "bkg_strength", "bkg_noise_mean",
                     "bkg_noise_scale"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and >= 0")
        f32_max, sigma = np.finfo(np.float32).max, self.noise_sigma  # items are stored as float32
        for name, value in (("signal_strength", self.signal_strength),
                            ("bkg_strength", self.bkg_strength), ("noise_sigma", sigma),
                            ("noise_sigma * bkg_noise_mean", sigma * self.bkg_noise_mean),
                            ("noise_sigma * bkg_noise_scale", sigma * self.bkg_noise_scale)):
            if value >= float(f32_max):
                raise ValueError(f"{name} must be below {f32_max!s}, float32's largest value")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.channels < self.num_classes + 1:
            raise ValueError(
                f"channels must be >= num_classes + 1 to allocate orthogonal signatures "
                f"(got {self.channels} for {self.num_classes} classes)"
            )
        uses_shift = self.bkg_noise_mean > 0 or self.bkg_noise_scale > 0
        if uses_shift and self.channels < self.num_classes + 2:
            raise ValueError(
                "channels must be >= num_classes + 2 when the background-energy shift is enabled"
            )


def resolve_fg_regions(cfg: SyntheticConfig) -> tuple[tuple[int, int, int, int], ...]:
    """The per-class foreground rectangles, either as configured or laid out
    deterministically from the seed (roughly 3/8 of each side)."""
    if cfg.fg_regions is not None:
        regions = tuple(tuple(int(v) for v in r) for r in cfg.fg_regions)
        if len(regions) != cfg.num_classes:
            raise ValueError(f"need {cfg.num_classes} fg regions, got {len(regions)}")
        for top, left, rh, rw in regions:
            if rh < 1 or rw < 1 or top < 0 or left < 0:
                raise ValueError(f"bad fg region ({top}, {left}, {rh}, {rw})")
            if top + rh > cfg.height or left + rw > cfg.width:
                raise ValueError(
                    f"fg region ({top}, {left}, {rh}, {rw}) exceeds "
                    f"{cfg.height}x{cfg.width} grid"
                )
        return regions
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 1]))
    rh = max(1, round(cfg.height * 3 / 8))
    rw = max(1, round(cfg.width * 3 / 8))
    out = []
    for _ in range(cfg.num_classes):
        top = int(rng.integers(0, cfg.height - rh + 1))
        left = int(rng.integers(0, cfg.width - rw + 1))
        out.append((top, left, rh, rw))
    return tuple(out)


def foreground_profile(region: tuple[int, int, int, int], height: int, width: int) -> np.ndarray:
    """Per-cell signal scale: zero outside the region, a row-major geometric
    ramp from 0.0625 up to 1.0 inside it (four octaves). One pass of activation
    mapping only catches the top of the ramp, so iterative mining keeps finding
    strictly weaker parts of the region on later passes."""
    top, left, rh, rw = region
    profile = np.zeros((height, width))
    ramp = np.geomspace(0.0625, 1.0, rh * rw) if rh * rw > 1 else np.array([1.0])
    profile[top:top + rh, left:left + rw] = ramp.reshape(rh, rw)
    return profile


def benchmark_config(seed: int = 7) -> SyntheticConfig:
    """The standard desk-scale benchmark: 12 classes so 5-way episodes have
    disjoint open classes, deep multi-octave foregrounds (each mining pass
    finds new region cells), a weak static background pattern, and the
    unknown-detection difficulty carried by per-item background-energy
    variation (shift of 0.4 +- 0.6 on the shared channel)."""
    side = 6
    regions = tuple((c % 3, (c // 3) % 3, side, side) for c in range(12))
    return SyntheticConfig(
        num_classes=12,
        items_per_class=30,
        height=8,
        width=8,
        channels=64,
        signal_strength=4.0,
        noise_sigma=0.04,
        bkg_strength=0.05,
        bkg_noise_mean=10.0,
        bkg_noise_scale=15.0,
        fg_regions=regions,
        seed=seed,
    )


@np.errstate(over="ignore", invalid="ignore")  # a value float32 cannot hold fails FeatureDataset's check
def generate_synthetic(cfg: SyntheticConfig) -> tuple[FeatureDataset, np.ndarray]:
    """Build the dataset and its (N, H, W) bool ground-truth foreground masks.

    Channel layout: class c uses channel c, the static shared background
    pattern uses channel num_classes, the per-item background-energy shift
    uses channel num_classes + 1, and remaining channels carry only noise.
    This keeps all signatures mutually orthogonal, which needs channels >=
    num_classes + 1 (one more when the shift is enabled), as SyntheticConfig
    checks.
    """
    uses_shift = cfg.bkg_noise_mean > 0 or cfg.bkg_noise_scale > 0
    regions = resolve_fg_regions(cfg)
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 2]))
    bkg_channel = cfg.num_classes
    shift_channel = cfg.num_classes + 1

    labels = np.repeat(np.arange(cfg.num_classes), cfg.items_per_class)
    values = np.empty((len(labels), cfg.height, cfg.width, cfg.channels), dtype=np.float32)
    masks = np.empty(values.shape[:3], dtype=bool)
    i = 0
    for c in range(cfg.num_classes):
        profile = foreground_profile(regions[c], cfg.height, cfg.width)
        mask = profile > 0
        base = np.zeros((cfg.height, cfg.width, cfg.channels))
        base[:, :, c] = profile * cfg.signal_strength
        base[~mask, bkg_channel] = cfg.bkg_strength
        for _ in range(cfg.items_per_class):
            # built in double precision and rounded to the stored float32 once
            item = base + rng.normal(0.0, cfg.noise_sigma, size=base.shape)
            if uses_shift:
                shift = cfg.noise_sigma * (
                    cfg.bkg_noise_mean + cfg.bkg_noise_scale * rng.standard_normal()
                )
                item[:, :, shift_channel] += shift
            values[i], masks[i] = item, mask
            i += 1
    return FeatureDataset(_read_only(values), labels), masks
