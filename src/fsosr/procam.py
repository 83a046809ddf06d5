"""Class activation maps and the progressive mining loop that turns a stack of
support feature maps into foreground masks and background embeddings."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classifier import PrototypeBank
from .featmap import (
    NORM_KINDS,
    NORM_MINMAX,
    EmbeddingVector,
    FeatureMap,
    minmax_norm,
    spatial_avg_pool,
    spatial_softmax,
)


@dataclass(frozen=True)
class ProCamConfig:
    """iterations: how many activation maps get mined and superimposed.
    norm_kind selects the per-iteration normalization; the final aggregate is
    always min-max normalized so the mask stays in [0, 1]."""

    iterations: int = 4
    norm_kind: str = NORM_MINMAX

    def __post_init__(self) -> None:
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.norm_kind not in NORM_KINDS:
            raise ValueError(f"unknown norm kind {self.norm_kind!r}, expected one of {NORM_KINDS}")


@dataclass(frozen=True)
class ProCamResult:
    """Mining output for one map: the (H, W) foreground mask, the (d,)
    background embedding and the per-iteration (H, W) masks."""

    final_mask: np.ndarray
    background: np.ndarray
    per_iteration_masks: tuple[np.ndarray, ...]


def cam(f: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Per-location weighted channel sum over the trailing axes: the raw
    activation maps (..., H, W) of features (..., H, W, d) for the classes
    whose classifier weights are w (..., d), before any normalization."""
    if w.shape[-1] != f.shape[-1]:
        raise ValueError(f"weight dim {w.shape[-1]} does not match feature channels {f.shape[-1]}")
    return np.einsum("...hwd,...d->...hw", f, w)


def _mine(
    stack: np.ndarray, weights: np.ndarray, cfg: ProCamConfig
) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """Progressive activation mining of n maps (n, H, W, d) at once, map i with
    class weights weights[i].

    Each iteration normalizes the activation maps of what is left and
    suppresses the discovered regions by (1 - mask), so later passes surface
    regions the first maps missed. A per-location factor comes out of the
    channel sum, cam(f * (1 - m), w) = (1 - m) * cam(f, w), so one cam is scaled
    in place of masked copies of the features. The per-iteration masks are summed
    and min-max normalized into the final masks; the background embeddings are
    the spatial means of the features suppressed by them. Every normalization
    is per map. Returns the (n, H, W) final masks, the (n, d) background
    embeddings and the per-iteration (n, H, W) masks.
    """
    activation = cam(stack, weights)
    trace: list[np.ndarray] = []
    for _ in range(cfg.iterations):
        if cfg.norm_kind == NORM_MINMAX:
            step = minmax_norm(activation)
        else:
            step = spatial_softmax(activation)
        trace.append(step)
        activation = activation * (1.0 - step)
    final_masks = minmax_norm(sum(trace))
    cells = final_masks.shape[-2] * final_masks.shape[-1]
    backgrounds = np.einsum("nhw,nhwd->nd", 1.0 - final_masks, stack) / cells
    return final_masks, backgrounds, trace


def procam(f: FeatureMap, w: np.ndarray, cfg: ProCamConfig) -> ProCamResult:
    """Progressive activation mining of one feature map with the (d,) class
    weights w."""
    masks, backgrounds, trace = _mine(f.values[None], w[None], cfg)
    return ProCamResult(
        final_mask=masks[0],
        background=backgrounds[0],
        per_iteration_masks=tuple(step[0] for step in trace),
    )


def procam_for_support(
    supports: list[tuple[FeatureMap, int]], bank: PrototypeBank, cfg: ProCamConfig
) -> list[tuple[EmbeddingVector, EmbeddingVector]]:
    """(foreground, background) embedding pairs for every support item, mining
    each item with its own class prototype. All items are mined and pooled as
    one stack; order follows the input, and the pairs view rows of the two
    read-only (n, d) results."""
    labels = [label for _, label in supports]
    for label in labels:
        if not 0 <= label < bank.num_known:
            raise ValueError(f"no known prototype for class {label} (bank has {bank.num_known})")
    stack = np.stack([fmap.values for fmap, _ in supports])
    _, backgrounds, _ = _mine(stack, bank.known_weights[labels], cfg)
    foregrounds = spatial_avg_pool(stack)
    foregrounds.flags.writeable = backgrounds.flags.writeable = False
    return [
        (EmbeddingVector.view(fg), EmbeddingVector.view(bg))
        for fg, bg in zip(foregrounds, backgrounds)
    ]


def mask_iou(mask: np.ndarray, truth, threshold: float = 0.5) -> float:
    """Intersection over union between the mask thresholded at `threshold` and
    a binary ground-truth map. Both empty counts as perfect agreement."""
    pred = np.asarray(mask) >= threshold
    gt = np.asarray(truth, dtype=bool)
    if gt.shape != pred.shape:
        raise ValueError(f"truth shape {gt.shape} does not match mask {pred.shape}")
    union = int(np.logical_or(pred, gt).sum())
    if union == 0:
        return 1.0
    return float(np.logical_and(pred, gt).sum() / union)
