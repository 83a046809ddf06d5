"""Class activation maps and the progressive mining loop that turns a stack of
support feature maps into foreground masks and background embeddings."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .featmap import (
    NORM_KINDS,
    NORM_MINMAX,
    EmbeddingVector,
    FeatureMap,
    minmax_norm,
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


def cam(f: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Per-location weighted channel sum over the trailing axes, one matmul
    of each map's (H*W, d) cells: the raw activation maps (..., H, W) of
    features (..., H, W, d) for the classes whose classifier weights are w
    (..., d), before any normalization."""
    if f.ndim < 3:
        raise ValueError(f"features need shape (..., H, W, d), got {f.shape}")
    if w.shape[-1] != f.shape[-1]:
        raise ValueError(f"weight dim {w.shape[-1]} does not match feature channels {f.shape[-1]}")
    out = f.reshape(*f.shape[:-3], -1, f.shape[-1]) @ w[..., None]
    return out.reshape(*out.shape[:-2], *f.shape[-3:-1])


def mine(
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
    the spatial means of the features suppressed by them, one matmul per map
    over its (H*W, d) cells. Every normalization is per map. Returns the
    (n, H, W) final masks, the (n, d) background embeddings and the
    per-iteration (n, H, W) masks.
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
    n, h, w, d = stack.shape
    backgrounds = ((1.0 - final_masks).reshape(n, 1, h * w) @ stack.reshape(n, h * w, d))[:, 0] / (h * w)
    return final_masks, backgrounds, trace


def procam_for_support(
    supports: list[tuple[FeatureMap, int]],
    known: np.ndarray,
    cfg: ProCamConfig,
    foregrounds: np.ndarray,
) -> list[tuple[EmbeddingVector, EmbeddingVector]]:
    """(foreground, background) embedding pairs for every support item, mining
    each item with its label's row of the (n_way x d) known prototypes. The
    foregrounds are the supports' pooled (n, d) rows, which the caller holds
    already; the pairs view them read-only, as they are. All items are mined as one stack, widened to
    float64 as it is built; order follows the input, and the backgrounds view
    rows of one read-only (n, d) result."""
    labels = [label for _, label in supports]
    for label in labels:
        if not 0 <= label < len(known):
            raise ValueError(f"no known prototype for class {label} (there are {len(known)})")
    stack = np.stack([fmap.values for fmap, _ in supports], dtype=np.float64)
    want = (len(stack), stack.shape[-1])
    if foregrounds.shape != want:
        raise ValueError(f"foregrounds need shape {want}, got {foregrounds.shape}")
    _, backgrounds, _ = mine(stack, known[labels], cfg)
    foregrounds = foregrounds.view()
    foregrounds.flags.writeable = backgrounds.flags.writeable = False
    return [(EmbeddingVector(fg), EmbeddingVector(bg)) for fg, bg in zip(foregrounds, backgrounds)]


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
