"""The pooling / normalization primitives the rest of the engine is built on:
pure, double precision, on plain arrays over their trailing axes, so one call
covers a whole stack of maps."""

from __future__ import annotations

import numpy as np

# Below this range a map is treated as constant (no usable signal).
EPS_NORM = 1e-12

NORM_MINMAX = "minmax"
NORM_SOFTMAX = "softmax"
NORM_KINDS = (NORM_MINMAX, NORM_SOFTMAX)


def spatial_avg_pool(f: np.ndarray) -> np.ndarray:
    """Mean of each map (..., H, W, d) over its spatial locations, one value
    per channel: (..., d), in double precision whatever the maps' precision."""
    return f.mean(axis=(-3, -2), dtype=np.float64)


def minmax_norm(m: np.ndarray) -> np.ndarray:
    """Affine rescale of each map over the trailing (H, W) axes into [0, 1].

    A map whose range is below EPS_NORM both absolutely and relative to its
    largest magnitude (so the rule is scale-invariant) is flat: it maps to all
    zeros, making the (1 - mask) suppression after it a no-op. Maps are judged alone.
    """
    lo, hi = m.min(axis=(-2, -1), keepdims=True), m.max(axis=(-2, -1), keepdims=True)
    span = hi - lo
    if span.min() >= EPS_NORM:  # no map is flat, and the masked formula below gives these bytes
        return (m - lo) / span
    flat = (span < EPS_NORM) & (span <= EPS_NORM * np.maximum(-lo, hi))
    return np.where(flat, 0.0, (m - lo) / np.where(flat, 1.0, span))


def spatial_softmax(m: np.ndarray) -> np.ndarray:
    """Softmax of each map over its trailing (H, W) cells, rescaled so the
    strongest cell is exactly 1: exp(m - max) per map. A sum-to-one softmax
    makes every value tiny on large grids, which would leave the (1 - mask)
    suppression that follows almost a no-op."""
    return np.exp(m - m.max(axis=(-2, -1), keepdims=True))
