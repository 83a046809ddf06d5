"""Grid data types and the pooling / normalization primitives the rest of the
engine is built on. Everything here is pure and operates in double precision;
pooling and normalization act on plain arrays over their trailing axes, so
one call covers a whole stack of maps."""

from __future__ import annotations

import numpy as np

# Below this range a map is treated as constant (no usable signal).
EPS_NORM = 1e-12

NORM_MINMAX = "minmax"
NORM_SOFTMAX = "softmax"
NORM_KINDS = (NORM_MINMAX, NORM_SOFTMAX)


def _finite_f64(values, name: str) -> np.ndarray:
    arr = np.array(values, dtype=np.float64, copy=True)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite values")
    return arr


class _Frozen:
    """A read-only array behind `.values`: float64, or as it is when `view` wraps it."""

    __slots__ = ("_values",)

    @classmethod
    def view(cls, values: np.ndarray):
        """Wrap an already validated read-only array as it is: no copy, no check."""
        obj = object.__new__(cls)
        obj._values = values
        return obj

    @property
    def values(self) -> np.ndarray:
        return self._values


class FeatureMap(_Frozen):
    """An H x W x d activation grid for one image. Immutable after construction."""

    __slots__ = ()

    def __init__(self, values) -> None:
        arr = _finite_f64(values, "FeatureMap")
        if arr.ndim != 3:
            raise ValueError(f"FeatureMap needs an H x W x d array, got shape {arr.shape}")
        if min(arr.shape) < 1:
            raise ValueError(f"FeatureMap dimensions must all be >= 1, got shape {arr.shape}")
        arr.flags.writeable = False
        self._values = arr

    @property
    def height(self) -> int:
        return self._values.shape[0]

    @property
    def width(self) -> int:
        return self._values.shape[1]

    @property
    def channels(self) -> int:
        return self._values.shape[2]

    def __repr__(self) -> str:
        return f"FeatureMap(height={self.height}, width={self.width}, channels={self.channels})"


class EmbeddingVector(_Frozen):
    """A length-d embedding, the pooled representation of one image."""

    __slots__ = ()

    def __init__(self, values) -> None:
        arr = _finite_f64(values, "EmbeddingVector")
        if arr.ndim != 1 or arr.shape[0] < 1:
            raise ValueError(f"EmbeddingVector needs a 1-d array, got shape {arr.shape}")
        arr.flags.writeable = False
        self._values = arr

    @property
    def dim(self) -> int:
        return self._values.shape[0]

    def __repr__(self) -> str:
        return f"EmbeddingVector(dim={self.dim})"


def spatial_avg_pool(f: np.ndarray) -> np.ndarray:
    """Mean of each map (..., H, W, d) over its spatial locations, one value
    per channel: (..., d), in double precision whatever the maps' precision."""
    return f.mean(axis=(-3, -2), dtype=np.float64)


def minmax_norm(m: np.ndarray) -> np.ndarray:
    """Affine rescale of each map over the trailing (H, W) axes into [0, 1].

    A map whose range is below EPS_NORM carries no localization signal and maps
    to all zeros, which makes the (1 - mask) suppression that follows a no-op.
    The rule holds per map, so one flat map in a stack leaves the others
    untouched.
    """
    lo = m.min(axis=(-2, -1), keepdims=True)
    span = m.max(axis=(-2, -1), keepdims=True) - lo
    flat = span < EPS_NORM
    return np.where(flat, 0.0, (m - lo) / np.where(flat, 1.0, span))


def spatial_softmax(m: np.ndarray) -> np.ndarray:
    """Softmax of each map over its trailing (H, W) cells, rescaled so the
    strongest cell is exactly 1: exp(m - max) per map. A sum-to-one softmax
    makes every value tiny on large grids, which would leave the (1 - mask)
    suppression that follows almost a no-op."""
    return np.exp(m - m.max(axis=(-2, -1), keepdims=True))
