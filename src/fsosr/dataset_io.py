"""On-disk formats: the FSOF binary feature dataset, its JSON sidecar with
class names, and binary PGM heatmap export.

FSOF layout (all integers little-endian):

    magic   4 bytes  b"FSOF"
    version u16      currently 1
    count   u32      number of items
    then per item:
      label u32, height u16, width u16, channels u16,
      height*width*channels float32 values in (h, w, c) row-major order

Values are stored as 32-bit floats; in memory everything is double precision,
so a round trip is lossless for any value representable in 32 bits.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from .episode import FeatureDataset
from .featmap import FeatureMap

MAGIC = b"FSOF"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<4sHI")
_ITEM_HEADER = struct.Struct("<IHHH")


class DatasetFormatError(ValueError):
    """Base for everything wrong with an FSOF file."""


class BadMagicError(DatasetFormatError):
    pass


class UnsupportedVersionError(DatasetFormatError):
    pass


class TruncatedFileError(DatasetFormatError):
    pass


class NonFiniteValueError(DatasetFormatError):
    pass


def sidecar_path(path) -> Path:
    return Path(str(path) + ".json")


def write_dataset(ds: FeatureDataset, path) -> None:
    """Write the dataset plus a JSON sidecar carrying the class names."""
    path = Path(path)
    chunks = [_HEADER.pack(MAGIC, FORMAT_VERSION, len(ds.items))]
    for fmap, label in ds.items:
        chunks.append(_ITEM_HEADER.pack(label, fmap.height, fmap.width, fmap.channels))
        chunks.append(fmap.values.astype("<f4").tobytes())
    path.write_bytes(b"".join(chunks))
    names = ds.class_names or [f"class_{c}" for c in range(ds.num_classes)]
    sidecar = {"format_version": FORMAT_VERSION, "class_names": names}
    sidecar_path(path).write_text(json.dumps(sidecar, sort_keys=True, indent=2) + "\n")


def read_dataset(path) -> FeatureDataset:
    path = Path(path)
    data = path.read_bytes()
    if len(data) < _HEADER.size:
        raise TruncatedFileError(f"{path}: {len(data)} bytes, header needs {_HEADER.size}")
    magic, version, count = _HEADER.unpack_from(data, 0)
    if magic != MAGIC:
        raise BadMagicError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
    if version != FORMAT_VERSION:
        raise UnsupportedVersionError(f"{path}: format version {version}, supported: {FORMAT_VERSION}")

    offset = _HEADER.size
    items: list[tuple[FeatureMap, int]] = []
    for i in range(count):
        if offset + _ITEM_HEADER.size > len(data):
            raise TruncatedFileError(f"{path}: item {i} header truncated at byte {offset}")
        label, height, width, channels = _ITEM_HEADER.unpack_from(data, offset)
        offset += _ITEM_HEADER.size
        # dense labels over at most `count` items cannot exceed count - 1; checking
        # here keeps the dataset's label index bounded by the file size
        if label >= count:
            raise DatasetFormatError(
                f"{path}: item {i} has label {label}, but {count} items allow at most {count - 1}"
            )
        if min(height, width, channels) < 1:
            raise DatasetFormatError(
                f"{path}: item {i} has zero-sized shape ({height}, {width}, {channels})"
            )
        n_values = height * width * channels
        n_bytes = 4 * n_values
        if offset + n_bytes > len(data):
            raise TruncatedFileError(
                f"{path}: item {i} payload truncated "
                f"(need {n_bytes} bytes at offset {offset}, have {len(data) - offset})"
            )
        values = np.frombuffer(data, dtype="<f4", count=n_values, offset=offset)
        offset += n_bytes
        if not np.all(np.isfinite(values)):
            raise NonFiniteValueError(f"{path}: item {i} contains non-finite values")
        arr = values.astype(np.float64).reshape(height, width, channels)
        items.append((FeatureMap(arr), int(label)))
    if offset != len(data):
        raise DatasetFormatError(f"{path}: {len(data) - offset} trailing bytes after {count} items")

    class_names = _read_class_names(sidecar_path(path))
    try:
        return FeatureDataset(items, class_names=class_names)
    except ValueError as exc:
        raise DatasetFormatError(f"{path}: {exc}") from exc


def _read_class_names(sidecar: Path) -> list[str] | None:
    """Class names from the JSON sidecar; None when there is no sidecar or it
    has no class_names entry."""
    if not sidecar.exists():
        return None
    try:
        meta = json.loads(sidecar.read_text())
    except ValueError as exc:
        raise DatasetFormatError(f"{sidecar}: not valid JSON ({exc})") from exc
    if not isinstance(meta, dict):
        raise DatasetFormatError(f"{sidecar}: expected a JSON object, got {type(meta).__name__}")
    names = meta.get("class_names")
    if names is not None and not (
        isinstance(names, list) and all(isinstance(n, str) for n in names)
    ):
        raise DatasetFormatError(f"{sidecar}: class_names must be a list of strings")
    return names


def export_heatmap(m, path) -> None:
    """Write an (H, W) map as a binary grayscale PGM (P5), pixel =
    round(value*255) half-up. The caller must hand in values already
    normalized to [0, 1]."""
    vals = np.asarray(m, dtype=np.float64)
    if vals.ndim != 2:
        raise ValueError(f"heatmap needs an H x W map, got shape {vals.shape}")
    if not (float(vals.min()) >= 0.0 and float(vals.max()) <= 1.0):
        raise ValueError("heatmap values must lie in [0, 1]; normalize the map first")
    pixels = np.floor(vals * 255.0 + 0.5).astype(np.uint8)
    header = f"P5\n{vals.shape[1]} {vals.shape[0]}\n255\n".encode("ascii")
    Path(path).write_bytes(header + pixels.tobytes())
