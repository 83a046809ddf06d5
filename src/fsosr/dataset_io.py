"""On-disk formats: the FSOF binary feature dataset, its JSON sidecar with
class names, and binary PGM heatmap export.

FSOF layout (all integers little-endian):

    magic   4 bytes  b"FSOF"
    version u16      currently 1
    count   u32      number of items
    then per item:
      label u32, height u16, width u16, channels u16,
      height*width*channels float32 values in (h, w, c) row-major order

Values are stored as 32-bit floats and held in memory at that precision, so a
round trip is lossless; pooling and mining widen them to double precision
where they compute.
"""

from __future__ import annotations

import json
import math
import mmap
import os
import struct
from pathlib import Path

import numpy as np

from .episode import FeatureDataset

MAGIC = b"FSOF"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<4sHI")
_ITEM_HEADER = struct.Struct("<IHHH")
CHUNK_BYTES = 1 << 18  # how much of the file read_dataset and write_dataset hold at a time


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


def _item_dtype(height: int, width: int, channels: int) -> np.dtype:
    """One packed FSOF item: its 10-byte header, then its float32 values."""
    return np.dtype(
        [("label", "<u4"), ("shape", "<u2", 3), ("values", "<f4", (height, width, channels))]
    )


def write_dataset(ds: FeatureDataset, path) -> None:
    """Write the dataset plus a JSON sidecar carrying the class names. The
    items are packed and written in chunks of about CHUNK_BYTES."""
    path = Path(path)
    item = _item_dtype(ds.height, ds.width, ds.channels)
    step = max(1, CHUNK_BYTES // item.itemsize)
    records = np.empty(min(step, len(ds)), item)
    records["shape"] = (ds.height, ds.width, ds.channels)
    with path.open("wb") as fh:
        fh.write(_HEADER.pack(MAGIC, FORMAT_VERSION, len(ds)))
        for start in range(0, len(ds), step):
            chunk = records[: min(step, len(ds) - start)]
            chunk["label"] = ds.labels[start : start + step]
            chunk["values"] = ds.values[start : start + step]
            chunk.tofile(fh)
    names = ds.class_names or [f"class_{c}" for c in range(ds.num_classes)]
    sidecar = {"format_version": FORMAT_VERSION, "class_names": names}
    sidecar_path(path).write_text(json.dumps(sidecar, sort_keys=True, indent=2) + "\n")


def _mapped_tensor(shape) -> np.ndarray:
    """A float32 array of `shape`, for the caller to fill, on a private
    anonymous mapping of its own, advised for huge pages as numpy advises its
    own large allocations. The mapping goes back to the system when the last
    view of the array goes. From the C heap, a tensor freed by one load is kept
    there for the next, and a small allocation left inside it makes a later
    load grow the heap by a second tensor: peak RSS then depends on how many
    loads a process made."""
    if not hasattr(mmap, "MAP_ANONYMOUS"):
        return np.empty(shape, dtype=np.float32)
    buffer = mmap.mmap(-1, 4 * math.prod(shape), flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
    if hasattr(mmap, "MADV_HUGEPAGE"):
        buffer.madvise(mmap.MADV_HUGEPAGE)
    return np.frombuffer(buffer, dtype=np.float32).reshape(shape)


def read_dataset(path) -> FeatureDataset:
    """Read an FSOF file and its sidecar. Every item must have item 0's shape,
    so the items are read in chunks of about CHUNK_BYTES: each chunk's headers
    are checked, its values checked finite and copied as they are into the
    dataset's float32 tensor, which has a mapping of its own. The file is never
    held in memory whole."""
    path = Path(path)
    with path.open("rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(_HEADER.size + _ITEM_HEADER.size)
        if len(head) < _HEADER.size:
            raise TruncatedFileError(f"{path}: {size} bytes, header needs {_HEADER.size}")
        magic, version, count = _HEADER.unpack_from(head, 0)
        if magic != MAGIC:
            raise BadMagicError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
        if version != FORMAT_VERSION:
            raise UnsupportedVersionError(
                f"{path}: format version {version}, supported: {FORMAT_VERSION}"
            )
        if count == 0:
            raise DatasetFormatError(f"{path}: no items")
        if len(head) < _HEADER.size + _ITEM_HEADER.size:
            raise TruncatedFileError(f"{path}: item 0 header truncated at byte {_HEADER.size}")
        shape = tuple(_ITEM_HEADER.unpack_from(head, _HEADER.size)[1:])
        # item 0 sets the shape, so it must fit the file before anything is sized by it
        _check_item(path, 0, count, shape, head, 0, _HEADER.size, size)
        item = _item_dtype(*shape)
        step = max(1, CHUNK_BYTES // item.itemsize)
        # rows for the items the file can hold: a count beyond them fails as truncated
        rows = min(count, (size - _HEADER.size) // item.itemsize)
        values = _mapped_tensor((rows, *shape))
        labels = np.empty(rows, dtype=np.uint32)
        buffer = bytearray(min(step * item.itemsize, size - _HEADER.size))
        fh.seek(_HEADER.size)
        offset = _HEADER.size
        for start in range(0, count, step):
            stop = min(count, start + step)
            base = offset
            end = base + fh.readinto(buffer)
            for i in range(start, stop):
                offset = _check_item(path, i, count, shape, buffer, base, offset, end)
            records = np.frombuffer(buffer, item, count=stop - start)
            finite = np.isfinite(records["values"].reshape(stop - start, -1)).all(axis=1)
            if not finite.all():
                raise NonFiniteValueError(
                    f"{path}: item {start + int(np.argmin(finite))} contains non-finite values"
                )
            values[start:stop] = records["values"]
            labels[start:stop] = records["label"]
    if offset != size:
        raise DatasetFormatError(f"{path}: {size - offset} trailing bytes after {count} items")

    values.flags.writeable = False
    class_names = _read_class_names(sidecar_path(path))
    try:
        return FeatureDataset(values, labels, class_names=class_names)
    except ValueError as exc:
        raise DatasetFormatError(f"{path}: {exc}") from exc


def _check_item(path, i: int, count: int, shape, buffer, base: int, offset: int, end: int) -> int:
    """Check item i, whose header starts at file offset `offset`, against the
    file bytes [base, end) held in buffer; returns the offset after it."""
    if offset + _ITEM_HEADER.size > end:
        raise TruncatedFileError(f"{path}: item {i} header truncated at byte {offset}")
    label, *item_shape = _ITEM_HEADER.unpack_from(buffer, offset - base)
    # dense labels over at most `count` items cannot exceed count - 1; checking
    # here keeps the dataset's label index bounded by the file size
    if label >= count:
        raise DatasetFormatError(
            f"{path}: item {i} has label {label}, but {count} items allow at most {count - 1}"
        )
    if min(item_shape) < 1:
        raise DatasetFormatError(f"{path}: item {i} has zero-sized shape {tuple(item_shape)}")
    if tuple(item_shape) != shape:
        raise DatasetFormatError(
            f"{path}: item {i} at byte {offset} has shape {tuple(item_shape)}, item 0 has {shape}"
        )
    offset += _ITEM_HEADER.size
    n_bytes = 4 * shape[0] * shape[1] * shape[2]
    if offset + n_bytes > end:
        raise TruncatedFileError(
            f"{path}: item {i} payload truncated "
            f"(need {n_bytes} bytes at offset {offset}, have {end - offset})"
        )
    return offset + n_bytes


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
