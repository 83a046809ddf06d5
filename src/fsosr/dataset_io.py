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
where they compute. The reader makes one pass: each chunk of items is read
straight into the dataset's tensor and pooled while in cache, and finiteness
is checked on the pooled rows.
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
from .featmap import spatial_avg_pool

MAGIC = b"FSOF"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<4sHI")
_ITEM_HEADER = struct.Struct("<IHHH")
_ITEM_HEADER_DTYPE = np.dtype([("label", "<u4"), ("shape", "<u2", 3)])  # as an array row
CHUNK_BYTES = 1 << 18  # how much of the file read_dataset and write_dataset hold at a time
# one preadv takes at most SC_IOV_MAX buffers, and read_dataset gives it two per item
_ITEMS_PER_READ = os.sysconf("SC_IOV_MAX") // 2 if hasattr(os, "preadv") else math.inf


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
    """Write the dataset plus a JSON sidecar carrying the class names. The
    items are packed and written in chunks of about CHUNK_BYTES."""
    path = Path(path)
    item = np.dtype(_ITEM_HEADER_DTYPE.descr + [("values", "<f4", ds.values.shape[1:])])
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


def _read_into(fh, buffers: list, offset: int) -> int:
    """Fill `buffers` in order from file offset `offset`; returns the bytes
    read. One preadv where the platform has one: a readinto per buffer reads
    files of small maps 12-24 % slower (BENCH_15.json, read_loop)."""
    if hasattr(os, "preadv"):
        return os.preadv(fh.fileno(), buffers, offset)
    fh.seek(offset)
    return sum(fh.readinto(buf) for buf in buffers)


def read_dataset(path) -> FeatureDataset:
    """Read an FSOF file and its sidecar. Every item must have item 0's shape,
    so the items are read in chunks of about CHUNK_BYTES, each in one pass: one
    vectored read puts its headers into an array and its values straight into
    the dataset's float32 tensor (on a mapping of its own), the headers are
    checked as arrays, and the items are pooled while in cache into the
    dataset's embeddings, which are checked finite."""
    path = Path(path)
    # inf - inf in a pooled sum is a NaN that the finiteness check reports
    with path.open("rb") as fh, np.errstate(invalid="ignore"):
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
        _check_item(path, 0, count, shape, head[_HEADER.size :], _HEADER.size, size)
        item_bytes = _ITEM_HEADER.size + 4 * math.prod(shape)
        step = max(1, min(CHUNK_BYTES // item_bytes, _ITEMS_PER_READ))
        # rows for the items the file can hold: a count beyond them fails as truncated
        rows = min(count, (size - _HEADER.size) // item_bytes)
        heads = np.empty(rows, _ITEM_HEADER_DTYPE)
        values = _mapped_tensor((rows, *shape))
        embeddings = np.empty((rows, shape[2]))
        head_bytes = heads.view(np.uint8).reshape(rows, _ITEM_HEADER.size)
        value_bytes = values.reshape(rows, -1).view(np.uint8)
        for start in range(0, count, step):
            stop, held = min(count, start + step), min(rows, start + step)
            buffers = [None] * (2 * (held - start))
            buffers[::2], buffers[1::2] = head_bytes[start:held], value_bytes[start:held]
            offset = _HEADER.size + start * item_bytes
            got = start + _read_into(fh, buffers, offset) // item_bytes
            # a shape equal to item 0's has no zero dimension, since item 0's has none
            bad = (heads["label"][start:got] >= count) | (heads["shape"][start:got] != shape).any(1)
            if got < stop or bad.any():
                # the first bad or short item, whose bytes _check_item reads again
                i = start + int(np.argmax(np.append(bad, True)))
                offset = _HEADER.size + i * item_bytes
                fh.seek(offset)
                record = fh.read(item_bytes)
                _check_item(path, i, count, shape, record, offset, offset + len(record))
                raise DatasetFormatError(f"{path}: item {i} changed while the file was read")
            # an item's float64 means are finite exactly when its float32 values
            # are: 2**32 cells of at most 3.4e38 cannot overflow a float64 sum,
            # and an inf or NaN makes its channel's mean inf or NaN
            pooled = embeddings[start:stop]
            pooled[...] = spatial_avg_pool(values[start:stop])
            if not np.isfinite(pooled).all():
                i = start + int(np.argmin(np.isfinite(pooled).all(axis=1)))
                raise NonFiniteValueError(f"{path}: item {i} contains non-finite values")
    end = _HEADER.size + count * item_bytes
    if end != size:
        raise DatasetFormatError(f"{path}: {size - end} trailing bytes after {count} items")

    values.flags.writeable = False
    class_names = _read_class_names(sidecar_path(path))
    try:
        return FeatureDataset(values, heads["label"], class_names, embeddings)
    except ValueError as exc:
        raise DatasetFormatError(f"{path}: {exc}") from exc


def _check_item(path, i: int, count: int, shape, record, offset: int, end: int) -> None:
    """Raise the format error of item i, if it has one. Its header starts at
    file offset `offset` and at the start of `record`; the bytes that could be
    read end at file offset `end`."""
    if offset + _ITEM_HEADER.size > end:
        raise TruncatedFileError(f"{path}: item {i} header truncated at byte {offset}")
    label, *item_shape = _ITEM_HEADER.unpack_from(record)
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
