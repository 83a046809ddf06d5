"""On-disk formats: the FSOF binary feature dataset and binary PGM heatmap
export.

FSOF layout (all integers little-endian):

    magic   4 bytes  b"FSOF"
    version u16      currently 1
    count   u32      number of items
    then per item:
      label u32, height u16, width u16, channels u16,
      height*width*channels float32 values in (h, w, c) row-major order

Values are stored as 32-bit floats and used at that precision, so a round
trip is lossless; pooling and mining widen them to double precision where they
compute. The reader maps the file and copies no payload: the dataset's tensor
is a read-only view of the mapped records. It checks every header in one pass,
then pools every item in another and checks the pooled rows finite. Only the
writer works in chunks.
"""

from __future__ import annotations

import mmap
import os
import struct
import sys
from contextlib import contextmanager
from pathlib import Path
from stat import S_ISREG

import numpy as np

from .episode import FeatureDataset
from .featmap import spatial_avg_pool

MAGIC = b"FSOF"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<4sHI")
_ITEM_HEADER = struct.Struct("<IHHH")
_ITEM_HEADER_DTYPE = np.dtype([("label", "<u4"), ("shape", "<u2", 3)])  # as an array row
CHUNK_BYTES = 1 << 18  # how much of the file write_dataset packs at a time
# from Python 3.13 a mapping need not keep a duplicate of the descriptor it maps
_UNTRACKED_FD = {"trackfd": False} if sys.version_info >= (3, 13) else {}


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


def write_dataset(ds: FeatureDataset, path) -> None:
    """Write the dataset as one FSOF file. The items are packed and written in
    chunks of about CHUNK_BYTES."""
    path = Path(path)
    item = _record_dtype(ds.values.shape[1:])
    step = max(1, CHUNK_BYTES // item.itemsize)
    records = np.empty(min(step, len(ds)), item)
    records["shape"] = (ds.height, ds.width, ds.channels)
    with _replacing(path) as fh:
        fh.write(_HEADER.pack(MAGIC, FORMAT_VERSION, len(ds)))
        for start in range(0, len(ds), step):
            chunk = records[: min(step, len(ds) - start)]
            chunk["label"] = ds.labels[start : start + step]
            chunk["values"] = ds.values[start : start + step]
            chunk.tofile(fh)


@contextmanager
def _replacing(path: Path):
    """A new file beside `path`, renamed onto it when the block succeeds. A file
    truncated in place would fault (SIGBUS) any process that has it mapped."""
    temp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with temp.open("wb") as fh:
            yield fh
        os.replace(temp, path)
    finally:
        temp.unlink(missing_ok=True)


def _record_dtype(shape) -> np.dtype:
    """An item's record in the file: its header, then its float32 values."""
    return np.dtype(_ITEM_HEADER_DTYPE.descr + [("values", "<f4", tuple(shape))])


# inf - inf in a pooled sum is a NaN that the finiteness check reports
@np.errstate(invalid="ignore")
def read_dataset(path) -> FeatureDataset:
    """Map an FSOF file. Items share item 0's shape, so the dataset's float32
    tensor is a read-only view of the mapped records: no payload is copied.
    All item headers are checked as arrays, then all items are pooled into the
    embeddings, which are checked finite; so a header fault anywhere is
    reported before a non-finite value anywhere. The checks cover the file as
    it was at load."""
    path = Path(path)
    # a FIFO would block the open without O_NONBLOCK, and cannot be mapped
    fd = os.open(path, os.O_RDONLY | getattr(os, "O_NONBLOCK", 0))
    try:
        stat = os.fstat(fd)
        if not S_ISREG(stat.st_mode):
            raise DatasetFormatError(f"{path}: not a regular file")
        size = stat.st_size
        if size < _HEADER.size:  # an empty file cannot be mapped
            raise TruncatedFileError(f"{path}: {size} bytes, header needs {_HEADER.size}")
        mapped = mmap.mmap(fd, 0, access=mmap.ACCESS_READ, **_UNTRACKED_FD)  # below 3.13 it keeps a dup of fd
    finally:
        os.close(fd)
    magic, version, count = _HEADER.unpack_from(mapped)
    if magic != MAGIC:
        raise BadMagicError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
    if version != FORMAT_VERSION:
        raise UnsupportedVersionError(
            f"{path}: format version {version}, supported: {FORMAT_VERSION}"
        )
    if count == 0:
        raise DatasetFormatError(f"{path}: no items")
    # item 0 sets the shape, so it must fit the file before anything is sized by it
    shape = _check_item(path, 0, count, None, mapped, _HEADER.size, size)
    record = _record_dtype(shape)
    item_bytes = record.itemsize
    # the records the file can hold: a count beyond them fails as truncated
    rows = min(count, (size - _HEADER.size) // item_bytes)
    records = np.frombuffer(mapped, record, rows, _HEADER.size)
    values, labels = records["values"], records["label"]
    # a shape equal to item 0's has no zero dimension, since item 0's has none
    bad = (labels >= count) | (records["shape"] != shape).any(1)
    if rows < count or bad.any():
        # _check_item raises the error of the first bad item, or of the short
        # one after the last whole record
        i = int(np.argmax(np.append(bad, True)))
        _check_item(path, i, count, shape, mapped, _HEADER.size + i * item_bytes, size)
    # an item's float64 means are finite exactly when its float32 values are:
    # 2**32 cells of at most 3.4e38 cannot overflow a float64 sum, and an inf
    # or NaN makes its channel's mean inf or NaN
    embeddings = spatial_avg_pool(values)
    finite = np.isfinite(embeddings).all(axis=1)
    if not finite.all():
        raise NonFiniteValueError(f"{path}: item {int(np.argmin(finite))} contains non-finite values")
    end = _HEADER.size + count * item_bytes
    if end != size:
        raise DatasetFormatError(f"{path}: {size - end} trailing bytes after {count} items")
    try:
        return FeatureDataset(values, labels, embeddings)
    except ValueError as exc:
        raise DatasetFormatError(f"{path}: {exc}") from exc


def _check_item(path, i: int, count: int, shape, mapped, offset: int, end: int) -> tuple[int, int, int]:
    """Raise the format error of item i, if it has one, else return its shape.
    Its header starts at `offset` of the mapped bytes, which end at `end`;
    shape is item 0's (None for item 0)."""
    if offset + _ITEM_HEADER.size > end:
        raise TruncatedFileError(f"{path}: item {i} header truncated at byte {offset}")
    label, *item_shape = _ITEM_HEADER.unpack_from(mapped, offset)
    # dense labels over at most `count` items cannot exceed count - 1; checking
    # here keeps the dataset's label index bounded by the file size
    if label >= count:
        raise DatasetFormatError(
            f"{path}: item {i} has label {label}, but {count} items allow at most {count - 1}"
        )
    if min(item_shape) < 1:
        raise DatasetFormatError(f"{path}: item {i} has zero-sized shape {tuple(item_shape)}")
    if shape is not None and tuple(item_shape) != shape:
        raise DatasetFormatError(
            f"{path}: item {i} at byte {offset} has shape {tuple(item_shape)}, item 0 has {shape}"
        )
    offset += _ITEM_HEADER.size
    n_bytes = 4 * item_shape[0] * item_shape[1] * item_shape[2]
    if offset + n_bytes > end:
        raise TruncatedFileError(
            f"{path}: item {i} payload truncated "
            f"(need {n_bytes} bytes at offset {offset}, have {end - offset})"
        )
    return tuple(item_shape)


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
