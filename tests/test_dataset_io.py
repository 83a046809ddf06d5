import gc
import json
import os
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fsosr import dataset_io
from fsosr.dataset_io import (
    FORMAT_VERSION,
    MAGIC,
    BadMagicError,
    DatasetFormatError,
    NonFiniteValueError,
    TruncatedFileError,
    UnsupportedVersionError,
    export_heatmap,
    read_dataset,
    sidecar_path,
    write_dataset,
)
from fsosr.episode import FeatureDataset
from fsosr.featmap import spatial_avg_pool


STATM = Path("/proc/self/statm")


def resident_mb() -> float:
    return int(STATM.read_text().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20


def random_dataset(n_items=12, num_classes=3, h=3, w=4, d=5, seed=0):
    rng = np.random.default_rng(seed)
    vals = rng.normal(size=(n_items, h, w, d)).astype(np.float32).astype(np.float64)
    labels = np.arange(n_items) % num_classes
    return FeatureDataset(vals, labels, class_names=[f"c{k}" for k in range(num_classes)])


class TestRoundTrip:
    def test_values_and_labels_identical(self, tmp_path):
        ds = random_dataset()
        path = tmp_path / "data.fsof"
        write_dataset(ds, path)
        back = read_dataset(path)
        assert len(back) == len(ds)
        np.testing.assert_array_equal(back.labels, ds.labels)
        np.testing.assert_array_equal(back.values, ds.values)
        assert back.class_names == ["c0", "c1", "c2"]

    def test_size_formula(self, tmp_path):
        ds = random_dataset(n_items=20, h=3, w=4, d=5)
        path = tmp_path / "data.fsof"
        write_dataset(ds, path)
        expected = 10 + 20 * (10 + 4 * 3 * 4 * 5)
        assert path.stat().st_size == expected

    def test_sidecar_written(self, tmp_path):
        ds = random_dataset()
        path = tmp_path / "data.fsof"
        write_dataset(ds, path)
        meta = json.loads(sidecar_path(path).read_text())
        assert meta["class_names"] == ["c0", "c1", "c2"]
        assert meta["format_version"] == FORMAT_VERSION

    def test_missing_sidecar_is_fine(self, tmp_path):
        ds = random_dataset()
        path = tmp_path / "data.fsof"
        write_dataset(ds, path)
        sidecar_path(path).unlink()
        back = read_dataset(path)
        assert back.class_names is None


class TestFormatErrors:
    def _write_valid(self, tmp_path):
        ds = random_dataset(n_items=2, num_classes=2)
        path = tmp_path / "data.fsof"
        write_dataset(ds, path)
        return path

    def test_bad_magic(self, tmp_path):
        path = self._write_valid(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"NOPE"
        path.write_bytes(bytes(blob))
        with pytest.raises(BadMagicError):
            read_dataset(path)

    def test_version_mismatch(self, tmp_path):
        path = self._write_valid(tmp_path)
        blob = bytearray(path.read_bytes())
        struct.pack_into("<H", blob, 4, 99)
        path.write_bytes(bytes(blob))
        with pytest.raises(UnsupportedVersionError):
            read_dataset(path)

    def test_truncated_payload(self, tmp_path):
        path = self._write_valid(tmp_path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-7])
        with pytest.raises(TruncatedFileError):
            read_dataset(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "tiny.fsof"
        path.write_bytes(MAGIC)
        with pytest.raises(TruncatedFileError):
            read_dataset(path)

    def test_trailing_bytes(self, tmp_path):
        path = self._write_valid(tmp_path)
        path.write_bytes(path.read_bytes() + b"xx")
        with pytest.raises(DatasetFormatError, match="trailing"):
            read_dataset(path)

    def test_non_finite_values(self, tmp_path):
        path = self._write_valid(tmp_path)
        blob = bytearray(path.read_bytes())
        struct.pack_into("<f", blob, 10 + 10, np.inf)
        path.write_bytes(bytes(blob))
        with pytest.raises(NonFiniteValueError):
            read_dataset(path)


    def test_label_beyond_item_count(self, tmp_path):
        path = self._write_valid(tmp_path)
        blob = bytearray(path.read_bytes())
        second_item = 10 + (10 + 4 * 3 * 4 * 5)
        struct.pack_into("<I", blob, second_item, 10**6)
        path.write_bytes(bytes(blob))
        with pytest.raises(DatasetFormatError, match="item 1 has label 1000000") as err:
            read_dataset(path)
        assert len(str(err.value)) < 1024

    def test_zero_sized_dimension(self, tmp_path):
        path = self._write_valid(tmp_path)
        blob = bytearray(path.read_bytes())
        struct.pack_into("<H", blob, 10 + 4, 0)
        path.write_bytes(bytes(blob))
        with pytest.raises(DatasetFormatError, match="zero-sized"):
            read_dataset(path)

    def test_mixed_shapes_name_the_item(self, tmp_path, monkeypatch):
        # every item must have item 0's shape, whichever chunk it is read in
        items = [(0, np.zeros((2, 2, 3))), (1, np.zeros((2, 2, 3))), (0, np.zeros((2, 3, 3)))]
        path = tmp_path / "mixed.fsof"
        path.write_bytes(pack_items(items))
        offset = 10 + 2 * (10 + 4 * 12)
        for chunk_bytes in (1, 500, 1 << 20):
            monkeypatch.setattr(dataset_io, "CHUNK_BYTES", chunk_bytes)
            with pytest.raises(
                DatasetFormatError,
                match=rf"item 2 at byte {offset} has shape \(2, 3, 3\), item 0 has \(2, 2, 3\)",
            ):
                read_dataset(path)

    def test_sidecar_class_name_count(self, tmp_path):
        path = self._write_valid(tmp_path)
        sidecar_path(path).write_text(json.dumps({"class_names": ["a", "b", "c"]}))
        with pytest.raises(DatasetFormatError, match="3 class names for 2 classes"):
            read_dataset(path)

    def test_sidecar_not_an_object(self, tmp_path):
        path = self._write_valid(tmp_path)
        sidecar_path(path).write_text("[1, 2]")
        with pytest.raises(DatasetFormatError, match="JSON object"):
            read_dataset(path)

    def test_sidecar_not_json(self, tmp_path):
        path = self._write_valid(tmp_path)
        sidecar_path(path).write_text("{not json")
        with pytest.raises(DatasetFormatError, match="not valid JSON"):
            read_dataset(path)


def pack_items(items):
    """FSOF bytes for (label, values) items, each of its own shape."""
    blob = [struct.pack("<4sHI", MAGIC, FORMAT_VERSION, len(items))]
    for label, vals in items:
        blob.append(struct.pack("<IHHH", label, *vals.shape))
        blob.append(np.asarray(vals, dtype="<f4").tobytes())
    return b"".join(blob)


class TestChunkedRead:
    """read_dataset reads and widens the payload CHUNK_BYTES at a time; a chunk
    of one byte still holds one item."""

    @pytest.mark.parametrize("chunk_bytes", [1, 250, 500, 1 << 20])
    def test_round_trip_at_any_chunk_size(self, tmp_path, monkeypatch, chunk_bytes):
        monkeypatch.setattr(dataset_io, "CHUNK_BYTES", chunk_bytes)
        ds = random_dataset(n_items=7)
        write_dataset(ds, tmp_path / "data.fsof")
        back = read_dataset(tmp_path / "data.fsof")
        np.testing.assert_array_equal(back.values, ds.values)
        np.testing.assert_array_equal(back.labels, ds.labels)
        assert np.array_equal(back.embeddings, spatial_avg_pool(ds.values))

    def test_tensor_is_read_only(self, tmp_path):
        write_dataset(random_dataset(), tmp_path / "data.fsof")
        back = read_dataset(tmp_path / "data.fsof")
        assert not back.values.flags.writeable and not back.embeddings.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            back.values[0, 0, 0, 0] = 1.0

    @pytest.mark.skipif(not STATM.exists(), reason="resident size is read from /proc/self/statm")
    def test_dropped_tensor_goes_back_to_the_system(self, tmp_path):
        # 9.4 MB of doubles: a block the C heap would keep for the next load
        path = tmp_path / "data.fsof"
        write_dataset(random_dataset(n_items=300, num_classes=12, h=8, w=8, d=64), path)
        tensor_mb = 300 * 8 * 8 * 64 * 8 / 2**20
        for _ in range(3):
            ds = read_dataset(path)
            loaded = resident_mb()
            del ds
            gc.collect()
            assert loaded - resident_mb() > 0.9 * tensor_mb

    @pytest.mark.parametrize("chunk_bytes", [1, 500, 1 << 20])
    @pytest.mark.parametrize("bad", [0, 3, 6])
    def test_non_finite_value_names_its_item(self, tmp_path, monkeypatch, chunk_bytes, bad):
        monkeypatch.setattr(dataset_io, "CHUNK_BYTES", chunk_bytes)
        ds = random_dataset(n_items=7)
        path = tmp_path / "data.fsof"
        write_dataset(ds, path)
        blob = bytearray(path.read_bytes())
        item_bytes = 10 + 4 * 3 * 4 * 5
        struct.pack_into("<f", blob, 10 + bad * item_bytes + 10 + 4 * 17, np.nan)
        path.write_bytes(bytes(blob))
        with pytest.raises(NonFiniteValueError, match=rf"item {bad} contains non-finite"):
            read_dataset(path)

    @pytest.mark.parametrize("chunk_bytes", [1, 500])
    def test_truncation_in_a_later_chunk_names_the_item(self, tmp_path, monkeypatch, chunk_bytes):
        monkeypatch.setattr(dataset_io, "CHUNK_BYTES", chunk_bytes)
        ds = random_dataset(n_items=7)
        path = tmp_path / "data.fsof"
        write_dataset(ds, path)
        item_bytes = 10 + 4 * 3 * 4 * 5
        blob = path.read_bytes()
        path.write_bytes(blob[: 10 + 5 * item_bytes + 4])
        with pytest.raises(TruncatedFileError, match=rf"item 5 header truncated at byte {10 + 5 * item_bytes}"):
            read_dataset(path)
        path.write_bytes(blob[:-7])
        with pytest.raises(TruncatedFileError, match="item 6 payload truncated"):
            read_dataset(path)

    def test_count_beyond_the_file_is_truncated(self, tmp_path):
        path = tmp_path / "data.fsof"
        write_dataset(random_dataset(n_items=2, num_classes=2), path)
        blob = bytearray(path.read_bytes())
        struct.pack_into("<I", blob, 6, 2**32 - 1)
        path.write_bytes(bytes(blob))
        with pytest.raises(DatasetFormatError):
            read_dataset(path)

    def test_huge_first_shape_is_truncated(self, tmp_path):
        path = tmp_path / "huge.fsof"
        path.write_bytes(struct.pack("<4sHIIHHH", MAGIC, FORMAT_VERSION, 1, 0, 65535, 65535, 65535) + bytes(8))
        with pytest.raises(TruncatedFileError, match="item 0 payload truncated"):
            read_dataset(path)

    def test_no_items(self, tmp_path):
        path = tmp_path / "empty.fsof"
        path.write_bytes(pack_items([]))
        with pytest.raises(DatasetFormatError, match="no items"):
            read_dataset(path)


@pytest.fixture(scope="module")
def small_fsof(tmp_path_factory):
    """A valid four-item file: (path, bytes)."""
    path = tmp_path_factory.mktemp("fuzz") / "data.fsof"
    write_dataset(random_dataset(n_items=4, num_classes=2, h=2, w=2, d=3), path)
    return path, path.read_bytes()


@settings(max_examples=200, deadline=1000)
@given(data=st.data())
def test_corrupted_file_loads_or_raises_format_error(small_fsof, data):
    path, blob = small_fsof
    corrupt = bytearray(blob)
    edits = st.tuples(st.integers(0, len(blob) - 1), st.integers(0, 255))
    for pos, byte in data.draw(st.lists(edits, max_size=6)):
        corrupt[pos] = byte
    cut = data.draw(st.none() | st.integers(0, len(blob) - 1))
    path.write_bytes(bytes(corrupt[:cut]))
    try:
        read_dataset(path)
    except DatasetFormatError:
        pass


class TestHeatmapExport:
    def _read_pgm(self, path):
        blob = path.read_bytes()
        assert blob.startswith(b"P5\n")
        rest = blob[3:]
        dims, rest = rest.split(b"\n", 1)
        w, h = (int(v) for v in dims.split())
        maxval, pixels = rest.split(b"\n", 1)
        assert maxval == b"255"
        return np.frombuffer(pixels, dtype=np.uint8).reshape(h, w)

    def test_all_black_and_all_white(self, tmp_path):
        export_heatmap(np.zeros((2, 3)), tmp_path / "black.pgm")
        assert np.all(self._read_pgm(tmp_path / "black.pgm") == 0)
        export_heatmap(np.ones((2, 3)), tmp_path / "white.pgm")
        assert np.all(self._read_pgm(tmp_path / "white.pgm") == 255)

    def test_ramp_rounds_half_up(self, tmp_path):
        vals = np.linspace(0.0, 1.0, 12).reshape(3, 4)
        export_heatmap(vals, tmp_path / "ramp.pgm")
        pixels = self._read_pgm(tmp_path / "ramp.pgm")
        expected = np.floor(vals * 255.0 + 0.5).astype(np.uint8)
        np.testing.assert_array_equal(pixels, expected)
        # explicit half-up case: 0.5/255 boundary
        export_heatmap(np.array([[1.0 / 510.0]]), tmp_path / "half.pgm")
        assert self._read_pgm(tmp_path / "half.pgm")[0, 0] == 1

    def test_out_of_range_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="normalize"):
            export_heatmap(np.array([[1.2]]), tmp_path / "bad.pgm")
        with pytest.raises(ValueError, match="normalize"):
            export_heatmap(np.array([[-0.1]]), tmp_path / "bad.pgm")

    def test_non_map_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="H x W"):
            export_heatmap(np.zeros((2, 2, 1)), tmp_path / "bad.pgm")

    def test_dimensions_in_header(self, tmp_path):
        export_heatmap(np.zeros((2, 5)), tmp_path / "dims.pgm")
        pixels = self._read_pgm(tmp_path / "dims.pgm")
        assert pixels.shape == (2, 5)
