import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from fsosr.featmap import ActivationMap, FeatureMap


def random_dataset(n_items=12, num_classes=3, h=3, w=4, d=5, seed=0):
    rng = np.random.default_rng(seed)
    items = []
    for i in range(n_items):
        vals = rng.normal(size=(h, w, d)).astype(np.float32).astype(np.float64)
        items.append((FeatureMap(vals), i % num_classes))
    return FeatureDataset(items, class_names=[f"c{k}" for k in range(num_classes)])


class TestRoundTrip:
    def test_values_and_labels_identical(self, tmp_path):
        ds = random_dataset()
        path = tmp_path / "data.fsof"
        write_dataset(ds, path)
        back = read_dataset(path)
        assert len(back.items) == len(ds.items)
        for (fa, la), (fb, lb) in zip(ds.items, back.items):
            assert la == lb
            np.testing.assert_array_equal(fa.values, fb.values)
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
        export_heatmap(ActivationMap(np.zeros((2, 3))), tmp_path / "black.pgm")
        assert np.all(self._read_pgm(tmp_path / "black.pgm") == 0)
        export_heatmap(ActivationMap(np.ones((2, 3))), tmp_path / "white.pgm")
        assert np.all(self._read_pgm(tmp_path / "white.pgm") == 255)

    def test_ramp_rounds_half_up(self, tmp_path):
        vals = np.linspace(0.0, 1.0, 12).reshape(3, 4)
        export_heatmap(ActivationMap(vals), tmp_path / "ramp.pgm")
        pixels = self._read_pgm(tmp_path / "ramp.pgm")
        expected = np.floor(vals * 255.0 + 0.5).astype(np.uint8)
        np.testing.assert_array_equal(pixels, expected)
        # explicit half-up case: 0.5/255 boundary
        export_heatmap(ActivationMap([[1.0 / 510.0]]), tmp_path / "half.pgm")
        assert self._read_pgm(tmp_path / "half.pgm")[0, 0] == 1

    def test_out_of_range_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="normalize"):
            export_heatmap(ActivationMap([[1.2]]), tmp_path / "bad.pgm")
        with pytest.raises(ValueError, match="normalize"):
            export_heatmap(ActivationMap([[-0.1]]), tmp_path / "bad.pgm")

    def test_dimensions_in_header(self, tmp_path):
        export_heatmap(ActivationMap(np.zeros((2, 5))), tmp_path / "dims.pgm")
        pixels = self._read_pgm(tmp_path / "dims.pgm")
        assert pixels.shape == (2, 5)
