import gc
import hashlib
import os
import struct
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fsosr
from fsosr import cli, dataset_io
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
    write_dataset,
)
from fsosr.episode import FeatureDataset, SyntheticConfig, generate_synthetic, spatial_avg_pool


STATM = Path("/proc/self/statm")
STATUS = Path("/proc/self/status")
FDS = Path("/proc/self/fd")
F32_MAX = float(np.finfo(np.float32).max)
SRC = Path(fsosr.__file__).resolve().parents[1]


def resident_mb() -> float:
    return int(STATM.read_text().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20


def anonymous_mb() -> float:
    """Resident memory not backed by a file (RssAnon, in KiB in the status file)."""
    line = next(line for line in STATUS.read_text().splitlines() if line.startswith("RssAnon:"))
    return int(line.split()[1]) / 2**10


def random_dataset(n_items=12, num_classes=3, h=3, w=4, d=5, seed=0):
    rng = np.random.default_rng(seed)
    vals = rng.normal(size=(n_items, h, w, d)).astype(np.float32).astype(np.float64)
    labels = np.arange(n_items) % num_classes
    return FeatureDataset(vals, labels)


class TestRoundTrip:
    def test_values_and_labels_identical(self, tmp_path):
        ds = random_dataset()
        path = tmp_path / "data.fsof"
        write_dataset(ds, path)
        back = read_dataset(path)
        assert len(back) == len(ds)
        np.testing.assert_array_equal(back.labels, ds.labels)
        np.testing.assert_array_equal(back.values, ds.values)

    def test_size_formula(self, tmp_path):
        ds = random_dataset(n_items=20, h=3, w=4, d=5)
        path = tmp_path / "data.fsof"
        write_dataset(ds, path)
        expected = 10 + 20 * (10 + 4 * 3 * 4 * 5)
        assert path.stat().st_size == expected

    @pytest.mark.parametrize("leftover", ["{not json", "[" * 100_000 + "]" * 100_000], ids=["not-json", "deep"])
    def test_leftover_sidecar_is_never_opened(self, tmp_path, capsys, leftover):
        # earlier versions wrote class names to <file>.json; such a file, however
        # malformed, changes neither the load nor inspect's report
        ds = random_dataset()
        path = tmp_path / "data.fsof"
        write_dataset(ds, path)
        assert cli.main(["inspect", str(path)]) == 0
        report = capsys.readouterr().out
        assert report.endswith("class 0: 4 items\nclass 1: 4 items\nclass 2: 4 items\n")
        Path(f"{path}.json").write_text(leftover)
        np.testing.assert_array_equal(read_dataset(path).values, ds.values)
        assert cli.main(["inspect", str(path)]) == 0
        assert capsys.readouterr().out == report


class TestGeneratedFile:
    def test_generated_dataset_equals_its_file(self, tmp_path):
        cfg = SyntheticConfig(bkg_noise_mean=1.0, bkg_noise_scale=2.0, seed=3)
        ds, _ = generate_synthetic(cfg)
        write_dataset(ds, tmp_path / "data.fsof")
        back = read_dataset(tmp_path / "data.fsof")
        assert np.array_equal(back.values, ds.values)
        assert np.array_equal(back.embeddings, ds.embeddings)

    def test_benchmark_file_bytes_are_pinned(self, benchmark_dataset):
        path, _, _ = benchmark_dataset
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == "a2ab9e96fac82e94a32fbcadd64976d781a45572555d5ecce504749c57700b77"

    def test_seeded_region_file_bytes_are_pinned(self, tmp_path):
        # 2x2 ramps placed by resolve_fg_regions' draws, not fixed regions
        cfg = SyntheticConfig(num_classes=3, items_per_class=2, height=5, width=5, channels=8)
        write_dataset(generate_synthetic(cfg)[0], tmp_path / "seeded.fsof")
        digest = hashlib.sha256((tmp_path / "seeded.fsof").read_bytes()).hexdigest()
        assert digest == "4c74176e40f4fee0b9b4b957355a3175975d95f62ca409fd67a2e473aa322030"


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

    @pytest.mark.parametrize("i", [0, 4])
    def test_one_message_for_a_non_finite_item(self, tmp_path, i):
        values = np.ones((6, 2, 3, 4), dtype=np.float32)
        values[i, 1, 2, 0] = np.nan
        labels = np.arange(6) % 3
        message = f"item {i} contains non-finite values"
        with pytest.raises(ValueError) as built:
            FeatureDataset(values, labels)
        assert str(built.value) == message
        # the same items as an FSOF file, packed by hand since the writer takes a dataset
        records = np.zeros(6, dataset_io._record_dtype(values.shape[1:]))
        records["label"], records["shape"], records["values"] = labels, values.shape[1:], values
        path = tmp_path / "nan.fsof"
        path.write_bytes(dataset_io._HEADER.pack(MAGIC, FORMAT_VERSION, 6) + records.tobytes())
        with pytest.raises(NonFiniteValueError) as read:
            read_dataset(path)
        assert isinstance(read.value, ValueError)
        assert str(read.value) == f"{path}: {message}"


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

    def test_mixed_shapes_name_the_item(self, tmp_path):
        # every item must have item 0's shape
        items = [(0, np.zeros((2, 2, 3))), (1, np.zeros((2, 2, 3))), (0, np.zeros((2, 3, 3)))]
        path = tmp_path / "mixed.fsof"
        path.write_bytes(pack_items(items))
        offset = 10 + 2 * (10 + 4 * 12)
        with pytest.raises(
            DatasetFormatError,
            match=rf"item 2 at byte {offset} has shape \(2, 3, 3\), item 0 has \(2, 2, 3\)",
        ):
            read_dataset(path)

    def test_first_of_two_bad_items_is_named(self, tmp_path):
        items = [(k % 2, np.zeros((2, 2, 3))) for k in range(6)]
        items[2] = (9, np.zeros((2, 2, 3)))
        items[4] = (0, np.zeros((2, 3, 3)))
        path = tmp_path / "two-bad.fsof"
        path.write_bytes(pack_items(items))
        with pytest.raises(DatasetFormatError, match=r"item 2 has label 9, but 6 items allow at most 5"):
            read_dataset(path)

    def test_header_fault_is_reported_before_an_earlier_non_finite_item(self, tmp_path):
        # headers are checked over the whole file before any item is pooled
        items = [(k % 2, np.zeros((2, 2, 3))) for k in range(6)]
        items[1] = (1, np.full((2, 2, 3), np.nan))
        items[4] = (9, np.zeros((2, 2, 3)))
        path = tmp_path / "nan-then-label.fsof"
        path.write_bytes(pack_items(items))
        with pytest.raises(DatasetFormatError, match=r"item 4 has label 9, but 6 items allow at most 5"):
            read_dataset(path)

    def test_truncated_tail_is_reported_before_an_earlier_non_finite_item(self, tmp_path):
        items = [(k % 2, np.zeros((2, 2, 3))) for k in range(6)]
        items[1] = (1, np.full((2, 2, 3), np.nan))
        path = tmp_path / "nan-then-short.fsof"
        path.write_bytes(pack_items(items)[:-5])
        with pytest.raises(TruncatedFileError, match="item 5 payload truncated"):
            read_dataset(path)

    @pytest.mark.parametrize(
        "i, label, shape, cut, message",
        [
            (2, 9, (2, 2, 3), -5, "item 2 has label 9, but 3 items allow at most 2"),
            (2, 0, (2, 3, 3), -5, "item 2 at byte 126 has shape (2, 3, 3), item 0 has (2, 2, 3)"),
            (2, 0, (2, 0, 3), None, "item 2 has zero-sized shape (2, 0, 3)"),
            (2, 0, (2, 2, 3), 131, "item 2 header truncated at byte 126"),
            (0, 7, (2, 2, 3), 30, "item 0 has label 7, but 3 items allow at most 2"),
            (0, 0, (2, 0, 3), None, "item 0 has zero-sized shape (2, 0, 3)"),
            (0, 0, (2, 2, 3), 15, "item 0 header truncated at byte 10"),
        ],
    )
    def test_short_or_first_item_checks_keep_their_order(self, tmp_path, i, label, shape, cut, message):
        # the short item after the last whole record, and item 0, whose shape
        # sizes the records, go through a header's checks in the same order
        items = [(k % 2, np.zeros((2, 2, 3))) for k in range(3)]
        items[i] = (label, np.zeros(shape))
        path = tmp_path / "data.fsof"
        path.write_bytes(pack_items(items)[:cut])
        with pytest.raises(DatasetFormatError) as err:
            read_dataset(path)
        assert str(err.value) == f"{path}: {message}"

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_fifo_fails_without_blocking(self, tmp_path):
        # a FIFO with no writer blocks a plain open, and cannot be mapped
        path = tmp_path / "pipe.fsof"
        os.mkfifo(path)
        with ThreadPoolExecutor(1) as pool:
            load = pool.submit(read_dataset, path)
            try:
                error = load.exception(timeout=10)
            except FutureTimeout:
                open(path, "wb").close()  # a writer lets the blocked open return
                raise
        assert isinstance(error, DatasetFormatError)
        assert str(error) == f"{path}: not a regular file"

    def test_directory_fails_typed_and_closes_its_descriptor(self, tmp_path):
        before = len(os.listdir(FDS)) if FDS.exists() else None
        for _ in range(5):
            with pytest.raises(DatasetFormatError) as info:
                read_dataset(tmp_path)
            assert str(info.value) == f"{tmp_path}: not a regular file"
        if before is not None:
            assert len(os.listdir(FDS)) == before


def pack_items(items):
    """FSOF bytes for (label, values) items, each of its own shape."""
    blob = [struct.pack("<4sHI", MAGIC, FORMAT_VERSION, len(items))]
    for label, vals in items:
        blob.append(struct.pack("<IHHH", label, *vals.shape))
        blob.append(np.asarray(vals, dtype="<f4").tobytes())
    return b"".join(blob)


class TestChunkedRead:
    """Loading what write_dataset wrote. The writer packs the payload
    CHUNK_BYTES at a time, and a chunk of one byte still holds one item; the
    reader maps the file and checks and pools it whole, so no chunk size the
    file was written at changes what a load returns or raises. Also what a
    loaded dataset holds: its mapped tensor, memory and descriptors."""

    @pytest.mark.parametrize("chunk_bytes", [1, 250, 500, 1 << 20])
    def test_round_trip_at_any_chunk_size(self, tmp_path, monkeypatch, chunk_bytes):
        monkeypatch.setattr(dataset_io, "CHUNK_BYTES", chunk_bytes)
        ds = random_dataset(n_items=7)
        write_dataset(ds, tmp_path / "data.fsof")
        back = read_dataset(tmp_path / "data.fsof")
        np.testing.assert_array_equal(back.values, ds.values)
        np.testing.assert_array_equal(back.labels, ds.labels)
        assert np.array_equal(back.embeddings, spatial_avg_pool(ds.values))

    def test_written_bytes_do_not_depend_on_chunk_size(self, tmp_path, monkeypatch):
        ds = random_dataset(n_items=7)  # 250-byte items
        blobs = []
        for chunk_bytes in (dataset_io.CHUNK_BYTES, 1, 250, 500):
            monkeypatch.setattr(dataset_io, "CHUNK_BYTES", chunk_bytes)
            write_dataset(ds, tmp_path / "data.fsof")
            blobs.append((tmp_path / "data.fsof").read_bytes())
        assert all(blob == blobs[0] for blob in blobs[1:])

    def test_tensor_is_float32_and_embeddings_float64(self, tmp_path):
        write_dataset(random_dataset(), tmp_path / "data.fsof")
        back = read_dataset(tmp_path / "data.fsof")
        assert back.values.dtype == np.float32
        assert back.embeddings.dtype == np.float64

    def test_tensor_is_read_only(self, tmp_path):
        write_dataset(random_dataset(), tmp_path / "data.fsof")
        back = read_dataset(tmp_path / "data.fsof")
        assert not back.values.flags.writeable and not back.embeddings.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            back.values[0, 0, 0, 0] = 1.0

    @pytest.mark.skipif(not STATM.exists(), reason="resident size is read from /proc/self/statm")
    def test_dropped_tensor_goes_back_to_the_system(self, tmp_path):
        # 4.7 MB of floats: a block the C heap would keep for the next load
        path = tmp_path / "data.fsof"
        write_dataset(random_dataset(n_items=300, num_classes=12, h=8, w=8, d=64), path)
        for _ in range(3):
            ds = read_dataset(path)
            loaded = resident_mb()
            tensor_mb = ds.values.nbytes / 2**20
            del ds
            gc.collect()
            assert loaded - resident_mb() > 0.9 * tensor_mb

    @pytest.mark.skipif(not STATUS.exists(), reason="anonymous memory is read from /proc/self/status")
    def test_load_makes_no_copy(self, tmp_path):
        # the tensor is a view of the mapped file, so the load holds no
        # anonymous copy of the 4.7 MB of floats
        path = tmp_path / "data.fsof"
        write_dataset(random_dataset(n_items=300, num_classes=12, h=8, w=8, d=64), path)
        gc.collect()
        before = anonymous_mb()
        ds = read_dataset(path)
        grown = anonymous_mb() - before
        assert not ds.values.flags.owndata and not ds.values.flags.writeable
        assert grown < 0.25 * ds.values.nbytes / 2**20

    @pytest.mark.skipif(sys.version_info < (3, 13), reason="below Python 3.13 a mapping keeps a descriptor")
    @pytest.mark.skipif(not FDS.exists(), reason="open descriptors are listed in /proc/self/fd")
    def test_loaded_datasets_hold_no_descriptor(self, tmp_path):
        ds = random_dataset()
        write_dataset(ds, tmp_path / "data.fsof")
        before = len(os.listdir(FDS))
        loaded = [read_dataset(tmp_path / "data.fsof") for _ in range(5)]
        assert len(os.listdir(FDS)) == before
        for back in loaded:
            np.testing.assert_array_equal(back.values, ds.values)

    def test_rewritten_file_leaves_a_loaded_dataset_alone(self, tmp_path):
        # in a child process, so that a fault on the mapped file (SIGBUS) fails
        # this test instead of killing the test run; the new file is smaller,
        # so a file truncated in place would lose pages the old dataset maps
        script = """if True:
            import sys
            import numpy as np
            from fsosr.dataset_io import read_dataset, write_dataset
            from fsosr.episode import FeatureDataset

            path = sys.argv[1]
            old = FeatureDataset(np.arange(64 * 60, dtype=np.float32).reshape(64, 3, 4, 5), np.arange(64) % 4)
            new = FeatureDataset(np.full((2, 1, 1, 1), 7.0, np.float32), [0, 1])
            write_dataset(old, path)
            loaded = read_dataset(path)
            write_dataset(new, path)
            assert np.array_equal(loaded.values, old.values)
            assert np.array_equal(read_dataset(path).values, new.values)
        """
        path = tmp_path / "data.fsof"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
        child = subprocess.run(
            [sys.executable, "-c", script, str(path)], env=env, capture_output=True, text=True, timeout=60
        )
        assert child.returncode == 0, child.stderr
        assert [p.name for p in tmp_path.iterdir()] == ["data.fsof"]

    @pytest.mark.parametrize("chunk_bytes", [1, 500, 1 << 20])
    @pytest.mark.parametrize("bad", [0, 3, 6])
    def test_non_finite_value_names_its_item(self, tmp_path, monkeypatch, chunk_bytes, bad):
        # finiteness is checked on the pooled rows, which are finite exactly
        # when every value is; values 17 and 22 of an item are channel 2 of two
        # cells, so inf and -inf there give that channel a NaN mean
        monkeypatch.setattr(dataset_io, "CHUNK_BYTES", chunk_bytes)
        ds = random_dataset(n_items=7)
        path = tmp_path / "data.fsof"
        write_dataset(ds, path)
        clean = path.read_bytes()
        item_values = 10 + bad * (10 + 4 * 3 * 4 * 5) + 10
        for cells in ({17: np.nan}, {17: np.inf, 22: -np.inf}, {17: -np.inf}):
            blob = bytearray(clean)
            for cell, value in cells.items():
                struct.pack_into("<f", blob, item_values + 4 * cell, value)
            path.write_bytes(bytes(blob))
            with pytest.raises(NonFiniteValueError, match=rf"item {bad} contains non-finite"):
                read_dataset(path)
        # float32's largest magnitude in every cell still has a finite mean
        for big in (F32_MAX, -F32_MAX):
            blob = bytearray(clean)
            struct.pack_into("<60f", blob, item_values, *[big] * 60)
            path.write_bytes(bytes(blob))
            back = read_dataset(path)
            assert np.array_equal(back.embeddings[bad], np.full(5, big))
            assert np.isfinite(back.embeddings).all()

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


def corrupted_copies(blob: bytes, item_bytes: int, per_kind: int, seed: int) -> list[bytes]:
    """Seeded corruptions of an FSOF file whose records are item_bytes long,
    per_kind of each kind: random bytes, a NaN or inf cell, a label, a shape
    field, the item count, a truncation and appended bytes."""
    rng = np.random.default_rng(seed)
    count = (len(blob) - 10) // item_bytes

    def patched(offset: int, fmt: str, value) -> bytes:
        out = bytearray(blob)
        struct.pack_into(fmt, out, offset, value)
        return bytes(out)

    def record(field: int) -> int:  # offset of a random item's field, counted in its record
        return 10 + int(rng.integers(count)) * item_bytes + field

    def edge_or_any(values: list, bits: int) -> int:  # mostly an edge value, else any `bits`-bit one
        return int(values[rng.integers(len(values))]) if rng.random() < 0.7 else int(rng.integers(2**bits))

    def scrambled() -> bytes:
        out = np.frombuffer(blob, np.uint8).copy()
        at = rng.integers(len(blob), size=int(rng.integers(1, 5)))
        out[at] = rng.integers(256, size=len(at))
        return out.tobytes()

    kinds = [
        scrambled,
        lambda: patched(record(10 + 4 * int(rng.integers((item_bytes - 10) // 4))), "<f",
                        [np.nan, np.inf, -np.inf][rng.integers(3)]),
        lambda: patched(record(0), "<I", edge_or_any([0, 1, 2, 3, count - 1, count, 2**32 - 1], 32)),
        lambda: patched(record(4 + 2 * int(rng.integers(3))), "<H", edge_or_any([0, 1, 2, 3, 4, 65535], 16)),
        lambda: patched(6, "<I", edge_or_any([0, 1, count - 1, count + 1, 2 * count, 2**32 - 1], 32)),
        lambda: blob[: rng.integers(len(blob))],
        lambda: blob + rng.bytes(int(rng.integers(1, 2 * item_bytes))),
    ]
    return [make() for make in kinds for _ in range(per_kind)]


CORPUS_DIGEST = "890e5a1002fab861708ad3adafcbe2ac154db9363dccea81fcb402f78dac5703"


def test_corruption_outcomes_are_pinned(tmp_path):
    """Every read of a seeded corpus of corrupted copies of a 7-item file
    either loads or fails with a DatasetFormatError, and one sha256 over the
    outcomes, each the loaded data's digest or the error's class and message,
    pins them: a changed message, check order or accepted file changes it."""
    base = tmp_path / "base.fsof"
    values = (np.arange(7 * 12, dtype=np.float32).reshape(7, 2, 2, 3) - 40) / 8
    write_dataset(FeatureDataset(values, np.arange(7) % 3), base)
    outcomes, kinds = [], set()
    for i, blob in enumerate(corrupted_copies(base.read_bytes(), 10 + 4 * 12, per_kind=300, seed=23)):
        path = tmp_path / f"{i}.fsof"
        path.write_bytes(blob)
        try:
            ds = read_dataset(path)
        except DatasetFormatError as exc:
            kinds.add(type(exc))
            outcomes.append(f"{type(exc).__name__}: {str(exc).replace(str(path), 'data.fsof')}")
            continue
        data = ds.values.tobytes() + ds.labels.astype("<i8").tobytes() + repr(ds.values.shape).encode()
        outcomes.append(hashlib.sha256(data).hexdigest())
    assert kinds == {
        BadMagicError, UnsupportedVersionError, TruncatedFileError, NonFiniteValueError, DatasetFormatError
    }
    assert hashlib.sha256("\n".join(outcomes).encode()).hexdigest() == CORPUS_DIGEST


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
