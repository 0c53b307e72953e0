"""IDX codec, partitioner, and dataset-builder contracts."""
import gzip
import re
import shutil
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from conftest import count_fan_outs, force_numpy, tiny_split
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fedsel import data, native
from fedsel.data import (
    DataFormatError,
    DeviceDataset,
    HeldOutRows,
    IDX_FILES,
    SplitDataset,
    generate_synthetic,
    held_out_blocks,
    load_idx_split,
    parse_idx,
    read_idx,
    shard_partition,
    write_idx,
    write_synthetic_image_corpus,
)
from fedsel.data import _carve_local_tests, _write_pixels
from fedsel.rng import substream
from fedsel.settings import ConfigError


def idx_bytes(magic_ndim: int, dims: tuple[int, ...], payload: bytes) -> bytes:
    return struct.pack(f">I{len(dims)}I", magic_ndim, *dims) + payload


def test_parse_idx_image_header_arithmetic():
    raw = idx_bytes(0x00000803, (10000, 28, 28), bytes(7_840_000))
    tensor = parse_idx(raw)
    assert tensor.shape == (10000, 28, 28)
    assert tensor.dtype == np.uint8


def test_parse_idx_label_header_arithmetic():
    raw = idx_bytes(0x00000801, (10000,), bytes(10_000))
    labels = parse_idx(raw)
    assert labels.shape == (10000,)


def test_parse_idx_payload_mismatch():
    raw = idx_bytes(0x00000803, (10000, 28, 28), bytes(100))
    with pytest.raises(DataFormatError, match="mismatch"):
        parse_idx(raw)


def test_parse_idx_bad_magic():
    with pytest.raises(DataFormatError, match="magic"):
        parse_idx(idx_bytes(0x12340803, (4,), bytes(4)))
    with pytest.raises(DataFormatError, match="truncated"):
        parse_idx(b"\x00\x00")


@given(
    arr=arrays(
        dtype=np.uint8,
        shape=st.one_of(
            st.tuples(st.integers(0, 8)),
            st.tuples(st.integers(0, 5), st.integers(1, 5)),
            st.tuples(st.integers(0, 4), st.integers(1, 3), st.integers(1, 3)),
        ),
    )
)
@settings(max_examples=80, deadline=None)
def test_idx_round_trip(arr):
    assert np.array_equal(parse_idx(write_idx(arr)), arr)


def test_read_idx_handles_gzip(tmp_path):
    arr = np.arange(24, dtype=np.uint8).reshape(2, 3, 4)
    plain = tmp_path / "x-idx3-ubyte"
    plain.write_bytes(write_idx(arr))
    gz = tmp_path / "y-idx3-ubyte.gz"
    gz.write_bytes(gzip.compress(write_idx(arr)))
    assert np.array_equal(read_idx(plain), arr)
    assert np.array_equal(read_idx(gz), arr)


@pytest.mark.parametrize("raw", [b"", b"\x00\x00"])
def test_read_idx_refuses_a_truncated_plain_file(tmp_path, raw):
    # a plain file is mapped, and an empty one cannot be: both stay loud
    short = tmp_path / "short-idx3-ubyte"
    short.write_bytes(raw)
    with pytest.raises(DataFormatError, match="truncated"):
        read_idx(short)


# -- partitioner -------------------------------------------------------------


def test_shard_partition_label_witness():
    # 2 shards per device, label-aligned shards -> <= 2 distinct labels each
    rng = np.random.default_rng(0)
    labels = rng.integers(10, size=6000)
    parts = shard_partition(labels, num_devices=100, shards_per_device=2, seed=5)
    assert sorted(np.concatenate(parts).tolist()) == list(range(6000))
    for ids in parts:
        assert len(np.unique(labels[ids])) <= 2


def test_shard_partition_single_device():
    labels = np.array([3, 1, 4, 1, 5])
    (only,) = shard_partition(labels, num_devices=1, shards_per_device=1, seed=1)
    assert sorted(only.tolist()) == [0, 1, 2, 3, 4]


@pytest.mark.parametrize(
    "counts, message",
    [
        ((0, 2), "num_devices must be in [1, inf), got 0"),
        ((-1, 2), "num_devices must be in [1, inf), got -1"),
        ((5, 0), "shards_per_device must be in [1, inf), got 0"),
        ((5, -1), "shards_per_device must be in [1, inf), got -1"),
    ],
)
def test_shard_partition_refuses_counts_below_one(counts, message):
    # numpy's own error ("number sections must be larger than 0.") names no
    # argument; the refusal is the data.num_devices / data.shards_per_device one
    with pytest.raises(ConfigError, match="^" + re.escape(message)):
        shard_partition(np.arange(20) % 10, *counts, seed=1)


def test_shard_partition_deterministic():
    labels = np.random.default_rng(2).integers(10, size=2000)
    a = shard_partition(labels, 20, 2, seed=9)
    b = shard_partition(labels, 20, 2, seed=9)
    c = shard_partition(labels, 20, 2, seed=10)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert any(not np.array_equal(x, y) for x, y in zip(a, c))


def test_shard_partition_unbalanced_quotas():
    labels = np.random.default_rng(3).integers(10, size=6000)
    parts = shard_partition(labels, 100, 2, seed=4, unbalanced=True)
    assert sorted(np.concatenate(parts).tolist()) == list(range(6000))
    shard_counts = {round(len(ids) / 30) for ids in parts}  # shard size ~30 here
    # quotas drawn from {1, 2, 3}; repair keeps the total exact
    assert shard_counts <= {1, 2, 3}
    assert len(shard_counts) > 1
    assert sum(len(ids) for ids in parts) == 6000


def test_shard_partition_errors():
    with pytest.raises(DataFormatError, match="empty"):
        shard_partition(np.array([], dtype=int), 1, 1, seed=0)
    with pytest.raises(DataFormatError, match="shards"):
        shard_partition(np.arange(10) % 2, num_devices=8, shards_per_device=2, seed=0)


# -- synthetic blobs ---------------------------------------------------------


def _ridge_fit_accuracy(features, labels, features_eval, labels_eval):
    targets = np.where(labels == 1, 1.0, -1.0)
    d = features.shape[1]
    gram = features.T @ features + 1e-8 * np.eye(d)
    w = np.linalg.solve(gram, features.T @ targets)
    pred = (features_eval @ w > 0).astype(int)
    return float(np.mean(pred == labels_eval))


def test_synthetic_separable_reaches_perfect_train_accuracy():
    split = generate_synthetic(dim=2, train_size=200, num_devices=4, separation=4.0, seed=1)
    feats, labels = split.stacked_train()
    assert _ridge_fit_accuracy(feats, labels, feats, labels) == 1.0


def test_synthetic_zero_separation_is_chance_level():
    split = generate_synthetic(dim=2, train_size=400, num_devices=4, separation=0.0, seed=1)
    feats, labels = split.stacked_train()
    acc = _ridge_fit_accuracy(feats, labels, split.test_features.rows(), split.test_labels)
    assert 0.35 <= acc <= 0.65


def test_synthetic_one_sample_per_device():
    split = generate_synthetic(dim=3, train_size=8, num_devices=8, separation=2.0, seed=2)
    assert [d.size for d in split.devices] == [1] * 8
    assert split.total_train == 8


def test_synthetic_shapes():
    split = generate_synthetic(dim=5, train_size=60, num_devices=6, separation=2.0, seed=3)
    assert split.feature_dim == 6  # bias column appended
    assert split.num_classes == 2
    assert len(split.validation_labels) == 200
    assert len(split.test_labels) == 400
    for dev in split.devices:
        assert dev.test_features is not None and len(dev.test_labels) == 8
    # data.synthetic_dim's refusal, named as the argument
    with pytest.raises(ConfigError, match=r"^dim must be in \[1, inf\), got 0"):
        generate_synthetic(dim=0, train_size=10, num_devices=2, separation=1.0, seed=1)


def test_synthetic_devices_get_their_row_ranges_as_dual_ids():
    # samples are dealt round-robin, so a device's pool positions are not its rows
    split = generate_synthetic(dim=3, train_size=23, num_devices=4, separation=2.0, seed=4)
    matrix, labels = split.stacked_train()
    cursor = 0
    for dev in split.devices:
        assert np.array_equal(dev.sample_indices, np.arange(cursor, cursor + dev.size))
        assert np.array_equal(matrix[dev.sample_indices], dev.features)
        assert np.array_equal(labels[dev.sample_indices], dev.labels)
        cursor += dev.size
    assert cursor == 23


# -- IDX corpus and full split -----------------------------------------------


def test_corpus_writer_is_deterministic(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for out in (a, b):
        write_synthetic_image_corpus(
            out, train_size=600, test_size=100, noise_scale=110.0,
            templates_per_class=2, background_weight=0.4, seed=77,
        )
    for name in IDX_FILES.values():
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_corpus_writer_validation(tmp_path):
    with pytest.raises(DataFormatError, match="background_weight"):
        write_synthetic_image_corpus(tmp_path / "x", background_weight=1.0)
    with pytest.raises(DataFormatError, match="templates_per_class"):
        write_synthetic_image_corpus(tmp_path / "y", templates_per_class=0)


def test_load_idx_split_layout(idx_corpus):
    corpus_dir, _ = idx_corpus
    split = load_idx_split(
        corpus_dir, num_devices=100, shards_per_device=2, seed=1,
        validation_size=5000, device_test_fraction=0.2,
    )
    assert len(split.devices) == 100
    assert split.num_classes == 10
    assert split.feature_dim == 28 * 28 + 1
    assert len(split.validation_labels) == 5000
    assert len(split.test_labels) == 10000
    # validation + per-device train/test exactly partition the 60k train pool
    per_device = sum(d.size + len(d.test_labels) for d in split.devices)
    assert per_device + 5000 == 60000
    for dev in split.devices:
        assert len(np.unique(dev.labels)) <= 2
        held_out = len(dev.test_labels) / (dev.size + len(dev.test_labels))
        assert held_out == pytest.approx(0.2, abs=0.05)


def _float32_pool_split(corpus_dir, num_devices, shards_per_device, seed,
                        validation_size, device_test_fraction, unbalanced):
    """Every field of the split as the loader built it from a float32 pixel
    pool with a bias column: per-device float32 gathers, upcast to float64
    where the split stored them (device test, validation and test splits
    were upcast when evaluated)."""
    raw = {key: read_idx(Path(corpus_dir) / stem) for key, stem in IDX_FILES.items()}

    def pool(images):
        flat = images.reshape(len(images), -1).astype(np.float32) / np.float32(255.0)
        return np.hstack([flat, np.ones((len(flat), 1), dtype=np.float32)])

    feats, labels = pool(raw["train_images"]), raw["train_labels"].astype(np.int64)
    n = len(labels)
    val_pos = np.sort(substream(seed).choice(n, size=validation_size, replace=False))
    mask = np.ones(n, dtype=bool)
    mask[val_pos] = False
    rest = np.flatnonzero(mask)
    parts = shard_partition(labels[rest], num_devices, shards_per_device, seed, unbalanced)
    carved = _carve_local_tests([rest[part] for part in parts], device_test_fraction, seed)
    f64 = lambda a: np.asarray(a, dtype=np.float64)  # noqa: E731
    sizes = np.cumsum([0] + [len(train) for train, _ in carved])
    fields = {
        "train": f64(np.vstack([feats[train] for train, _ in carved])),
        "train_labels": np.concatenate([labels[train] for train, _ in carved]),
        "validation": f64(feats[val_pos]),
        "validation_labels": labels[val_pos],
        "test": f64(pool(raw["test_images"])),
        "test_labels": raw["test_labels"].astype(np.int64),
    }
    for m, (train, test) in enumerate(carved):
        fields[f"device{m}.features"] = f64(feats[train])
        fields[f"device{m}.labels"] = labels[train]
        fields[f"device{m}.sample_indices"] = np.arange(sizes[m], sizes[m + 1])
        fields[f"device{m}.test_features"] = f64(feats[test])
        fields[f"device{m}.test_labels"] = labels[test]
    return fields


def _split_fields(split):
    """Every field of the split as arrays; held-out rows as they are read."""
    train, train_labels = split.stacked_train()
    fields = {
        "train": train,
        "train_labels": train_labels,
        "validation": split.validation_features,
        "validation_labels": split.validation_labels,
        "test": split.test_features.rows(),
        "test_labels": split.test_labels,
    }
    for dev in split.devices:
        for name in ("features", "labels", "sample_indices", "test_features", "test_labels"):
            value = getattr(dev, name)
            fields[f"device{dev.device_id}.{name}"] = (
                value.rows() if name == "test_features" else value
            )
    return fields


@pytest.mark.parametrize("decode", ["compiled", "numpy"])
@pytest.mark.parametrize("unbalanced", [False, True])
def test_load_idx_split_matches_the_float32_pool_bytes(tmp_path, monkeypatch, unbalanced, decode):
    if decode == "numpy":
        force_numpy(monkeypatch, "decode_pixels")
    # devices, validation and test all span more than one 512-row pixel block
    corpus = write_synthetic_image_corpus(tmp_path, train_size=4000, test_size=700, seed=3)
    args = dict(num_devices=4, shards_per_device=2, seed=5, validation_size=600,
                device_test_fraction=0.2, unbalanced=unbalanced)
    split = load_idx_split(corpus, **args)
    assert max(dev.size for dev in split.devices) > 512
    got, want = _split_fields(split), _float32_pool_split(corpus, **args)
    assert got.keys() == want.keys()
    for name, expected in want.items():
        assert got[name].dtype == expected.dtype, name
        assert got[name].shape == expected.shape, name
        assert got[name].tobytes() == expected.tobytes(), name
    _assert_row_views(split, {dev.device_id: dev.features for dev in split.devices})
    _assert_held_as_pixels(split)


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler: numpy decodes")
def test_decode_kernel_gives_the_numpy_bytes():
    kernel = data._pixel_kernel()
    assert kernel is not None and native.FAST_PATHS["decode_pixels"]["status"] == "c"
    rng = np.random.default_rng(11)
    for width in (1, 7, 784):
        rows = -(-256 // width) + 3  # every byte value, 0 to 255
        images = (np.arange(rows * width) % 256).astype(np.uint8).reshape(rows, width)
        ids = np.concatenate([rng.permutation(rows), rng.integers(0, rows, size=2 * rows)])
        expected = np.empty((len(ids), width + 1))
        _write_pixels(images, ids, expected)
        got = np.full_like(expected, np.nan)
        kernel(len(ids), width, images, ids, got)
        assert got.tobytes() == expected.tobytes(), width
        assert data._decode_pixels(images, ids).tobytes() == expected.tobytes(), width


def test_decode_refuses_ids_outside_the_images(monkeypatch):
    calls = count_fan_outs(monkeypatch)
    images = np.zeros((5, 3), dtype=np.uint8)
    for ids in ([0, 5], [-1, 2], [[0, 1]]):
        with pytest.raises(ValueError, match=r"rows in \[0, 5\)"):
            data._decode_pixels(images, np.array(ids))
    assert calls == []  # refused before the kernel ran
    assert data._decode_pixels(images, np.array([], dtype=np.int64)).shape == (0, 4)


def test_load_idx_split_bytes_do_not_depend_on_the_decode_lanes(tmp_path, monkeypatch):
    corpus = write_synthetic_image_corpus(tmp_path, train_size=1500, test_size=300, seed=4)
    args = dict(num_devices=3, shards_per_device=2, seed=2, validation_size=200)
    lanes = count_fan_outs(monkeypatch)
    split = load_idx_split(corpus, **args)
    decoded_at_load = len(lanes)
    fanned_out = _split_fields(split)
    if native.FAST_PATHS["decode_pixels"]["status"] == "c":
        # train and validation; the held-out rows stay pixels, read on one lane
        assert lanes[:decoded_at_load] == [native.lanes()] * 2
        assert lanes[decoded_at_load:] == [1] * (len(lanes) - decoded_at_load) != []
    monkeypatch.setattr(native, "lanes", lambda: 1)
    one_lane = _split_fields(load_idx_split(corpus, **args))
    assert fanned_out.keys() == one_lane.keys()
    for name, rows in one_lane.items():
        assert fanned_out[name].tobytes() == rows.tobytes(), name


def test_load_idx_split_peak_memory_is_the_matrices_it_holds(idx_corpus):
    corpus_dir, _ = idx_corpus
    tracemalloc.start()
    try:
        split = load_idx_split(
            corpus_dir, num_devices=100, shards_per_device=2, seed=1, unbalanced=True
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    held = (
        split.stacked_train()[0].nbytes
        + split.devices[0].test_features.matrix.nbytes
        + split.validation_features.nbytes
        + split.test_features.matrix.nbytes
    )
    assert peak <= 1.25 * held, f"peak {peak / held:.2f}x the split's matrices"


@pytest.fixture(scope="module")
def small_corpus(tmp_path_factory):
    """A 300-image IDX corpus of 3 classes of 4 x 4 images."""
    return write_synthetic_image_corpus(
        tmp_path_factory.mktemp("small_corpus"), num_classes=3, side=4,
        train_size=300, test_size=50, seed=6,
    )


@pytest.mark.parametrize("fraction", [1.0, 1.5, -0.5, float("nan")])
def test_build_split_rejects_device_test_fraction_outside_unit_interval(small_corpus, fraction):
    with pytest.raises(ConfigError, match=r"^device_test_fraction must be in \[0, 1\)"):
        load_idx_split(small_corpus, num_devices=2, shards_per_device=2, seed=1,
                       validation_size=10, device_test_fraction=fraction)


def test_load_idx_split_refuses_validation_size_before_decoding(small_corpus, monkeypatch):
    decodes = []
    monkeypatch.setattr(data, "_decode_pixels", lambda *args: decodes.append(args))
    with pytest.raises(DataFormatError, match="validation_size 300 out of range for 300"):
        load_idx_split(small_corpus, num_devices=2, shards_per_device=2, seed=1,
                       validation_size=300)
    assert decodes == []


def test_load_idx_split_refuses_test_images_of_another_shape(small_corpus, tmp_path):
    for stem in IDX_FILES.values():
        (tmp_path / stem).write_bytes((small_corpus / stem).read_bytes())
    (tmp_path / IDX_FILES["test_images"]).write_bytes(write_idx(np.zeros((50, 5, 4), np.uint8)))
    with pytest.raises(DataFormatError, match="train and test image shapes disagree"):
        load_idx_split(tmp_path, num_devices=2, shards_per_device=2, seed=1, validation_size=10)


def test_load_idx_split_missing_file(tmp_path):
    with pytest.raises(DataFormatError, match="missing IDX file"):
        load_idx_split(tmp_path, num_devices=2, shards_per_device=2, seed=1)


def test_build_split_dual_ids_are_contiguous(small_corpus):
    split = load_idx_split(
        small_corpus, num_devices=5, shards_per_device=2, seed=8,
        validation_size=30, device_test_fraction=0.2,
    )
    cursor = 0
    for dev in split.devices:
        assert np.array_equal(dev.sample_indices, np.arange(cursor, cursor + dev.size))
        cursor += dev.size
    stacked_feats, stacked_labels = split.stacked_train()
    assert stacked_feats.shape[0] == cursor == split.total_train
    assert len(stacked_labels) == cursor


def _assert_row_views(split, expected_rows):
    """Every device's features are float64, C-contiguous row views of the one
    training matrix and hold expected_rows[device_id] exactly; every device
    test split is a range of one held-out matrix, in device order, and the
    validation matrix is C-contiguous float64."""
    matrix, _ = split.stacked_train()
    assert split.stacked_train()[0] is matrix
    assert matrix.dtype == np.float64 and matrix.flags.c_contiguous
    for dev in split.devices:
        assert dev.features.dtype == np.float64
        assert dev.features.flags.c_contiguous
        assert np.shares_memory(dev.features, matrix)
        assert np.array_equal(dev.features, expected_rows[dev.device_id])
        assert np.array_equal(matrix[dev.sample_indices], dev.features)
    held = [dev.test_features for dev in split.devices if dev.test_features is not None]
    tests = held[0].matrix
    assert tests.flags.c_contiguous
    assert [part.start for part in held] == [0, *[part.stop for part in held[:-1]]]
    assert held[-1].stop == len(tests)
    assert all(part.matrix is tests for part in held)
    features = split.validation_features
    assert features.dtype == np.float64 and features.flags.c_contiguous


def _assert_held_as_pixels(split):
    """An IDX split's device test and global test rows are held as one uint8
    pixel matrix each, in at most 1/8 of the bytes of their float64 rows."""
    held = [split.devices[0].test_features.matrix, split.test_features.matrix]
    assert all(matrix.dtype == np.uint8 for matrix in held)
    float64_bytes = sum(len(matrix) * split.feature_dim * 8 for matrix in held)
    assert sum(matrix.nbytes for matrix in held) <= float64_bytes / 8


def test_hand_built_split_devices_are_float64_row_views():
    rng = np.random.default_rng(4)
    shards = [rng.normal(size=(n, 3)).astype(np.float32) for n in (4, 1, 6)]
    held_out = [rng.normal(size=(n, 3)).astype(np.float32) for n in (2, 0)] + [None]
    starts = np.cumsum([0] + [len(shard) for shard in shards])
    devices = [
        DeviceDataset(
            m, shard, np.zeros(len(shard), dtype=np.int64), np.arange(starts[m], starts[m + 1]),
            test, None if test is None else np.zeros(len(test), dtype=np.int64),
        )
        for m, (shard, test) in enumerate(zip(shards, held_out))
    ]
    split = SplitDataset(
        devices=devices,
        validation_features=shards[0],
        validation_labels=np.zeros(4, dtype=np.int64),
        test_features=shards[2][::2],
        test_labels=np.zeros(3, dtype=np.int64),
        num_classes=1,
    )
    _assert_row_views(split, dict(enumerate(shards)))
    for dev, test in zip(split.devices, held_out):
        if test is None:
            assert dev.test_features is None
        else:
            assert not dev.test_features.pixels
            rows = dev.test_features.rows()
            assert rows.flags.c_contiguous
            assert len(rows) == 0 or np.shares_memory(rows, dev.test_features.matrix)
            assert rows.tobytes() == test.astype(np.float64).tobytes()
    assert split.validation_features.tobytes() == shards[0].astype(np.float64).tobytes()
    tests = split.test_features.rows()
    assert tests.dtype == np.float64 and tests.flags.c_contiguous
    assert tests.tobytes() == shards[2][::2].astype(np.float64).tobytes()


def test_held_out_blocks_decode_consecutive_parts_together(monkeypatch):
    rng = np.random.default_rng(9)
    pixels = rng.integers(0, 256, size=(700, 5), dtype=np.uint8)
    other = rng.integers(0, 256, size=(40, 5), dtype=np.uint8)
    floats = rng.normal(size=(30, 6))
    held, held_other = HeldOutRows(pixels, 0, 700), HeldOutRows(other, 0, 40)
    parts = [
        held[0:100], held[100:250], held[250:256], held[256:600], held[600:650],
        held_other[0:40], HeldOutRows.of(floats)[3:9], held[650:700], held[0:0],
    ]
    decodes = []
    decode = data._decode_pixels

    def spy(images, ids, out=None):
        decodes.append((images is pixels, int(ids[0]) if len(ids) else None, len(ids)))
        return decode(images, ids, out)

    monkeypatch.setattr(data, "_decode_pixels", spy)
    blocks = [block.copy() for block in held_out_blocks(parts)]
    # at most DECODE_ROWS rows a call, a longer part alone, and never across matrices
    assert decodes == [
        (True, 0, 256), (True, 256, 344), (True, 600, 50), (False, 0, 40), (True, 650, 50),
        (True, None, 0),
    ]
    expected = _decode_pixels_whole(pixels)
    for part, block in zip(parts, blocks):
        assert block.shape == part.shape
        if part.matrix is pixels:
            assert block.tobytes() == expected[part.start : part.stop].tobytes()
    assert blocks[5].tobytes() == _decode_pixels_whole(other).tobytes()
    assert blocks[6].tobytes() == floats[3:9].tobytes()
    assert np.shares_memory(next(held_out_blocks([parts[6]])), floats)  # float64 rows: a view


def _decode_pixels_whole(pixels):
    rows = np.empty((len(pixels), pixels.shape[1] + 1))
    _write_pixels(pixels, np.arange(len(pixels)), rows)
    return rows


def test_held_out_rows_refuse_what_cannot_be_read():
    pixels = np.zeros((6, 4), dtype=np.uint8)
    for matrix, start, stop in (
        (pixels, 0, 7), (pixels, 4, 3), (pixels, -1, 2), (pixels[:, ::2], 0, 6),
        (pixels.astype(np.float32), 0, 6), (np.zeros(6), 0, 6),
    ):
        with pytest.raises(ValueError, match="held-out rows need"):
            HeldOutRows(matrix, start, stop)
    held = HeldOutRows(pixels, 1, 5)
    assert held.shape == (4, 5) and held.pixels
    assert (held[1:3].start, held[1:3].stop) == (2, 4)
    assert (held[3:10].start, held[3:10].stop) == (4, 5)
    assert len(held[3:1]) == 0
    with pytest.raises(ValueError, match="contiguous ranges"):
        held[::2]
    rows = HeldOutRows.of(np.ones((3, 2), dtype=np.float32))
    assert rows.matrix.dtype == np.float64 and not rows.pixels and rows.shape == (3, 2)
    assert HeldOutRows.of(rows) is rows


def test_split_refuses_dual_ids_other_than_its_rows():
    # each device keeps a block of its own size, counted from the end of the
    # pool: updates would land on another device's dual coordinates
    base = tiny_split(num_devices=4)
    total = base.total_train

    def rebuilt(ids_of):
        devices = [
            DeviceDataset(dev.device_id, dev.features, dev.labels, ids_of(m, dev),
                          dev.test_features, dev.test_labels)
            for m, dev in enumerate(base.devices)
        ]
        return SplitDataset(devices, base.validation_features, base.validation_labels,
                            base.test_features, base.test_labels, base.num_classes)

    with pytest.raises(DataFormatError, match="device 0 .* rows \\[0, 12\\)"):
        rebuilt(lambda m, dev: np.arange(total - 12 * (m + 1), total - 12 * m))
    with pytest.raises(DataFormatError, match="device 1"):
        rebuilt(lambda m, dev: dev.sample_indices[: 11 if m == 1 else 12])
    split = rebuilt(lambda m, dev: None)
    for m, dev in enumerate(split.devices):
        assert np.array_equal(dev.sample_indices, np.arange(12 * m, 12 * (m + 1)))
