"""Dataset loading, synthesis, and non-i.i.d. partitioning across devices.

The pipeline produces a SplitDataset with four disjoint parts: per-device
training shards, a server-held validation split (consumed only by the
valuation module), a global test split, and per-device held-out test splits
for personalization and fairness metrics. Features are scaled to [0, 1] and a
constant-1 bias column is appended, so downstream models stay strictly linear.

All randomness flows through explicit seeds; equal inputs give bitwise-equal
partitions.
"""
from __future__ import annotations

import ctypes
import gzip
import mmap
import os
import struct
from collections.abc import Iterator
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import native
from .rng import LOCAL_TEST, substream
from .settings import Setting, check_values

# the [data] config keys: where the split comes from and how it is cut
_IDX, _SYNTHETIC = ("data.source", "idx"), ("data.source", "synthetic")
SOURCE = Setting("data.source", "str", "idx", ("idx", "synthetic"))
DATA_DIR = Setting("data.data_dir", "opt_str", None)  # falls back to FEDSEL_DATA_DIR
NUM_DEVICES = Setting("data.num_devices", "int", 100, "[1, inf)")
SHARDS_PER_DEVICE = Setting("data.shards_per_device", "int", 2, "[1, inf)", _IDX)
UNBALANCED = Setting("data.unbalanced", "bool", False, None, _IDX)
VALIDATION_SIZE = Setting("data.validation_size", "int", 5000, "[1, inf)", _IDX)
DEVICE_TEST_FRACTION = Setting("data.device_test_fraction", "float", 0.2, "[0, 1)", _IDX)
SYNTHETIC_DIM = Setting("data.synthetic_dim", "int", 20, "[1, inf)", _SYNTHETIC)
# every synthetic device holds at least one training sample
SYNTHETIC_TRAIN_SIZE = Setting(
    "data.synthetic_train_size", "int", 2000, "[1, inf)", _SYNTHETIC, (">=", "data.num_devices")
)
SYNTHETIC_SEPARATION = Setting("data.synthetic_separation", "float", 3.0, "[0, inf)", _SYNTHETIC)

# magic byte 3 encodes the element type; only unsigned byte (0x08) is supported
_IDX_UBYTE = 0x08


class DataFormatError(ValueError):
    """Raised for malformed IDX input or impossible partition requests."""


def parse_idx(raw: bytes | mmap.mmap) -> np.ndarray:
    """Decode one IDX file, its bytes or a read-only map of it, into a uint8
    array shaped per its header: a view of raw."""
    if len(raw) < 4:
        raise DataFormatError(f"IDX header truncated: {len(raw)} bytes")
    magic = struct.unpack(">I", raw[:4])[0]
    zeros, dtype_code, ndim = raw[0] << 8 | raw[1], raw[2], raw[3]
    if zeros != 0 or dtype_code != _IDX_UBYTE or ndim == 0:
        raise DataFormatError(f"bad IDX magic 0x{magic:08x}")
    header_len = 4 + 4 * ndim
    if len(raw) < header_len:
        raise DataFormatError(f"IDX header truncated: {len(raw)} bytes for {ndim} dims")
    dims = struct.unpack(f">{ndim}I", raw[4:header_len])
    expected = int(np.prod(dims, dtype=np.int64))
    payload = len(raw) - header_len
    if payload != expected:
        raise DataFormatError(
            f"IDX payload length mismatch: header 0x{magic:08x} with dims {list(dims)} "
            f"needs {expected} bytes, found {payload}"
        )
    return np.frombuffer(raw, dtype=np.uint8, offset=header_len).reshape(dims)


def write_idx(array: np.ndarray) -> bytes:
    """Serialize a uint8 array to IDX bytes; inverse of parse_idx."""
    array = np.ascontiguousarray(array, dtype=np.uint8)
    header = struct.pack(f">I{array.ndim}I", (_IDX_UBYTE << 8) | array.ndim, *array.shape)
    return header + array.tobytes()


def read_idx(path: str | Path) -> np.ndarray:
    """Read an IDX file from disk: a .gz file whole, a plain one mapped
    read-only, so the array views the map and no copy of the file is made."""
    path = Path(path)
    if path.suffix == ".gz":
        with gzip.open(path, "rb") as fh:
            return parse_idx(fh.read())
    with open(path, "rb") as fh:
        if os.fstat(fh.fileno()).st_size == 0:  # an empty file cannot be mapped
            return parse_idx(b"")
        return parse_idx(mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ))


@dataclass(frozen=True, eq=False)
class FeatureRows:
    """Rows [start, stop) of one feature matrix of a split: a device's
    training rows, its held-out rows, all training rows or the global test
    rows.

    `matrix` is C-contiguous and holds either the float64 feature rows
    themselves, or, as uint8, the (n, width) pixels they decode from: each
    pixel becomes float64(float32(u8) / float32(255)), and a last column is
    the bias 1.0, as _write_pixels writes them. Either way the rows are
    (stop - start, d) float64 to a reader (`shape`); feature_blocks reads
    them, and slicing gives a range of them over the same matrix.
    """

    matrix: np.ndarray
    start: int
    stop: int

    def __post_init__(self) -> None:
        m = self.matrix
        if not (
            m.ndim == 2
            and m.flags.c_contiguous
            and m.dtype in (np.float64, np.uint8)
            and 0 <= self.start <= self.stop <= len(m)
        ):
            raise ValueError(
                "feature rows need a C-contiguous 2-D float64 or uint8 matrix "
                f"and a row range inside it, got {m.dtype} {m.shape} [{self.start}, {self.stop})"
            )

    @classmethod
    def of(cls, rows) -> "FeatureRows":
        """rows as they are if a FeatureRows, else all the rows of a
        C-contiguous float64 copy of them (no copy where they already are)."""
        if isinstance(rows, cls):
            return rows
        matrix = np.ascontiguousarray(rows, dtype=np.float64)
        return cls(matrix, 0, len(matrix))

    @property
    def pixels(self) -> bool:
        return self.matrix.dtype == np.uint8

    @property
    def shape(self) -> tuple[int, int]:
        return len(self), self.matrix.shape[1] + self.pixels

    def __len__(self) -> int:
        return self.stop - self.start

    def __getitem__(self, span: slice) -> "FeatureRows":
        start, stop, step = span.indices(len(self))
        if step != 1:
            raise ValueError("feature rows are sliced into contiguous ranges only")
        return FeatureRows(self.matrix, self.start + start, self.start + max(start, stop))

    def rows(self) -> np.ndarray:
        """The float64 rows: a view of a float64 matrix, or a new decoded matrix."""
        return next(feature_blocks([self]))


def feature_blocks(parts: list[FeatureRows]) -> Iterator[np.ndarray]:
    """Each part's (len(part), d) float64 rows, in order.

    Rows held as float64 are views of their matrix. Each pixel part is
    decoded alone, on this thread (_decode_pixels), into one scratch sized
    by the longest pixel part and reused: a decoded block holds its rows
    only until the next block is asked for. The parts come from one split,
    so the scratch takes the first pixel part's width; a part of another
    width is refused by _decode_pixels before any row is written.
    """
    most = max((len(part) for part in parts if part.pixels), default=0)
    scratch = None
    for part in parts:
        if not part.pixels:
            yield part.matrix[part.start : part.stop]
            continue
        if scratch is None:
            scratch = np.empty((most, part.shape[1]))
        rows = scratch[: len(part)]
        _decode_pixels(part.matrix, np.arange(part.start, part.stop), rows)
        yield rows


@dataclass
class DeviceDataset:
    """One device's local training shard plus its held-out test split.

    features and test_features are FeatureRows: construction turns an
    array into all the rows of a C-contiguous float64 copy of it, made only
    where it is not one already (FeatureRows.of), and keeps FeatureRows as
    they are. Inside a SplitDataset they are the device's row ranges of
    the split's one training matrix and one device-test matrix, and
    sample_indices are its training range's dual-coordinate ids, assigned
    by the split. `size` counts the training rows without reading them.

    The held-out split is never None: a device built without test_features
    holds 0 float64 rows of its training width, and one built without
    test_labels an empty int64 array.
    """

    device_id: int
    features: FeatureRows
    labels: np.ndarray
    sample_indices: np.ndarray | None = None
    test_features: FeatureRows | None = None
    test_labels: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.features = FeatureRows.of(self.features)
        if self.test_features is None:
            self.test_features = np.empty((0, self.features.shape[1]))
        self.test_features = FeatureRows.of(self.test_features)
        if self.test_labels is None:
            self.test_labels = np.empty(0, dtype=np.int64)

    @property
    def size(self) -> int:
        return len(self.features)

    def label_histogram(self, num_classes: int) -> np.ndarray:
        return np.bincount(self.labels, minlength=num_classes)


@dataclass
class SplitDataset:
    """Per-device shards, server validation split and global test split.

    The split owns the dual ids: each device's sample_indices are its row
    range of the training matrix, which holds the devices' rows in device
    order. A device given other ids is refused with DataFormatError, since
    its local updates would land on other devices' dual coordinates. So are
    device ids other than 0..M-1, each used once (in any order), which the
    cost model keys its profiles by; a device with no training rows, which
    no round can run; a label count other than its rows' (a device's
    training or test split, the validation or global test split), so a
    device given only one of test_features and test_labels; and a label
    outside [0, num_classes). These checks read no row.

    Every feature matrix is held once. The training rows (train_features,
    labels train_labels) and the device test splits are FeatureRows over
    one matrix each, in device order, every device's features and
    test_features a range of them; the global test split is FeatureRows
    over another. load_idx_split holds these three as their uint8 pixels,
    decoded by each reader into a scratch as it reads them
    (feature_blocks); any other split holds them as float64, read as
    views. The validation split is a C-contiguous float64 matrix.
    Construction copies the devices' rows into this layout, dropping each
    device's own matrix as its rows are written, unless they already are
    consecutive ranges of one matrix, as load_idx_split gives them.
    """

    devices: list[DeviceDataset]
    validation_features: np.ndarray
    validation_labels: np.ndarray
    test_features: FeatureRows
    test_labels: np.ndarray
    num_classes: int
    # every device's training rows and labels, in dual-coordinate order
    train_features: FeatureRows = field(init=False, repr=False)
    train_labels: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        device_ids = [dev.device_id for dev in self.devices]
        if sorted(device_ids) != list(range(len(device_ids))):
            raise DataFormatError(
                f"device ids must be 0..{len(device_ids) - 1}, each used once, got {device_ids}"
            )
        self._check_labels()
        start = 0
        for dev in self.devices:
            if not dev.size:
                raise DataFormatError(f"device {dev.device_id} has no training rows")
            ids = np.arange(start, start + dev.size)
            if dev.sample_indices is not None and not np.array_equal(dev.sample_indices, ids):
                raise DataFormatError(
                    f"device {dev.device_id} is given dual ids other than its rows "
                    f"[{start}, {start + dev.size}) of the training matrix"
                )
            dev.sample_indices = ids
            start += dev.size
        self.train_features = _hold_rows(self.devices, "features")
        self.train_labels = np.concatenate([dev.labels for dev in self.devices])
        _hold_rows(self.devices, "test_features")
        self.validation_features = np.ascontiguousarray(
            self.validation_features, dtype=np.float64
        )
        self.test_features = FeatureRows.of(self.test_features)

    def _check_labels(self) -> None:
        """Refuse labels that cannot belong to their rows: a count other
        than the rows' (len, so no row is read), or a class outside
        [0, num_classes)."""
        splits = [("validation", self.validation_features, self.validation_labels),
                  ("global test", self.test_features, self.test_labels)]
        for dev in self.devices:
            splits.append((f"device {dev.device_id} training", dev.features, dev.labels))
            splits.append((f"device {dev.device_id} test", dev.test_features, dev.test_labels))
        for name, rows, labels in splits:
            labels = np.asarray(labels)
            if len(labels) != len(rows):
                raise DataFormatError(
                    f"{name} split: label count {len(labels)} differs from its row count {len(rows)}"
                )
            if np.any((labels < 0) | (labels >= self.num_classes)):
                raise DataFormatError(f"{name} split: a label is outside [0, {self.num_classes})")

    @property
    def total_train(self) -> int:
        return sum(dev.size for dev in self.devices)

    @property
    def feature_dim(self) -> int:
        return self.devices[0].features.shape[1]

    def stacked_train(self) -> tuple[np.ndarray, np.ndarray]:
        """The training rows as a new float64 matrix and their labels as a
        new array, in dual-coordinate order: each call decodes or copies
        anew, since the split keeps no float64 training matrix (on the grid,
        44,001 x 785 float64 take 263.5 MiB)."""
        rows = self.train_features.rows()
        return (rows if self.train_features.pixels else rows.copy()), self.train_labels.copy()


def _hold_rows(devices: list[DeviceDataset], attr: str) -> FeatureRows:
    """Rebind each device's `attr` rows to its rows of one feature matrix,
    in device order; returns all the rows of that matrix.

    Rows over consecutive ranges covering one matrix, as load_idx_split
    gives them, are kept as they are; otherwise they are copied into one
    new float64 matrix, each device's own dropped as its rows are written.
    """
    parts = [getattr(dev, attr) for dev in devices]
    if parts:
        matrix, ends = parts[0].matrix, [0] + [part.stop for part in parts]
        if ends[-1] == len(matrix) and all(
            part.matrix is matrix and part.start == end for part, end in zip(parts, ends)
        ):
            return FeatureRows(matrix, 0, len(matrix))
    matrix = np.empty((sum(len(part) for part in parts), parts[0].shape[1] if parts else 0))
    del parts
    cursor = 0
    for dev in devices:
        part = getattr(dev, attr)
        rows = matrix[cursor : cursor + len(part)]
        rows[...] = part.rows()
        setattr(dev, attr, FeatureRows(matrix, cursor, cursor + len(rows)))
        cursor += len(rows)
    return FeatureRows(matrix, 0, len(matrix))


def _label_aligned_shards(labels: np.ndarray, num_shards: int) -> list[np.ndarray]:
    """Cut label-sorted sample ids into single-label near-equal shards.

    The shard budget is apportioned across labels by largest remainder, so a
    device holding s shards sees at most s distinct labels.
    """
    order = np.argsort(labels, kind="stable")
    uniq, counts = np.unique(labels, return_counts=True)
    n = len(labels)
    if num_shards < len(uniq):
        # fewer shards than labels: single-label shards are impossible, fall
        # back to plain contiguous cuts of the sorted order
        return [chunk for chunk in np.array_split(order, num_shards)]

    alloc = np.ones(len(uniq), dtype=int)
    extra_total = num_shards - len(uniq)
    quota = counts / n * extra_total
    extra = np.floor(quota).astype(int)
    alloc += extra
    remainder = quota - extra
    short = extra_total - int(extra.sum())
    for idx in np.lexsort((np.arange(len(uniq)), -remainder))[:short]:
        alloc[idx] += 1
    # a shard holds at least one sample, so cap at the label's sample count
    over = alloc - counts
    if np.any(over > 0):
        alloc = np.minimum(alloc, counts)
        deficit = num_shards - int(alloc.sum())
        while deficit > 0:
            room = counts - alloc
            candidates = np.where(room > 0)[0]
            pick = candidates[np.argmax(counts[candidates] / alloc[candidates])]
            alloc[pick] += 1
            deficit -= 1

    shards: list[np.ndarray] = []
    start = 0
    for label_pos, count in enumerate(counts):
        block = order[start : start + count]
        shards.extend(np.array_split(block, alloc[label_pos]))
        start += count
    return shards


def shard_partition(
    labels: np.ndarray,
    num_devices: int,
    shards_per_device: int,
    seed: int,
    unbalanced: bool = UNBALANCED.default,
) -> list[np.ndarray]:
    """Assign sample ids to devices via the label-sorted shard scheme.

    Returns one id array per device; the union over devices is exactly
    range(len(labels)). In unbalanced mode each device draws its shard count
    from {1, ..., 2*shards_per_device - 1} (repaired to the exact shard
    supply), otherwise every device gets shards_per_device shards.
    """
    labels = np.asarray(labels)
    n = len(labels)
    if n == 0:
        raise DataFormatError("cannot partition an empty sample list")
    check_values({
        "num_devices": (NUM_DEVICES, num_devices),
        "shards_per_device": (SHARDS_PER_DEVICE, shards_per_device),
        "unbalanced": (UNBALANCED, unbalanced),
    })
    num_shards = num_devices * shards_per_device
    if num_shards > n:
        raise DataFormatError(
            f"{num_devices} devices x {shards_per_device} shards needs "
            f"{num_shards} shards but only {n} samples are available"
        )
    shards = _label_aligned_shards(labels, num_shards)
    rng = substream(seed)
    shard_order = rng.permutation(num_shards)

    if unbalanced:
        hi = 2 * shards_per_device  # exclusive, so draws land in {1, ..., 2s-1}
        quotas = rng.integers(1, hi, size=num_devices)
        diff = num_shards - int(quotas.sum())
        while diff != 0:
            i = int(rng.integers(num_devices))
            if diff > 0 and quotas[i] < hi - 1:
                quotas[i] += 1
                diff -= 1
            elif diff < 0 and quotas[i] > 1:
                quotas[i] -= 1
                diff += 1
    else:
        quotas = np.full(num_devices, shards_per_device)

    assignments: list[np.ndarray] = []
    cursor = 0
    for quota in quotas:
        picked = shard_order[cursor : cursor + quota]
        cursor += quota
        assignments.append(np.concatenate([shards[s] for s in picked]))
    return assignments


def _carve_local_tests(
    parts: list[np.ndarray], fraction: float, seed: int
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Split each device's sample ids into (train, local test) by a seeded fraction.

    At least one training sample always remains; a single-sample device ends
    up with an empty local test split.
    """
    rng = substream(seed, LOCAL_TEST)
    carved = []
    for ids in parts:
        n = len(ids)
        take = max(min(n - 1, int(round(fraction * n))), 0)
        test_pos = np.sort(rng.choice(n, size=take, replace=False))
        train_mask = np.ones(n, dtype=bool)
        train_mask[test_pos] = False
        carved.append((ids[train_mask], ids[test_pos]))
    return carved


# rows per float32 temporary when pixels are written into a float64 matrix
_PIXEL_BLOCK_ROWS = 512


def _write_pixels(images: np.ndarray, ids: np.ndarray, out: np.ndarray) -> None:
    """Write flattened uint8 images[ids] into the float64 rows out.

    A pixel becomes float32(u8) / float32(255), then float64, and the last
    column is the bias 1.0; rows go in blocks of _PIXEL_BLOCK_ROWS. The numpy
    reference of decode_pixels, and its fallback.
    """
    for start in range(0, len(ids), _PIXEL_BLOCK_ROWS):
        block = images[ids[start : start + _PIXEL_BLOCK_ROWS]].astype(np.float32)
        block /= np.float32(255.0)
        rows = out[start : start + len(block)]
        rows[:, :-1] = block
        rows[:, -1] = 1.0


def _decode_pixels(
    images: np.ndarray, ids: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """The flattened uint8 images[ids] and a bias column as float64 rows, as
    _write_pixels writes them, into `out` or a new matrix; returned.

    An id outside images, or an `out` that is not C-contiguous float64 of
    shape (len(ids), width + 1), is refused with ValueError before any row
    is written. The rows are written by one call on this thread: the
    compiled decode_pixels, or _write_pixels without it. Each row is
    decoded on its own, so the bytes depend neither on which of the two
    runs nor on which rows share a call.
    """
    ids = np.ascontiguousarray(ids, dtype=np.int64)
    n, width = images.shape
    if not (ids.ndim == 1 and (ids.size == 0 or 0 <= ids.min() <= ids.max() < n)):
        raise ValueError(f"pixel decode ids must be a vector of rows in [0, {n})")
    if out is None:
        out = np.empty((len(ids), width + 1))
    elif out.dtype != np.float64 or not out.flags.c_contiguous or out.shape != (len(ids), width + 1):
        raise ValueError(
            f"pixel decode out must be C-contiguous float64 of shape ({len(ids)}, {width + 1}), "
            f"got {out.dtype} {out.shape}"
        )
    kernel = _pixel_kernel()
    if kernel is None:
        _write_pixels(images, ids, out)
    else:
        kernel(len(ids), width, images, ids, out)
    return out


def _pixel_probe_matches(kernel) -> bool:
    """Whether the compiled decode gives _write_pixels' bytes on every byte
    value, at row widths 1, 7 and 784, with ids unsorted and repeated (516
    of them at width 1, so the reference writes more than one block)."""
    rng = np.random.default_rng(37)
    for width in (1, 7, 784):
        count = -(-256 // width) + 2
        images = (np.arange(count * width) % 256).astype(np.uint8).reshape(count, width)
        ids = np.concatenate([rng.permutation(count), rng.permutation(count)])
        expected = np.empty((len(ids), width + 1))
        _write_pixels(images, ids, expected)
        got = np.full_like(expected, np.nan)
        kernel(len(ids), width, images, ids, got)
        if got.tobytes() != expected.tobytes():
            return False
    return True


def _pixel_kernel():
    argtypes = [ctypes.c_int64, ctypes.c_int64, native.U8, native.I64, native.F64]
    return native.kernel("decode_pixels", argtypes, None, _pixel_probe_matches)


IDX_FILES = {
    "train_images": "train-images-idx3-ubyte",
    "train_labels": "train-labels-idx1-ubyte",
    "test_images": "t10k-images-idx3-ubyte",
    "test_labels": "t10k-labels-idx1-ubyte",
}


def _find_idx(data_dir: Path, stem: str) -> Path:
    for candidate in (data_dir / stem, data_dir / f"{stem}.gz"):
        if candidate.exists():
            return candidate
    raise DataFormatError(f"missing IDX file {stem}[.gz] under {data_dir}")


def load_idx_split(
    data_dir: str | Path,
    num_devices: int,
    shards_per_device: int,
    seed: int,
    validation_size: int = VALIDATION_SIZE.default,
    device_test_fraction: float = DEVICE_TEST_FRACTION.default,
    unbalanced: bool = UNBALANCED.default,
) -> SplitDataset:
    """Load an MNIST-layout IDX directory and build the full split.

    Expects the four canonical filenames (optionally gzipped). Sample ids are
    routed first: the server validation split is drawn from the training
    pool, the rest is shard-partitioned across devices, and each device's
    local test split is carved from its shard. The devices' training rows,
    their test rows and the global test rows are held as their gathered
    uint8 pixels (FeatureRows), which each reader decodes as it reads them:
    each pixel scaled to [0, 1], the image flattened and a bias column
    appended. Only the validation split is decoded here, into one float64
    matrix in one pass (_decode_pixels). An argument its [data] setting
    refuses is refused before any file is read, and a partition that cannot
    be made before any pixel is decoded.
    """
    check_values({
        "num_devices": (NUM_DEVICES, num_devices),
        "shards_per_device": (SHARDS_PER_DEVICE, shards_per_device),
        "validation_size": (VALIDATION_SIZE, validation_size),
        "device_test_fraction": (DEVICE_TEST_FRACTION, device_test_fraction),
        "unbalanced": (UNBALANCED, unbalanced),
    })
    data_dir = Path(data_dir)
    arrays = {key: read_idx(_find_idx(data_dir, stem)) for key, stem in IDX_FILES.items()}
    for key in ("train_images", "test_images"):
        if arrays[key].ndim != 3:
            raise DataFormatError(f"{IDX_FILES[key]} is not a rank-3 image tensor")
    for key in ("train_labels", "test_labels"):
        if arrays[key].ndim != 1:
            raise DataFormatError(f"{IDX_FILES[key]} is not a rank-1 label vector")
    if len(arrays["train_images"]) != len(arrays["train_labels"]):
        raise DataFormatError("train image/label counts disagree")
    if len(arrays["test_images"]) != len(arrays["test_labels"]):
        raise DataFormatError("test image/label counts disagree")
    if arrays["train_images"].shape[1:] != arrays["test_images"].shape[1:]:
        raise DataFormatError("train and test image shapes disagree")

    train_images = arrays["train_images"].reshape(len(arrays["train_images"]), -1)
    test_images = arrays["test_images"].reshape(len(arrays["test_images"]), -1)
    train_labels = arrays["train_labels"].astype(np.int64)
    test_labels = arrays["test_labels"].astype(np.int64)
    n = len(train_labels)
    if validation_size >= n:
        raise DataFormatError(
            f"validation_size {validation_size} out of range for {n} training samples"
        )
    rng = substream(seed)
    val_pos = np.sort(rng.choice(n, size=validation_size, replace=False))
    train_mask = np.ones(n, dtype=bool)
    train_mask[val_pos] = False
    pool = np.flatnonzero(train_mask)
    parts = shard_partition(
        train_labels[pool], num_devices, shards_per_device, seed, unbalanced
    )
    carved = _carve_local_tests([pool[part] for part in parts], device_test_fraction, seed)
    # the validation split is the one decoded matrix; each device's training
    # and held-out rows are ranges of the gathered pixels
    validation = _decode_pixels(train_images, val_pos)
    train = train_images[np.concatenate([ids for ids, _ in carved])]
    device_test = train_images[np.concatenate([ids for _, ids in carved])]
    devices = []
    train_cursor = test_cursor = 0
    for m, (train_ids, test_ids) in enumerate(carved):
        devices.append(
            DeviceDataset(
                device_id=m,
                features=FeatureRows(train, train_cursor, train_cursor + len(train_ids)),
                labels=train_labels[train_ids],
                test_features=FeatureRows(
                    device_test, test_cursor, test_cursor + len(test_ids)
                ),
                test_labels=train_labels[test_ids],
            )
        )
        train_cursor += len(train_ids)
        test_cursor += len(test_ids)
    return SplitDataset(
        devices=devices,
        validation_features=validation,
        validation_labels=train_labels[val_pos],
        # a copy: the split outlives the mapped file
        test_features=FeatureRows(test_images.copy(), 0, len(test_images)),
        test_labels=test_labels,
        num_classes=int(max(train_labels.max(), test_labels.max())) + 1,
    )


# generate_synthetic's fresh draws: validation, global test and per-device
# test sizes, and the blobs' per-coordinate noise standard deviation
SYNTHETIC_VALIDATION_SIZE = 200
SYNTHETIC_TEST_SIZE = 400
SYNTHETIC_DEVICE_TEST_SIZE = 8
SYNTHETIC_NOISE_SCALE = 0.5


def generate_synthetic(
    dim: int,
    train_size: int,
    num_devices: int,
    separation: float,
    seed: int,
) -> SplitDataset:
    """Two Gaussian blobs with class-mean distance `separation`.

    All train_size samples stay in the training partition (a device can hold
    exactly one sample); validation, global test, and per-device test splits
    are fresh draws from the same blobs, per-device labels resampled from that
    device's own label histogram. Samples are dealt round-robin by label.
    """
    check_values({
        "dim": (SYNTHETIC_DIM, dim),
        "train_size": (SYNTHETIC_TRAIN_SIZE, train_size),
        "num_devices": (NUM_DEVICES, num_devices),
        "separation": (SYNTHETIC_SEPARATION, separation),
    })
    rng = substream(seed)
    centers = np.zeros((2, dim))
    centers[0, 0] = -separation / 2.0
    centers[1, 0] = +separation / 2.0

    def draw(labels: np.ndarray) -> np.ndarray:
        return centers[labels] + SYNTHETIC_NOISE_SCALE * rng.normal(size=(len(labels), dim))

    def balanced_labels(n: int) -> np.ndarray:
        return np.repeat([0, 1], [n - n // 2, n // 2])

    train_labels = balanced_labels(train_size)
    train_raw = draw(train_labels)
    lo, hi = train_raw.min(axis=0), train_raw.max(axis=0)
    span = np.where(hi > lo, hi - lo, 1.0)

    def scaled(raw: np.ndarray) -> np.ndarray:
        features = np.clip((raw - lo) / span, 0.0, 1.0)
        return np.hstack([features, np.ones((len(features), 1))])

    train_feats = scaled(train_raw)
    val_labels = balanced_labels(SYNTHETIC_VALIDATION_SIZE)
    test_labels = balanced_labels(SYNTHETIC_TEST_SIZE)
    val_feats = scaled(draw(val_labels))
    test_feats = scaled(draw(test_labels))
    devices = []
    for m in range(num_devices):
        idx = np.arange(m, train_size, num_devices)  # label-sorted by construction
        labels = train_labels[idx]
        freq = np.bincount(labels, minlength=2).astype(float)
        local_labels = np.sort(rng.choice(2, size=SYNTHETIC_DEVICE_TEST_SIZE, p=freq / freq.sum()))
        devices.append(DeviceDataset(
            device_id=m,
            features=train_feats[idx],
            labels=labels,
            test_features=scaled(draw(local_labels)),
            test_labels=local_labels,
        ))

    return SplitDataset(
        devices=devices,
        validation_features=val_feats,
        validation_labels=val_labels,
        test_features=test_feats,
        test_labels=test_labels,
        num_classes=2,
    )


def write_synthetic_image_corpus(
    out_dir: str | Path,
    num_classes: int = 10,
    side: int = 28,
    train_size: int = 60000,
    test_size: int = 10000,
    seed: int = 20240817,
    noise_scale: float = 110.0,
    templates_per_class: int = 1,
    background_weight: float = 0.0,
) -> Path:
    """Write an MNIST-layout IDX corpus of noisy class-template images.

    Used where the real dataset is unavailable: each sample is a random convex
    mix of its class's pixel templates, blended with a class-independent
    background, brightness-jittered, plus Gaussian pixel noise clipped to
    bytes. background_weight in [0, 1) and templates_per_class control how
    hard the corpus is for a linear model: a heavier shared background and
    more intra-class variation push the one-vs-rest ceiling below perfect,
    which is the regime the policy experiments need. Deterministic given the
    seed.
    """
    if not 0.0 <= background_weight < 1.0:
        raise DataFormatError(
            f"background_weight must be in [0, 1), got {background_weight}"
        )
    if templates_per_class < 1:
        raise DataFormatError(
            f"templates_per_class must be >= 1, got {templates_per_class}"
        )
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = substream(seed)
    templates = rng.uniform(
        30.0, 225.0, size=(num_classes, templates_per_class, side * side)
    )
    background = rng.uniform(30.0, 225.0, size=side * side)

    def render(labels: np.ndarray) -> np.ndarray:
        weights = rng.dirichlet(np.ones(templates_per_class), size=len(labels))
        mixed = np.einsum("nk,nkp->np", weights, templates[labels])
        pixels = background_weight * background + (1.0 - background_weight) * mixed
        pixels *= rng.uniform(0.7, 1.15, size=(len(labels), 1))
        pixels += noise_scale * rng.normal(size=pixels.shape)
        images = np.clip(pixels, 0.0, 255.0).astype(np.uint8)
        return images.reshape(len(labels), side, side)

    def class_balanced(n: int) -> np.ndarray:
        labels = np.arange(n) % num_classes
        rng.shuffle(labels)
        return labels

    train_labels = class_balanced(train_size)
    test_labels = class_balanced(test_size)
    files = {
        "train_images": render(train_labels),
        "train_labels": train_labels.astype(np.uint8),
        "test_images": render(test_labels),
        "test_labels": test_labels.astype(np.uint8),
    }
    for key, stem in IDX_FILES.items():
        (out_dir / stem).write_bytes(write_idx(files[key]))
    return out_dir
