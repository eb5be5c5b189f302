"""Dataset ingestion and sequencing.

MNIST IDX files (external standard, big-endian) become row-wise sequences;
precomputed feature tensors travel in the little-endian SEQF container
documented below; synthetic tasks provide fast deterministic fixtures.

SEQF container layout (all little-endian):

    bytes 0-3   magic b"SEQF"
    u32         sample count
    u32         N (sequence length)
    u32         F (features per element)
    u32         label width in bytes (1, 2, 4 or 8, unsigned)
    labels      count * label_width bytes
    payload     count * N * F float32 values, C order
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import DataFormatError, ValidationError

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801
SEQF_MAGIC = b"SEQF"
ROW_PADS = (28, 32)  # the image sides to_row_sequence pads to


@dataclass
class SequenceDataset:
    """Labeled [count, N, F] sequences with integer class labels."""

    sequences: np.ndarray
    labels: np.ndarray
    n_classes: int

    def __post_init__(self):
        if self.sequences.ndim != 3:
            raise ValidationError(f"sequences must be [count, N, F], got {self.sequences.shape}")
        if self.labels.shape != (self.sequences.shape[0],):
            raise ValidationError("label count != sequence count")

    def __len__(self) -> int:
        return self.sequences.shape[0]

    def subset(self, indices) -> "SequenceDataset":
        return SequenceDataset(self.sequences[indices], self.labels[indices], self.n_classes)


def _read_exact(fh, n: int, path: str, what: str) -> bytes:
    data = fh.read(n)
    if len(data) != n:
        raise DataFormatError(f"{path}: truncated while reading {what} "
                              f"(wanted {n} bytes, got {len(data)})")
    return data


def load_mnist_idx(images_path: str, labels_path: str):
    """Parse an IDX image/label file pair; returns (images [count, r, c] in
    [0,1], labels [count]). Rejects malformed headers with precise
    diagnostics; never partially loads."""
    with open(images_path, "rb") as fh:
        magic, count, rows, cols = struct.unpack(">IIII", _read_exact(fh, 16, images_path, "header"))
        if magic != IDX_IMAGES_MAGIC:
            raise DataFormatError(
                f"{images_path}: bad magic 0x{magic:08x}, want 0x{IDX_IMAGES_MAGIC:08x}")
        raw = _read_exact(fh, count * rows * cols, images_path, f"{count} images")
        if fh.read(1):
            raise DataFormatError(f"{images_path}: trailing bytes after {count} images")
    with open(labels_path, "rb") as fh:
        magic, label_count = struct.unpack(">II", _read_exact(fh, 8, labels_path, "header"))
        if magic != IDX_LABELS_MAGIC:
            raise DataFormatError(
                f"{labels_path}: bad magic 0x{magic:08x}, want 0x{IDX_LABELS_MAGIC:08x}")
        labels = np.frombuffer(_read_exact(fh, label_count, labels_path, "labels"), dtype=np.uint8)
    if count != label_count:
        raise DataFormatError(
            f"image count {count} ({images_path}) != label count {label_count} ({labels_path})")
    images = np.frombuffer(raw, dtype=np.uint8).reshape(count, rows, cols) / 255.0
    return images, labels.astype(np.int64)


def to_row_sequence(image: np.ndarray, pad_to: int = 32) -> np.ndarray:
    """One image row per sequence element, for one [side, side] image or a
    [count, side, side] stack. pad_to=32 zero-pads 28x28 symmetrically (2
    each side); pad_to=28 keeps the native shape."""
    image = np.asarray(image, dtype=np.float64)
    if image.ndim not in (2, 3) or image.shape[-1] != image.shape[-2]:
        raise ValidationError(f"expected a square image or a stack of them, "
                              f"got shape {image.shape}")
    if pad_to not in ROW_PADS:
        raise ValidationError(f"pad_to must be one of {ROW_PADS}, got {pad_to}")
    size = image.shape[-1]
    if size > pad_to:
        raise ValidationError(f"image side {size} exceeds pad_to {pad_to}")
    pad = pad_to - size
    lo = pad // 2
    return np.pad(image, ((0, 0),) * (image.ndim - 2) + ((lo, pad - lo),) * 2)


def load_tmnist(data_dir: str, split: str = "train", pad_to: int = 32) -> SequenceDataset:
    """Row-sequenced MNIST from the official IDX files under data_dir."""
    names = {
        "train": ("train-images-idx3-ubyte", "train-labels-idx1-ubyte"),
        "test": ("t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte"),
    }
    if split not in names:
        raise ValidationError(f"split must be train or test, got {split!r}")
    images_path = os.path.join(data_dir, names[split][0])
    labels_path = os.path.join(data_dir, names[split][1])
    images, labels = load_mnist_idx(images_path, labels_path)
    return SequenceDataset(to_row_sequence(images, pad_to), labels, n_classes=10)


def save_feature_tensor(path: str, dataset: SequenceDataset, label_width: int = 4) -> None:
    """Write a SEQF container (float32 payload)."""
    if label_width not in (1, 2, 4, 8):
        raise ValidationError(f"label_width must be 1, 2, 4 or 8, got {label_width}")
    count, n, f = dataset.sequences.shape
    with open(path, "wb") as fh:
        fh.write(SEQF_MAGIC)
        fh.write(struct.pack("<IIII", count, n, f, label_width))
        fh.write(dataset.labels.astype(f"<u{label_width}").tobytes())
        fh.write(np.ascontiguousarray(dataset.sequences, dtype="<f4").tobytes())


def load_feature_tensor(path: str) -> SequenceDataset:
    """Read a SEQF container; validates magic, header and payload size."""
    with open(path, "rb") as fh:
        magic = _read_exact(fh, 4, path, "magic")
        if magic != SEQF_MAGIC:
            raise DataFormatError(f"{path}: bad magic {magic!r}, want {SEQF_MAGIC!r}")
        count, n, f, label_width = struct.unpack("<IIII", _read_exact(fh, 16, path, "header"))
        if label_width not in (1, 2, 4, 8):
            raise DataFormatError(f"{path}: unsupported label width {label_width}")
        labels = np.frombuffer(
            _read_exact(fh, count * label_width, path, "labels"), dtype=f"<u{label_width}")
        payload = _read_exact(fh, count * n * f * 4, path, "payload")
        if fh.read(1):
            raise DataFormatError(f"{path}: trailing bytes after payload")
    sequences = np.frombuffer(payload, dtype="<f4").reshape(count, n, f)
    labels = labels.astype(np.int64)
    n_classes = int(labels.max()) + 1 if count else 0
    return SequenceDataset(sequences.copy(), labels, n_classes)


def synthetic_task(kind: str, size: int, seed: int, n_classes: int = 3,
                   n_elements: int = 12, n_features: int = 6,
                   noise: float = 0.3) -> SequenceDataset:
    """Fast deterministic fixtures solvable by a small LSTM.

    planted-pattern: the class is decided by which fixed subsequence is
    embedded in noise. delayed-recall: the label is a token shown at
    element 1 and queried at element N. Class counts are balanced within
    one sample.
    """
    if size < n_classes:
        raise ValidationError("size must cover at least one sample per class")
    rng = np.random.default_rng(seed)
    labels = np.arange(size) % n_classes
    rng.shuffle(labels)
    X = rng.normal(0.0, noise, (size, n_elements, n_features))
    if kind == "planted-pattern":
        pattern_len = max(2, n_elements // 3)
        patterns = rng.choice([-1.0, 1.0], (n_classes, pattern_len, n_features))
        starts = rng.integers(0, n_elements - pattern_len + 1, size)
        for s in range(size):
            X[s, starts[s]:starts[s] + pattern_len] += patterns[labels[s]]
    elif kind == "delayed-recall":
        if n_features < n_classes:
            raise ValidationError("delayed-recall needs n_features >= n_classes")
        X[np.arange(size), 0, :] = 0.0
        X[np.arange(size), 0, labels] = 3.0  # token well above the noise floor
    else:
        raise ValidationError(f"unknown synthetic task kind {kind!r}")
    return SequenceDataset(X, labels.astype(np.int64), n_classes)


def split_dataset(dataset: SequenceDataset, val_fraction: float = 0.15,
                  test_fraction: float = 0.0, seed: int = 0):
    """Seed-deterministic disjoint (train, val, test) split."""
    if val_fraction < 0 or test_fraction < 0 or val_fraction + test_fraction >= 1:
        raise ValidationError("fractions must be nonnegative and sum below 1")
    count = len(dataset)
    order = np.random.default_rng(seed).permutation(count)
    n_val = int(round(count * val_fraction))
    n_test = int(round(count * test_fraction))
    val = dataset.subset(order[:n_val])
    test = dataset.subset(order[n_val:n_val + n_test])
    train = dataset.subset(order[n_val + n_test:])
    return train, val, test
