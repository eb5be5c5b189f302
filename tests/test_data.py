import os
import struct

import numpy as np
import pytest

from spikelstm.data import (SequenceDataset, load_feature_tensor, load_mnist_idx, load_tmnist,
                            save_feature_tensor, split_dataset, synthetic_task,
                            to_row_sequence)
from spikelstm.errors import DataFormatError, ValidationError

MNIST_DIR = os.path.join(os.environ.get("SPIKELSTM_DATA_ROOT", ""), "mnist")
HAVE_MNIST = os.path.exists(os.path.join(MNIST_DIR, "train-images-idx3-ubyte"))


def write_idx_pair(tmp_path, images, labels):
    images = np.asarray(images, dtype=np.uint8)
    labels = np.asarray(labels, dtype=np.uint8)
    img_path = tmp_path / "imgs-idx3-ubyte"
    lab_path = tmp_path / "labs-idx1-ubyte"
    with open(img_path, "wb") as fh:
        fh.write(struct.pack(">IIII", 0x803, *images.shape))
        fh.write(images.tobytes())
    with open(lab_path, "wb") as fh:
        fh.write(struct.pack(">II", 0x801, labels.shape[0]))
        fh.write(labels.tobytes())
    return str(img_path), str(lab_path)


def test_idx_loader_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    raw = rng.integers(0, 256, (5, 4, 4), dtype=np.uint8)
    labels = np.array([0, 3, 9, 1, 2], dtype=np.uint8)
    img, lab = write_idx_pair(tmp_path, raw, labels)
    images, loaded_labels = load_mnist_idx(img, lab)
    assert images.shape == (5, 4, 4)
    assert images.min() >= 0.0 and images.max() <= 1.0
    np.testing.assert_array_equal(images * 255.0, raw)
    np.testing.assert_array_equal(loaded_labels, labels)
    # deterministic re-load
    again, _ = load_mnist_idx(img, lab)
    np.testing.assert_array_equal(images, again)


def test_idx_loader_rejects_bad_magic(tmp_path):
    img, lab = write_idx_pair(tmp_path, np.zeros((1, 2, 2), np.uint8), np.zeros(1, np.uint8))
    data = open(img, "rb").read()
    open(img, "wb").write(b"\x00\x00\x09\x99" + data[4:])
    with pytest.raises(DataFormatError, match="bad magic"):
        load_mnist_idx(img, lab)


def test_idx_loader_rejects_truncation(tmp_path):
    img, lab = write_idx_pair(tmp_path, np.zeros((3, 2, 2), np.uint8), np.zeros(3, np.uint8))
    data = open(img, "rb").read()
    open(img, "wb").write(data[:-3])
    with pytest.raises(DataFormatError, match="truncated"):
        load_mnist_idx(img, lab)


def test_idx_loader_rejects_count_mismatch(tmp_path):
    img, lab = write_idx_pair(tmp_path, np.zeros((3, 2, 2), np.uint8), np.zeros(3, np.uint8))
    short_lab = tmp_path / "short-labs-idx1-ubyte"
    with open(short_lab, "wb") as fh:
        fh.write(struct.pack(">II", 0x801, 2))
        fh.write(np.zeros(2, np.uint8).tobytes())
    with pytest.raises(DataFormatError, match="count"):
        load_mnist_idx(img, str(short_lab))


@pytest.mark.skipif(not HAVE_MNIST, reason="official MNIST IDX files not present "
                    "under $SPIKELSTM_DATA_ROOT/mnist")
def test_official_mnist_shapes():
    images, labels = load_mnist_idx(
        os.path.join(MNIST_DIR, "train-images-idx3-ubyte"),
        os.path.join(MNIST_DIR, "train-labels-idx1-ubyte"))
    assert images.shape == (60000, 28, 28)
    assert set(np.unique(labels)).issubset(set(range(10)))


def test_row_sequence_padding():
    img = np.zeros((28, 28))
    assert to_row_sequence(img, 32).shape == (32, 32)
    assert to_row_sequence(img, 28).shape == (28, 28)
    np.testing.assert_array_equal(to_row_sequence(img, 32), 0.0)
    marked = np.zeros((28, 28))
    marked[0, 0] = 1.0
    padded = to_row_sequence(marked, 32)
    assert padded[2, 2] == 1.0  # symmetric 2-pixel border
    with pytest.raises(ValidationError):
        to_row_sequence(np.zeros((28, 27)), 32)
    with pytest.raises(ValidationError):
        to_row_sequence(img, 30)
    stack = to_row_sequence(np.stack([img, marked]), 32)  # a stack pads image by image
    np.testing.assert_array_equal(stack, [to_row_sequence(img, 32), padded])


def test_load_tmnist_pads_each_image_as_to_row_sequence(tmp_path):
    rng = np.random.default_rng(5)
    raw = rng.integers(0, 256, (6, 28, 28), dtype=np.uint8)
    paths = write_idx_pair(tmp_path, raw, np.arange(6))
    for path, kind in zip(paths, ("images-idx3", "labels-idx1")):
        os.replace(path, tmp_path / f"t10k-{kind}-ubyte")
    for pad_to in (28, 32):
        ds = load_tmnist(str(tmp_path), "test", pad_to)
        np.testing.assert_array_equal(ds.sequences, [to_row_sequence(im / 255.0, pad_to)
                                                     for im in raw])
        np.testing.assert_array_equal(ds.labels, np.arange(6))
    with pytest.raises(ValidationError):
        load_tmnist(str(tmp_path), "test", 30)


@pytest.mark.parametrize("shape,label_width", [((81, 20), 2), ((128, 9), 4)])
def test_seqf_round_trip_gsc_and_uci_shapes(tmp_path, shape, label_width):
    rng = np.random.default_rng(0)
    n, f = shape
    ds = SequenceDataset(rng.normal(0, 1, (6, n, f)).astype(np.float32),
                         rng.integers(0, 4, 6).astype(np.int64), 4)
    path = tmp_path / "feats.seqf"
    save_feature_tensor(str(path), ds, label_width=label_width)
    loaded = load_feature_tensor(str(path))
    assert loaded.sequences.shape == (6, n, f)
    np.testing.assert_array_equal(loaded.sequences, ds.sequences)
    np.testing.assert_array_equal(loaded.labels, ds.labels)
    # write-back byte identity
    path2 = tmp_path / "again.seqf"
    save_feature_tensor(str(path2), loaded, label_width=label_width)
    assert path.read_bytes() == path2.read_bytes()


def test_seqf_rejects_bad_magic_and_truncation(tmp_path):
    ds = SequenceDataset(np.zeros((2, 3, 4), np.float32), np.zeros(2, np.int64), 1)
    path = tmp_path / "feats.seqf"
    save_feature_tensor(str(path), ds)
    raw = path.read_bytes()
    bad = tmp_path / "bad.seqf"
    bad.write_bytes(b"QSEF" + raw[4:])
    with pytest.raises(DataFormatError, match="bad magic"):
        load_feature_tensor(str(bad))
    short = tmp_path / "short.seqf"
    short.write_bytes(raw[:-5])
    with pytest.raises(DataFormatError, match="truncated"):
        load_feature_tensor(str(short))


def test_synthetic_reproducible_and_balanced():
    a = synthetic_task("planted-pattern", 100, seed=5)
    b = synthetic_task("planted-pattern", 100, seed=5)
    np.testing.assert_array_equal(a.sequences, b.sequences)
    np.testing.assert_array_equal(a.labels, b.labels)
    counts = np.bincount(a.labels, minlength=3)
    assert counts.max() - counts.min() <= 1
    c = synthetic_task("delayed-recall", 99, seed=5)
    counts = np.bincount(c.labels, minlength=3)
    assert counts.max() - counts.min() <= 1
    with pytest.raises(ValidationError):
        synthetic_task("fizzbuzz", 10, seed=0)


def test_reference_lstm_solves_planted_pattern():
    """LSTM(8), ~200 optimizer steps, >95% train accuracy on 500 samples."""
    from spikelstm.lstm import AnnLSTM
    from spikelstm.train import TrainConfig, evaluate, fit

    ds = synthetic_task("planted-pattern", 500, seed=2)
    train, val, _ = split_dataset(ds, 0.1, 0.0, seed=0)
    model = AnnLSTM.random(6, [8], [3], np.random.default_rng(0), scale=0.3)
    steps_per_epoch = int(np.ceil(len(train) / 32))
    epochs = int(np.ceil(200 / steps_per_epoch))
    cfg = TrainConfig(epochs=epochs, batch_size=32, lr=1e-2, seed=0)
    model, _ = fit(model, (train.sequences, train.labels), (val.sequences, val.labels), cfg)
    _, acc, _ = evaluate(model, train.sequences, train.labels)
    assert acc > 0.95


def test_reference_lstm_solves_delayed_recall():
    from spikelstm.lstm import AnnLSTM
    from spikelstm.train import TrainConfig, evaluate, fit

    ds = synthetic_task("delayed-recall", 500, seed=3, n_classes=4, n_elements=12,
                        n_features=8)
    train, val, _ = split_dataset(ds, 0.1, 0.0, seed=0)
    model = AnnLSTM.random(8, [8], [4], np.random.default_rng(0), scale=0.3,
                           forget_bias=1.0)
    cfg = TrainConfig(epochs=15, batch_size=32, lr=1e-2, seed=0)
    model, _ = fit(model, (train.sequences, train.labels), (val.sequences, val.labels), cfg)
    _, acc, _ = evaluate(model, train.sequences, train.labels)
    assert acc > 0.95


def test_split_deterministic_and_disjoint():
    ds = synthetic_task("planted-pattern", 120, seed=9)
    t1, v1, s1 = split_dataset(ds, 0.2, 0.1, seed=4)
    t2, v2, s2 = split_dataset(ds, 0.2, 0.1, seed=4)
    np.testing.assert_array_equal(t1.labels, t2.labels)
    np.testing.assert_array_equal(v1.sequences, v2.sequences)
    assert len(t1) + len(v1) + len(s1) == 120
    # disjointness via sequence identity
    def keys(d):
        return {hash(d.sequences[k].tobytes()) for k in range(len(d))}
    assert not (keys(t1) & keys(v1))
    assert not (keys(t1) & keys(s1))
    assert not (keys(v1) & keys(s1))
    with pytest.raises(ValidationError):
        split_dataset(ds, 0.8, 0.4)
