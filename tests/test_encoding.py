import numpy as np
import pytest

from spikelstm.encoding import encode_sequence
from spikelstm.errors import ValidationError


def test_direct_replicates_values():
    out = encode_sequence(np.array([[0.7, 0.0]]), 3, "direct")
    np.testing.assert_array_equal(out, [[[0.7, 0.0]] * 3])


def test_direct_shape_contract():
    assert encode_sequence(np.zeros((2, 5)), 4, "direct").shape == (2, 4, 5)
    assert encode_sequence(np.zeros((3, 2, 5)), 4, "direct").shape == (3, 2, 4, 5)


def test_poisson_extremes():
    assert encode_sequence(np.zeros((2, 8)), 20, "poisson", 0).sum() == 0
    assert encode_sequence(np.ones((2, 8)), 20, "poisson", 0).sum() == 2 * 8 * 20


def test_poisson_rate_concentration():
    train = encode_sequence(np.full((1, 4), 0.5), 10000, "poisson", rng_seed=3)
    # binomial 4-sigma band at p=0.5, T=10000
    assert abs(train.mean() - 0.5) < 0.02


def test_poisson_seed_reproducible():
    seq = np.full((2, 6), 0.3)
    a = encode_sequence(seq, 50, "poisson", rng_seed=9)
    b = encode_sequence(seq, 50, "poisson", rng_seed=9)
    c = encode_sequence(seq, 50, "poisson", rng_seed=10)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


def test_poisson_rejects_out_of_range():
    with pytest.raises(ValidationError):
        encode_sequence(np.array([[1.2]]), 4, "poisson", 0)
    with pytest.raises(ValidationError):
        encode_sequence(np.array([[-0.1]]), 4, "poisson", 0)


def test_encode_sequence_shapes_and_determinism():
    seq = np.random.default_rng(0).random((5, 3))
    direct = encode_sequence(seq, 4, "direct", 0)
    assert direct.shape == (5, 4, 3)
    np.testing.assert_array_equal(direct[2, 0], direct[2, 3])
    p1 = encode_sequence(seq, 4, "poisson", 7)
    p2 = encode_sequence(seq, 4, "poisson", 7)
    np.testing.assert_array_equal(p1, p2)
    with pytest.raises(ValidationError):
        encode_sequence(seq, 4, "morse", 0)


def test_encode_sequence_batch_keys_each_sample_by_its_index():
    X = np.random.default_rng(1).random((4, 3, 2))
    batch = encode_sequence(X, 5, "poisson", 9, first_index=10)
    assert batch.shape == (4, 3, 5, 2)
    for b in range(4):
        single = encode_sequence(X[b], 5, "poisson", 9, first_index=10 + b)
        np.testing.assert_array_equal(batch[b], single)
    tail = encode_sequence(X[2:], 5, "poisson", 9, first_index=12)
    np.testing.assert_array_equal(tail, batch[2:])
    np.testing.assert_array_equal(encode_sequence(X, 5, "direct")[:, :, 4], X)


@pytest.mark.parametrize("encoding", ["direct", "poisson"])
def test_float_input_keeps_its_dtype(encoding):
    """f32 input encodes to f32 with the values of the f64 path: Poisson
    draws compare f64 uniforms with the exactly promoted input."""
    X = np.random.default_rng(4).random((3, 5, 7))
    ours = encode_sequence(X.astype(np.float32), 6, encoding, 2, first_index=1)
    f64 = encode_sequence(X.astype(np.float32).astype(np.float64), 6, encoding, 2,
                          first_index=1)
    assert ours.dtype == np.float32 and f64.dtype == np.float64
    np.testing.assert_array_equal(ours, f64)
