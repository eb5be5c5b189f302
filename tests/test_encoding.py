import numpy as np
import pytest

from spikelstm.encoding import encode_direct, encode_poisson, encode_sequence
from spikelstm.errors import ValidationError


def test_direct_replicates_values():
    np.testing.assert_array_equal(encode_direct(0.7, 3), [0.7, 0.7, 0.7])
    np.testing.assert_array_equal(encode_direct(0.0, 2), [0.0, 0.0])


def test_direct_shape_contract():
    out = encode_direct(np.zeros(5), 4)
    assert out.shape == (4, 5)


def test_poisson_extremes():
    assert encode_poisson(np.zeros(8), 20, 0).values.sum() == 0
    assert encode_poisson(np.ones(8), 20, 0).values.sum() == 8 * 20


def test_poisson_rate_concentration():
    train = encode_poisson(np.full(4, 0.5), 10000, rng_seed=3)
    # binomial 4-sigma band at p=0.5, T=10000
    assert abs(train.values.mean() - 0.5) < 0.02


def test_poisson_seed_reproducible():
    a = encode_poisson(np.full(6, 0.3), 50, rng_seed=9)
    b = encode_poisson(np.full(6, 0.3), 50, rng_seed=9)
    c = encode_poisson(np.full(6, 0.3), 50, rng_seed=10)
    np.testing.assert_array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)


def test_poisson_rejects_out_of_range():
    with pytest.raises(ValidationError):
        encode_poisson(np.array([1.2]), 4, 0)
    with pytest.raises(ValidationError):
        encode_poisson(np.array([-0.1]), 4, 0)


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
