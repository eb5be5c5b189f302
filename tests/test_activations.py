import numpy as np
import pytest
from hypothesis import given, strategies as st

from spikelstm.activations import (HardActConfig, hard_sigmoid, hard_sigmoid_grad,
                                   hard_tanh, hard_tanh_grad)
from spikelstm.errors import ValidationError

CFG = HardActConfig(v_sig=4.0, v_tanh_pos=3.0, v_tanh_neg=-2.0)


def test_hard_sigmoid_examples():
    assert hard_sigmoid(0.0, CFG) == 0.5
    assert hard_sigmoid(2.0, CFG) == 1.0  # saturates at v_sig/2
    assert hard_sigmoid(-1.0, CFG) == 0.25


def test_hard_tanh_examples():
    assert hard_tanh(0.0, CFG) == 0.0
    assert hard_tanh(1.5, CFG) == 0.5
    assert hard_tanh(-1.0, CFG) == -0.5


def test_hard_sigmoid_symmetry():
    z = np.linspace(-3, 3, 101)
    np.testing.assert_allclose(hard_sigmoid(z, CFG) + hard_sigmoid(-z, CFG), 1.0)


@given(st.floats(-100, 100), st.floats(-100, 100))
def test_hard_sigmoid_monotone(a, b):
    lo, hi = min(a, b), max(a, b)
    assert hard_sigmoid(lo, CFG) <= hard_sigmoid(hi, CFG)


@given(st.floats(-50, 50))
def test_hard_tanh_range_and_continuity(z):
    y = hard_tanh(z, CFG)
    assert -1.0 <= y <= 1.0
    # two-ramp form agrees with the one-sided limits at 0
    assert hard_tanh(0.0, CFG) == 0.0


def test_invalid_config_rejected():
    with pytest.raises(ValidationError):
        HardActConfig(v_sig=-1.0)
    with pytest.raises(ValidationError):
        HardActConfig(v_tanh_neg=2.0)


def test_subgradients_linear_side_at_kinks():
    assert hard_sigmoid_grad(2.0, CFG) == 0.25    # kink owned by the linear side
    assert hard_sigmoid_grad(-2.0, CFG) == 0.25
    assert hard_sigmoid_grad(2.0001, CFG) == 0.0
    assert hard_tanh_grad(0.0, CFG) == pytest.approx(1 / 3)  # z >= 0 branch owns 0
    assert hard_tanh_grad(-1.0, CFG) == 0.5
    assert hard_tanh_grad(3.5, CFG) == 0.0


# The where/clip formulas each activation replaced, as the bitwise reference.
def _slope(z, scale):
    return np.asarray(1.0 / scale, np.result_type(z, 1.0))


def _where_hard_sigmoid(z, cfg):
    return np.clip(z / cfg.v_sig + 0.5, 0.0, 1.0)


def _where_hard_sigmoid_grad(z, cfg):
    half = cfg.v_sig / 2.0
    return np.where((z >= -half) & (z <= half), _slope(z, cfg.v_sig), 0.0)


def _where_hard_tanh(z, cfg):
    pos = np.clip(z / cfg.v_tanh_pos, 0.0, 1.0)
    neg = np.clip(z / abs(cfg.v_tanh_neg), -1.0, 0.0)
    return np.where(z >= 0.0, pos, neg)


def _where_hard_tanh_grad(z, cfg):
    g_pos = np.where((z >= 0.0) & (z <= cfg.v_tanh_pos), _slope(z, cfg.v_tanh_pos), 0.0)
    g_neg = np.where((z < 0.0) & (z >= cfg.v_tanh_neg), _slope(z, abs(cfg.v_tanh_neg)), 0.0)
    return g_pos + g_neg


PAIRS = [(hard_sigmoid, _where_hard_sigmoid), (hard_sigmoid_grad, _where_hard_sigmoid_grad),
         (hard_tanh, _where_hard_tanh), (hard_tanh_grad, _where_hard_tanh_grad)]
# the default scales, and a negative ramp wider than the positive one, where
# z / |v_tanh_neg| underflows to -0.0 while z / v_tanh_pos does not
CONFIGS = [CFG, HardActConfig(v_sig=3.0, v_tanh_pos=1.0, v_tanh_neg=-3.0)]


def _edge_values(cfg, dtype):
    tiny = float(np.finfo(dtype).smallest_subnormal)  # 5e-324 at f64
    edges = [0.0, tiny, 2 * tiny, 1e-323, cfg.v_sig / 2, cfg.v_tanh_pos, -cfg.v_tanh_neg,
             np.inf]
    values = [sign * v for v in edges for sign in (1.0, -1.0)] + [np.nan, -np.nan]
    rng = np.random.default_rng(0)
    return np.concatenate([np.array(values, dtype), rng.normal(0, 3, 4000).astype(dtype),
                           (rng.integers(-50, 50, 4000) * tiny).astype(dtype)])


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("cfg", CONFIGS, ids=["default", "wide-negative-ramp"])
@pytest.mark.parametrize("fn, reference", PAIRS, ids=[fn.__name__ for fn, _ in PAIRS])
def test_activation_is_the_where_formula_bit_for_bit(fn, reference, cfg, dtype):
    """Each activation equals its np.where/np.clip reference bit for bit,
    signed zeros, subnormals, breakpoints, infinities and NaN included, on
    arrays, strided views and scalars, and keeps the input's float dtype."""
    z = _edge_values(cfg, dtype)
    for arr in (z, z[::3], z[:16].reshape(4, 4)):
        out, want = fn(arr, cfg), reference(arr, cfg)
        assert out.dtype == want.dtype == dtype and out.shape == arr.shape
        assert out.tobytes() == want.tobytes()
    for value in z[:18]:  # numpy scalars, and Python floats at f64
        for scalar in (value, float(value)) if dtype == np.float64 else (value,):
            out, want = fn(scalar, cfg), reference(scalar, cfg)
            assert np.asarray(out).dtype == np.asarray(want).dtype
            assert np.asarray(out).tobytes() == np.asarray(want).tobytes(), scalar
