import numpy as np
import pytest

from spikelstm.activations import HardActConfig, hard_tanh
from spikelstm.errors import DimensionMismatch, ValidationError
from spikelstm.lstm import (AnnLSTM, ClassifierHead, GateProjection, LSTMWeights,
                            ann_batch_forward, ann_cell_step)
from spikelstm.train import cast_parameters

from conftest import zero_weights

CFG = HardActConfig()


def ann_forward(model, sequence):
    """Logits of one [N, F] sequence through the batched engine."""
    return ann_batch_forward(model, np.asarray(sequence)[None])[0]


def test_cell_step_zero_weights():
    w = zero_weights(2, 3)
    c_prev = np.array([0.4, -0.2, 1.0])
    h, c = ann_cell_step(w, np.zeros(3), c_prev, np.ones(2), CFG)
    np.testing.assert_allclose(c, 0.5 * c_prev)
    np.testing.assert_allclose(h, 0.5 * hard_tanh(c, CFG))


def test_cell_step_origin_fixed_point():
    w = zero_weights(2, 3)
    h, c = ann_cell_step(w, np.zeros(3), np.zeros(3), np.zeros(2), CFG)
    np.testing.assert_array_equal(h, 0.0)
    np.testing.assert_array_equal(c, 0.0)


def test_cell_step_saturated_forget_gate():
    w = zero_weights(1, 1)
    w.w_x["f"][0, 0] = 8.0
    h, c = ann_cell_step(w, np.zeros(1), np.array([2.0]), np.array([1.0]), CFG)
    assert c[0] == 2.0  # f saturates at 1, i*g = 0.5*0 = 0


def test_cell_step_dimension_mismatch():
    w = zero_weights(2, 3)
    with pytest.raises(DimensionMismatch):
        ann_cell_step(w, np.zeros(3), np.zeros(3), np.zeros(5), CFG)


def test_forward_single_element_reduces_to_cell_plus_head():
    rng = np.random.default_rng(0)
    model = AnnLSTM.random(2, [3], [2], rng, scale=0.5)
    x = rng.normal(0, 1, (1, 2))
    h, _ = ann_cell_step(model.layers[0], np.zeros(3), np.zeros(3), x[0], model.act)
    np.testing.assert_array_equal(ann_forward(model, x), model.head.forward(h))


def test_forward_zero_weight_model_returns_head_bias():
    w = zero_weights(2, 3)
    head = ClassifierHead([[np.zeros((2, 3)), np.array([0.3, -0.7])]])
    model = AnnLSTM(layers=[w], head=head)
    np.testing.assert_array_equal(ann_forward(model, np.ones((4, 2))), [0.3, -0.7])


def test_forward_matches_independent_reference():
    """Hand-rolled per-step evaluation, written independently of the library
    cell, agrees to 1e-12."""
    rng = np.random.default_rng(11)
    model = AnnLSTM.random(2, [2], [2], rng, scale=0.7)
    seq = rng.normal(0, 1, (2, 2))
    w = model.layers[0]
    h = np.zeros(2)
    c = np.zeros(2)
    for n in range(2):
        z = {}
        for a in "figo":
            z[a] = w.w_x[a] @ seq[n] + w.w_h[a] @ h + w.b[a]
        f = np.clip(z["f"] / 4.0 + 0.5, 0, 1)
        i = np.clip(z["i"] / 4.0 + 0.5, 0, 1)
        o = np.clip(z["o"] / 4.0 + 0.5, 0, 1)
        g = np.where(z["g"] >= 0, np.clip(z["g"] / 3.0, 0, 1), np.clip(z["g"] / 2.0, -1, 0))
        c = f * c + i * g
        tc = np.where(c >= 0, np.clip(c / 3.0, 0, 1), np.clip(c / 2.0, -1, 0))
        h = o * tc
    W, b = model.head.weights[0]
    np.testing.assert_allclose(ann_forward(model, seq), W @ h + b, atol=1e-12, rtol=0)


def test_f32_forward_matches_an_f32_cell_step_loop():
    """An f32 model: the batched engine equals ann_cell_step run one sample
    and one element at a time, both at f32."""
    rng = np.random.default_rng(12)
    model = AnnLSTM.random(3, [7, 5], [4], rng, scale=0.8)
    cast_parameters(model, np.float32)
    X = rng.normal(0.0, 1.0, (6, 5, 3))
    logits = ann_batch_forward(model, X)
    for b in range(len(X)):
        below = X[b]
        for w in model.layers:
            h = c = np.zeros(w.hidden_dim, np.float32)
            outs = []
            for x in below:
                h, c = ann_cell_step(w, h, c, x, model.act)
                outs.append(h)
            below = np.array(outs)
        ref = model.head.forward(below[-1])
        assert logits.dtype == ref.dtype == np.float32
        np.testing.assert_array_equal(logits[b], ref)


def test_forward_rejects_empty_sequence():
    model = AnnLSTM.random(2, [3], [2], np.random.default_rng(0))
    with pytest.raises(ValidationError):
        ann_batch_forward(model, np.zeros((1, 0, 2)))
    with pytest.raises(ValidationError):
        ann_batch_forward(model, np.zeros((0, 4, 2)))


def test_stacked_zero_weight_layers_emit_zero_hidden():
    head = ClassifierHead([[np.zeros((2, 3)), np.zeros(2)]])
    model = AnnLSTM(layers=[zero_weights(2, 3), zero_weights(3, 3)], head=head)
    np.testing.assert_array_equal(ann_forward(model, np.ones((3, 2))), 0.0)


def test_stack_dimension_mismatch():
    head = ClassifierHead([[np.zeros((2, 4)), np.zeros(2)]])
    with pytest.raises(DimensionMismatch):
        AnnLSTM(layers=[zero_weights(2, 3), zero_weights(4, 4)], head=head)


def test_two_layer_matches_manual_composition():
    rng = np.random.default_rng(5)
    model = AnnLSTM.random(2, [3, 2], [2], rng, scale=0.6)
    seq = rng.normal(0, 1, (3, 2))
    # layer 1 alone
    h1_seq = []
    h = np.zeros(3)
    c = np.zeros(3)
    for n in range(3):
        h, c = ann_cell_step(model.layers[0], h, c, seq[n], model.act)
        h1_seq.append(h)
    h = np.zeros(2)
    c = np.zeros(2)
    for n in range(3):
        h, c = ann_cell_step(model.layers[1], h, c, h1_seq[n], model.act)
    np.testing.assert_allclose(ann_forward(model, seq), model.head.forward(h), atol=1e-14)


def test_head_two_layer_relu():
    head = ClassifierHead([[np.array([[1.0, 0.0]]), np.array([-0.2])],
                           [np.array([[2.0]]), np.array([0.1])]])
    # relu(1*0.05 - 0.2) = 0 -> logits = 0.1
    np.testing.assert_allclose(head.forward(np.array([0.05, 3.0])), [0.1])
    np.testing.assert_allclose(head.forward(np.array([0.5, 0.0])), [2 * 0.3 + 0.1])


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_blas_gemm_rows_do_not_depend_on_the_row_count(dtype):
    """The BLAS property GateProjection rests on, at package shapes (K up to
    384, widths 3, 10, 33 and 60 padded to 16): each row of a chunk's
    product, for chunks of 2 rows or more, equals the same row of the full
    product, and a lone row beside its copy equals it too. A BLAS that
    breaks this makes batched and streamed runs round differently."""
    rng = np.random.default_rng(20)
    for fan_in in (3, 10, 33, 60, 128, 384):
        for width in (3, 10, 33, 60):
            proj = GateProjection(list(rng.normal(0.0, 1.0, (4, width, fan_in)).astype(dtype)))
            X = rng.normal(0.0, 1.0, (64, fan_in)).astype(dtype)
            full = X @ proj.pack
            shape = f"K={fan_in}, H={width}"
            for size in (2, 3, 5, 7, 16, 33):
                for lo in range(0, len(X) - size + 1, size):
                    np.testing.assert_array_equal(X[lo:lo + size] @ proj.pack,
                                                  full[:, lo:lo + size], err_msg=shape)
            for row in range(0, len(X), 9):
                pair = np.stack([X[row], X[row]])
                np.testing.assert_array_equal((pair @ proj.pack)[:, 0], full[:, row],
                                              err_msg=shape)


def test_gate_projection_rows_equal_the_full_projection():
    """GateProjection gives x @ m.T per matrix, [G, ..., H] for any leading
    shape, and a row's bits do not depend on the call it is part of."""
    rng = np.random.default_rng(21)
    mats = list(rng.normal(0.0, 1.0, (4, 10, 7)))
    proj = GateProjection(mats)
    X = rng.normal(0.0, 1.0, (3, 5, 7))
    full = proj(X)
    assert full.shape == (4, 3, 5, 10)
    np.testing.assert_allclose(full, np.stack([X @ m.T for m in mats]), rtol=1e-12)
    for b in range(3):
        np.testing.assert_array_equal(proj(X[b]), full[:, b])
        np.testing.assert_array_equal(proj(X[b, 2]), full[:, b, 2])
    np.testing.assert_array_equal(proj(X[:, ::-2]), full[:, :, ::-2])


@pytest.mark.parametrize("scale", [1e308, float("inf"), float("nan")])
def test_random_rejects_a_scale_too_large_to_sample(scale):
    """uniform(-scale, scale) needs a finite 2 * scale: a larger scale raises
    ValidationError, not numpy's OverflowError."""
    rng = np.random.default_rng(0)
    with pytest.raises(ValidationError, match="scale"):
        LSTMWeights.random(2, 3, rng, scale)
    with pytest.raises(ValidationError, match="scale"):
        ClassifierHead.random([3, 2], rng, scale)
