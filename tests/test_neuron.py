import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spikelstm import snn, train, verify
from spikelstm.activations import HardActConfig
from spikelstm.errors import NumericalFault, ValidationError
from spikelstm.neuron import (NEVER, LIFGateParams, NeuronState, if_avg_sigmoid, if_avg_tanh,
                              lif_avg_sigmoid, lif_first_spike_time, optimal_shift,
                              run_constant_drive, spike, spike_partials, spike_slope,
                              step_sigmoid_neuron, step_tanh_neuron)

CFG = HardActConfig()


# --- time-stepped neurons ---------------------------------------------------

def test_sigmoid_neuron_hand_trace_zero_init():
    params = LIFGateParams(leak=1.0, threshold_pos=4.0, step_bias=2.0, mem_init=0.0)
    spikes = run_constant_drive(params, [0.0], 4)
    np.testing.assert_array_equal(spikes[:, 0], [0, 0, 1, 0])


def test_sigmoid_neuron_hand_trace_shift_as_init():
    params = LIFGateParams(leak=1.0, threshold_pos=4.0, step_bias=2.0, mem_init=2.0)
    spikes = run_constant_drive(params, [0.0], 4)
    np.testing.assert_array_equal(spikes[:, 0], [0, 1, 0, 1])
    assert spikes.mean() == 0.5  # rate matches hard_sigmoid(0)


def test_sigmoid_neuron_strongly_inhibited_never_spikes():
    params = LIFGateParams(leak=1.0, threshold_pos=4.0, step_bias=2.0)
    spikes = run_constant_drive(params, [-10.0], 12)
    assert spikes.sum() == 0


def test_sigmoid_neuron_soft_reset_residual():
    params = LIFGateParams(leak=1.0, threshold_pos=4.0, step_bias=2.0)
    state = NeuronState(membrane=np.array([3.0]))
    out = step_sigmoid_neuron(state, np.array([0.0]), params)
    assert out[0] == 1.0
    assert state.membrane[0] == 1.0  # 5 - 4, residual survives


def test_tanh_neuron_traces():
    params = LIFGateParams(leak=1.0, threshold_pos=3.0, threshold_neg=-2.0)
    assert run_constant_drive(params, [0.0], 5, ternary=True).sum() == 0

    spikes = run_constant_drive(params, [2.0], 3, ternary=True)
    np.testing.assert_array_equal(spikes[:, 0], [0, 1, 0])

    state = NeuronState(membrane=np.array([0.0]))
    out = step_tanh_neuron(state, np.array([-3.0]), params)
    assert out[0] == -1.0
    assert state.membrane[0] == -1.0  # -3 - (-2)


def test_tanh_neuron_requires_negative_threshold():
    params = LIFGateParams(leak=1.0, threshold_pos=3.0)
    with pytest.raises(ValidationError):
        step_tanh_neuron(NeuronState(membrane=np.zeros(1)), np.zeros(1), params)


@pytest.mark.parametrize("field", ["leak", "threshold_pos", "threshold_neg", "step_bias",
                                   "mem_init", "surrogate_gamma"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_params_reject_non_finite_fields(field, bad):
    """NaN passes every sign check, so each field is checked for finiteness."""
    value = np.array([1.0, bad]) if field != "surrogate_gamma" else bad
    with pytest.raises(ValidationError, match=f"{field} must be finite"):
        LIFGateParams(**{field: value})


def test_non_finite_membrane_faults_with_unit_index():
    params = LIFGateParams(leak=1.0, threshold_pos=1.0)
    state = NeuronState(membrane=np.array([0.0, 0.0, 0.0]))
    with pytest.raises(NumericalFault, match="unit 1"):
        step_sigmoid_neuron(state, np.array([0.0, np.nan, 0.0]), params)


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 12), st.floats(-5, 5), st.floats(0.5, 1.2))
def test_tanh_neuron_alphabet(T, drive, leak):
    params = LIFGateParams(leak=leak, threshold_pos=3.0, threshold_neg=-2.0)
    spikes = run_constant_drive(params, [drive], T, ternary=True)
    assert set(np.unique(spikes)).issubset({-1.0, 0.0, 1.0})


# --- closed forms -----------------------------------------------------------

def test_if_avg_sigmoid_examples():
    assert if_avg_sigmoid(0.0, 4, 4.0, 0.0) == 0.5
    assert if_avg_sigmoid(0.9, 4, 4.0, 0.5) == 0.75
    assert if_avg_sigmoid(-3.0, 4, 4.0, 0.0) == 0.0


def test_if_avg_tanh_examples():
    assert if_avg_tanh(1.0, 4, CFG) == 0.25
    assert if_avg_tanh(0.0, 4, CFG) == 0.0
    assert if_avg_tanh(-1.0, 4, CFG) == -0.5


def test_if_avg_tanh_positive_branch_matches_simulation():
    # shift-as-init is exact for the positive regime, off floor ties
    T, cfg = 8, CFG
    for z in (0.4, 0.7, 1.3, 2.2):
        params = LIFGateParams(leak=1.0, threshold_pos=cfg.v_tanh_pos,
                               threshold_neg=cfg.v_tanh_neg,
                               mem_init=cfg.v_tanh_pos / 2.0)
        count = run_constant_drive(params, [z], T, ternary=True).sum()
        expected = T * if_avg_tanh(z, T, cfg, optimal_shift(cfg.v_tanh_pos, T), 0.0)
        assert count == expected


def test_if_avg_tanh_negative_branch_matches_simulation():
    T, cfg = 8, CFG
    for z in (-0.3, -0.7, -1.1, -1.7):
        params = LIFGateParams(leak=1.0, threshold_pos=cfg.v_tanh_pos,
                               threshold_neg=cfg.v_tanh_neg)
        count = run_constant_drive(params, [z], T, ternary=True).sum()
        assert count == T * if_avg_tanh(z, T, cfg)


def test_lif_first_spike_time_examples():
    assert lif_first_spike_time(0.3, 1.0, 0.9) == 4
    assert lif_first_spike_time(0.25, 1.0, 1.0) == 4
    assert lif_first_spike_time(0.05, 1.0, 0.9) == NEVER
    with pytest.raises(ValidationError):
        lif_first_spike_time(0.3, 1.0, -0.1)


def test_lif_avg_sigmoid_examples():
    assert lif_avg_sigmoid(0.3, 8, 1.0, 0.9) == 0.25
    assert lif_avg_sigmoid(0.05, 8, 1.0, 0.9) == 0.0
    assert lif_avg_sigmoid(0.25, 8, 1.0, 1.0) == 0.25


def test_lif_growing_leak_spikes_from_subthreshold_drive():
    t = lif_first_spike_time(0.3, 1.0, 1.05)
    params = LIFGateParams(leak=1.05, threshold_pos=1.0)
    spikes = run_constant_drive(params, [0.3], 8)
    assert t == int(np.flatnonzero(spikes[:, 0])[0]) + 1


def test_surrogate_grad_examples():
    def dsdv(u, v_th):
        return spike_partials(np.array(u), v_th, 0.3, False)[0]

    assert dsdv(1.0, 1.0) == 0.3
    assert dsdv(0.0, 1.0) == 0.0
    assert dsdv(1.5, 1.0) == pytest.approx(0.15)
    # the negative threshold's component falls as V rises
    assert dsdv(-2.0, -2.0) == pytest.approx(-0.15)
    assert dsdv(0.5, -2.0) == 0.0


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_hard_theta_partial_is_the_negated_slope(dtype):
    """Hard, the theta-partial is minus spike_slope and keeps the bits of
    the conventional -(gamma/theta) * tri, at both threshold signs."""
    rng = np.random.default_rng(0)
    V = rng.uniform(-5, 5, (64, 7)).astype(dtype)
    for theta in (rng.uniform(0.5, 3, 7), rng.uniform(-3, -0.5, 7)):
        theta, gamma = theta.astype(dtype), dtype(0.3)
        tri = np.maximum(0.0, 1.0 - np.abs(V / theta - 1.0))
        dsdv, dsdth = spike_partials(V, theta, gamma, False)
        assert dsdv.tobytes() == spike_slope(V, theta, gamma).tobytes()
        assert dsdth.tobytes() == (-(gamma / theta) * tri).tobytes()
        assert dsdth.dtype == dtype and dsdv.any()


def test_engines_and_oracle_share_one_spike_rule():
    assert snn.spike is spike and verify.spike is spike
    assert train.spike_partials is spike_partials and verify.spike_partials is spike_partials


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("theta", [1.0, 0.3, 2.5])
def test_hard_spike_ties_match_step_neurons(dtype, theta):
    """The engine's V/theta > 1 decides like the cells' u > theta_pos and
    u < theta_neg at each threshold and one ulp either side."""
    th_pos = dtype(theta)
    th_neg = dtype(-theta / 2)
    params = LIFGateParams(leak=1.0, threshold_pos=np.array([th_pos]),
                           threshold_neg=np.array([th_neg]), mem_init=0.0)
    for th in (th_pos, th_neg):
        V = np.array([np.nextafter(th, -np.inf, dtype=dtype), th,
                      np.nextafter(th, np.inf, dtype=dtype)], dtype=dtype)
        pos = spike(V, np.full(3, th_pos), 0.3, False)
        neg = spike(V, np.full(3, th_neg), 0.3, False)
        assert pos.dtype == dtype
        binary = step_sigmoid_neuron(NeuronState(np.zeros(3, dtype=dtype)), V, params)
        ternary = step_tanh_neuron(NeuronState(np.zeros(3, dtype=dtype)), V, params)
        np.testing.assert_array_equal(pos, binary)
        np.testing.assert_array_equal(pos - neg, ternary)
        crossed = pos if th > 0 else neg
        np.testing.assert_array_equal(crossed, [0.0, 0.0, 1.0] if th > 0 else [1.0, 0.0, 0.0])


def test_optimal_shift_examples():
    assert optimal_shift(4.0, 2) == 1.0
    assert optimal_shift(-2.0, 4) == -0.25
    assert optimal_shift(3.0, 3000) == pytest.approx(0.0005)
