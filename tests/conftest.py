import numpy as np
import pytest

from spikelstm.activations import HardActConfig
from spikelstm.convert import convert
from spikelstm.data import synthetic_task, split_dataset
from spikelstm.lstm import AnnLSTM, LSTMWeights
from spikelstm.snn import ConversionPlan, SpikingLSTMCell, default_gate_params


def zero_weights(input_dim: int, hidden_dim: int) -> LSTMWeights:
    return LSTMWeights(
        w_x={a: np.zeros((hidden_dim, input_dim)) for a in "figo"},
        w_h={a: np.zeros((hidden_dim, hidden_dim)) for a in "figo"},
        b={a: np.zeros(hidden_dim) for a in "figo"},
    )


def one_unit_cell(plan="i", shift=False, act=None, w_fx=0.0):
    """1-unit spiking cell with converted-default LIF params."""
    act = act or HardActConfig()
    w = zero_weights(1, 1)
    w.w_x["f"][0, 0] = w_fx
    plan = ConversionPlan(plan)
    return SpikingLSTMCell(weights=w, gate_params=default_gate_params(plan, act, 1, shift=shift),
                           plan=plan, act=act)


def random_snn(input_dim, hidden_dims, head_dims, rng, time_steps=2, scale=0.1, **convert_args):
    """The no-pretraining start: the conversion of a random ANN."""
    ann = AnnLSTM.random(input_dim, hidden_dims, head_dims, rng, scale=scale)
    return convert(ann, T=time_steps, **convert_args)


def flat_replay(replayed: dict, bank_gates) -> dict:
    """A tape.replay() result by (name, gate), its slots read through the
    four plan.bank_gates: S_pos and Upre per gate, S_neg per ternary gate
    (the last ones), and A_analog under gate None."""
    out = {("A_analog", None): replayed["A_analog"]}
    for name in ("S_pos", "Upre"):
        if name in replayed:
            out.update({(name, g): a for g, a in zip(bank_gates, replayed[name])})
    S_neg = replayed["S_neg"]
    out.update({("S_neg", g): a for g, a in zip(bank_gates[-len(S_neg):], S_neg)})
    return out


def tape_arrays(tape) -> dict:
    """A taped layer's recorded lattices (V of all four slots under "V")
    and its whole-lattice replay with Upre, by (name, gate)."""
    return {**tape.lattices, **flat_replay(tape.replay(upre=True), tape.pack.bank_gates)}


@pytest.fixture(scope="session")
def planted_splits():
    ds = synthetic_task("planted-pattern", 600, seed=1, noise=0.5)
    return split_dataset(ds, 0.15, 0.15, seed=0)


@pytest.fixture()
def tiny_ann():
    rng = np.random.default_rng(3)
    return AnnLSTM.random(2, [3], [2], rng, scale=0.8)
