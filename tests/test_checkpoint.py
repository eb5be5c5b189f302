import struct

import numpy as np
import pytest

from spikelstm.activations import HardActConfig
from spikelstm.checkpoint import load_model, save_model
from spikelstm.convert import convert
from spikelstm.errors import CheckpointFormatError, ValidationError
from spikelstm.lstm import AnnLSTM
from spikelstm.snn import ConversionPlan, SpikingLSTM
from spikelstm.train import model_parameters


def _assert_params_bit_equal(a, b):
    pa, pb = model_parameters(a), model_parameters(b)
    assert pa.keys() == pb.keys()
    for name in pa:
        assert np.array_equal(pa[name], pb[name]), name


def test_ann_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    model = AnnLSTM.random(3, [4, 2], [3, 2], rng, scale=0.9)
    path = tmp_path / "ann.ckpt"
    save_model(model, path)
    loaded = load_model(path)
    assert isinstance(loaded, AnnLSTM)
    assert loaded.act == model.act
    _assert_params_bit_equal(model, loaded)


@pytest.mark.parametrize("plan", ["i", "g"])
@pytest.mark.parametrize("encoding", ["direct", "poisson"])
def test_snn_round_trip_bit_exact(tmp_path, plan, encoding):
    rng = np.random.default_rng(1)
    ann = AnnLSTM.random(3, [4], [2], rng, scale=0.9)
    model = convert(ann, T=6, plan=ConversionPlan(plan), encoding=encoding)
    # perturb LIF params so the round trip carries non-default values
    model.cells[0].gate_params["f"].leak = rng.uniform(0.8, 1.2, 4)
    model.cells[0].gate_params["c"].threshold_neg = -rng.uniform(1.0, 3.0, 4)
    path = tmp_path / "snn.ckpt"
    save_model(model, path)
    loaded = load_model(path)
    assert isinstance(loaded, SpikingLSTM)
    assert loaded.time_steps == 6
    assert loaded.encoding == encoding
    assert loaded.plan.analog_gate == plan
    _assert_params_bit_equal(model, loaded)
    # byte-identical re-serialization
    path2 = tmp_path / "snn2.ckpt"
    save_model(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()


@pytest.mark.parametrize("plan", ["i", "g"])
def test_converted_stack_round_trip_bit_exact(tmp_path, plan):
    """Every layer of a loaded two-layer model carries the saved plan and
    scales, and re-saving it gives the same bytes."""
    act = HardActConfig(v_sig=3.0, v_tanh_pos=2.5, v_tanh_neg=-1.5)
    ann = AnnLSTM.random(3, [4, 5], [2], np.random.default_rng(4), act=act, scale=0.9)
    model = convert(ann, T=3, plan=ConversionPlan(plan))
    save_model(model, tmp_path / "snn.ckpt")
    loaded = load_model(tmp_path / "snn.ckpt")
    assert [(c.plan, c.act) for c in loaded.cells] == [(ConversionPlan(plan), act)] * 2
    _assert_params_bit_equal(model, loaded)
    save_model(loaded, tmp_path / "again.ckpt")
    assert (tmp_path / "snn.ckpt").read_bytes() == (tmp_path / "again.ckpt").read_bytes()


def _documented_bytes(model) -> bytes:
    """SLSTM1 bytes as the checkpoint module's docstring lays them out."""
    def f64(arr):
        return struct.pack(f"<{np.size(arr)}d", *np.ravel(arr))

    snn = isinstance(model, SpikingLSTM)
    layers = [c.weights for c in model.cells] if snn else model.layers
    head, act = model.head.weights, model.act
    out = b"SLSTM1" + struct.pack("<BBBB", 1, int(snn), int(snn and model.encoding == "poisson"),
                                  int(snn and model.plan.analog_gate == "g"))
    out += struct.pack("<III", model.time_steps if snn else 0, len(layers), layers[0].input_dim)
    out += struct.pack(f"<{len(layers)}I", *(w.hidden_dim for w in layers))
    out += struct.pack(f"<I{len(head)}I", len(head), *(W.shape[0] for W, _ in head))
    out += struct.pack("<ddd", act.v_sig, act.v_tanh_pos, act.v_tanh_neg)
    for w in layers:
        for a in ("f", "i", "g", "o"):
            out += f64(w.w_x[a]) + f64(w.w_h[a]) + f64(w.b[a])
    for W, b in head:
        out += f64(W) + f64(b)
    for cell in model.cells if snn else []:
        spiking = "g" if cell.plan.analog_gate == "i" else "i"
        for gate in ("f", spiking, "o", "c"):
            p = cell.gate_params[gate]
            out += f64(p.leak) + f64(p.threshold_pos)
            out += f64(p.threshold_neg) if gate in ("g", "c") else b""
            out += f64(p.step_bias) + f64(p.mem_init) + struct.pack("<d", p.surrogate_gamma)
    return out


@pytest.mark.parametrize("kind", ["ann", "snn-i", "snn-g"])
def test_file_layout_is_the_documented_one(tmp_path, kind):
    """save_model writes exactly the documented layout: an ANN with a
    two-layer head, and a converted two-layer SNN under either plan whose
    LIF fields differ per gate, field and unit."""
    rng = np.random.default_rng(6)
    act = HardActConfig(v_sig=3.0, v_tanh_pos=2.5, v_tanh_neg=-1.5)
    model = AnnLSTM.random(3, [4, 5], [6, 2], rng, act=act, scale=0.9)
    if kind != "ann":
        model = convert(model, T=3, plan=ConversionPlan(kind[-1]), encoding="poisson",
                        surrogate_gamma=0.4)
        for cell in model.cells:
            for p in cell.gate_params.values():
                h = cell.hidden_dim
                p.leak, p.threshold_pos = rng.uniform(0.5, 1.0, h), rng.uniform(1.0, 2.0, h)
                p.step_bias, p.mem_init = rng.normal(size=h), rng.normal(size=h)
                if p.threshold_neg is not None:
                    p.threshold_neg = -rng.uniform(1.0, 2.0, h)
    save_model(model, tmp_path / "model.ckpt")
    assert (tmp_path / "model.ckpt").read_bytes() == _documented_bytes(model)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"NOTSLSTM" + b"\x00" * 64)
    with pytest.raises(CheckpointFormatError, match="not an SLSTM1"):
        load_model(path)


def test_truncation_rejected(tmp_path):
    rng = np.random.default_rng(2)
    model = AnnLSTM.random(2, [3], [2], rng)
    path = tmp_path / "full.ckpt"
    save_model(model, path)
    clipped = tmp_path / "clipped.ckpt"
    clipped.write_bytes(path.read_bytes()[:-16])
    with pytest.raises(CheckpointFormatError, match="truncated"):
        load_model(clipped)


def test_trailing_bytes_rejected(tmp_path):
    rng = np.random.default_rng(2)
    model = AnnLSTM.random(2, [3], [2], rng)
    path = tmp_path / "full.ckpt"
    save_model(model, path)
    padded = tmp_path / "padded.ckpt"
    padded.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(CheckpointFormatError, match="trailing"):
        load_model(padded)


@pytest.mark.parametrize("gate, name, value", [("f", "leak", -0.5), ("c", "threshold_pos", 0.0),
                                               ("g", "threshold_neg", 0.5),
                                               ("o", "mem_init", np.nan),
                                               ("c", "step_bias", np.inf)])
def test_save_model_refuses_a_lif_field_outside_its_domain(tmp_path, gate, name, value):
    """A LIF field rebound after construction to a value that load_model
    would refuse (a non-positive leak or threshold_pos, a non-negative
    threshold_neg, a non-finite value) makes save_model raise
    ValidationError naming the field before the file opens."""
    ann = AnnLSTM.random(3, [4, 4], [3], np.random.default_rng(0))
    model = convert(ann, T=2, plan=ConversionPlan("i"))
    setattr(model.cells[1].gate_params[gate], name, np.full(4, value))
    path = tmp_path / "model.ckpt"
    with pytest.raises(ValidationError, match=f"{name} must be"):
        save_model(model, str(path))
    assert not path.exists()
