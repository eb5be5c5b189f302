import numpy as np
import pytest

from spikelstm.activations import HardActConfig
from spikelstm.checkpoint import load_model, save_model
from spikelstm.convert import convert
from spikelstm.errors import CheckpointFormatError
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
