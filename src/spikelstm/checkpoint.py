"""SLSTM1 model container: bit-exact binary round trip for both model kinds.

Layout (little-endian throughout, float64 blocks):

    bytes 0-5   magic b"SLSTM1"
    u8          format version (1)
    u8          kind: 0 ann, 1 snn
    u8          encoding: 0 direct, 1 poisson
    u8          analog gate: 0 i, 1 g
    u32         time steps (0 for ann)
    u32         layer count L
    u32         input dim
    u32 * L     hidden dims
    u32         head layer count
    u32 * Hl    head output dims
    f64 * 3     v_sig, v_tanh_pos, v_tanh_neg
    per layer, gate order f,i,g,o: w_x [H*in], w_h [H*H], b [H]
    per head layer: W [out*in], b [out]
    snn only, per layer, per spiking gate (f, then the spiking one of i/g,
    then o, then c): leak [H], threshold_pos [H], threshold_neg [H]
    (ternary gates only), step_bias [H], mem_init [H], f64 surrogate gamma
"""

from __future__ import annotations

import math
import struct

import numpy as np

from .activations import HardActConfig
from .errors import CheckpointFormatError
from .lstm import GATES, AnnLSTM, ClassifierHead, LSTMWeights
from .neuron import LIF_FIELDS, LIFGateParams
from .snn import ConversionPlan, SpikingLSTM, SpikingLSTMCell

MAGIC = b"SLSTM1"
VERSION = 1


def _f64_block(arr) -> bytes:
    return np.ascontiguousarray(arr, dtype="<f8").tobytes()


def _read(fh, n, what):
    data = fh.read(n)
    if len(data) != n:
        raise CheckpointFormatError(f"truncated checkpoint while reading {what}")
    return data


def _read_f64(fh, shape, what) -> np.ndarray:
    raw = _read(fh, 8 * math.prod(shape), what)
    return np.frombuffer(raw, dtype="<f8").reshape(shape).copy()


def save_model(model, path: str) -> None:
    is_snn = isinstance(model, SpikingLSTM)
    if is_snn:
        for cell in model.cells:  # fields may be rebound after construction: check first
            cell.check_gate_params()
            for params in cell.gate_params.values():  # rebuilt, so its domain checks run again
                LIFGateParams(**vars(params))
        layers = [c.weights for c in model.cells]
        encoding = 1 if model.encoding == "poisson" else 0
        analog = 1 if model.plan.analog_gate == "g" else 0
        time_steps = model.time_steps
    else:
        layers, encoding, analog, time_steps = model.layers, 0, 0, 0
    act = model.act
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<BBBB", VERSION, 1 if is_snn else 0, encoding, analog))
        fh.write(struct.pack("<III", time_steps, len(layers), layers[0].input_dim))
        for w in layers:
            fh.write(struct.pack("<I", w.hidden_dim))
        fh.write(struct.pack("<I", len(model.head.weights)))
        for W, _ in model.head.weights:
            fh.write(struct.pack("<I", W.shape[0]))
        fh.write(struct.pack("<ddd", act.v_sig, act.v_tanh_pos, act.v_tanh_neg))
        for w in layers:
            for a in GATES:
                fh.write(_f64_block(w.w_x[a]))
                fh.write(_f64_block(w.w_h[a]))
                fh.write(_f64_block(w.b[a]))
        for W, b in model.head.weights:
            fh.write(_f64_block(W))
            fh.write(_f64_block(b))
        if is_snn:
            for cell in model.cells:
                for gate in cell.plan.spiking_gates:
                    p = cell.gate_params[gate]
                    for value in (getattr(p, name) for name in LIF_FIELDS):
                        if value is not None:  # threshold_neg: ternary gates only
                            fh.write(_f64_block(value))
                    fh.write(struct.pack("<d", p.surrogate_gamma))


def load_model(path: str):
    with open(path, "rb") as fh:
        if _read(fh, 6, "magic") != MAGIC:
            raise CheckpointFormatError(f"{path}: not an SLSTM1 checkpoint")
        version, kind, encoding, analog = struct.unpack("<BBBB", _read(fh, 4, "flags"))
        if version != VERSION:
            raise CheckpointFormatError(f"{path}: unsupported format version {version}")
        if kind not in (0, 1):
            raise CheckpointFormatError(f"{path}: unknown model kind {kind}")
        time_steps, n_layers, input_dim = struct.unpack("<III", _read(fh, 12, "dims"))
        hidden = [struct.unpack("<I", _read(fh, 4, "hidden dim"))[0] for _ in range(n_layers)]
        n_head = struct.unpack("<I", _read(fh, 4, "head count"))[0]
        head_dims = [struct.unpack("<I", _read(fh, 4, "head dim"))[0] for _ in range(n_head)]
        v_sig, v_tanh_pos, v_tanh_neg = struct.unpack("<ddd", _read(fh, 24, "activation scales"))
        act = HardActConfig(v_sig=v_sig, v_tanh_pos=v_tanh_pos, v_tanh_neg=v_tanh_neg)
        weights = []
        d = input_dim
        for h in hidden:
            w_x, w_h, b = {}, {}, {}
            for a in GATES:
                w_x[a] = _read_f64(fh, (h, d), f"w_x.{a}")
                w_h[a] = _read_f64(fh, (h, h), f"w_h.{a}")
                b[a] = _read_f64(fh, (h,), f"b.{a}")
            weights.append(LSTMWeights(w_x=w_x, w_h=w_h, b=b))
            d = h
        head_pairs = []
        for out in head_dims:
            head_pairs.append([_read_f64(fh, (out, d), "head W"), _read_f64(fh, (out,), "head b")])
            d = out
        head = ClassifierHead(head_pairs)
        if kind == 0:
            model = AnnLSTM(layers=weights, head=head, act=act)
        else:
            plan = ConversionPlan("g" if analog == 1 else "i")
            cells = []
            for w in weights:
                h = w.hidden_dim
                gate_params = {}
                for gate in plan.spiking_gates:
                    fields = {name: _read_f64(fh, (h,), f"lif.{gate}.{name}")
                              for name in LIF_FIELDS
                              if name != "threshold_neg" or gate in ("g", "c")}
                    gamma = struct.unpack("<d", _read(fh, 8, f"lif.{gate}.gamma"))[0]
                    gate_params[gate] = LIFGateParams(**fields, surrogate_gamma=gamma)
                cells.append(SpikingLSTMCell(weights=w, gate_params=gate_params,
                                             plan=plan, act=act))
            model = SpikingLSTM(cells=cells, head=head, time_steps=time_steps,
                                encoding="poisson" if encoding == 1 else "direct")
        if fh.read(1):
            raise CheckpointFormatError(f"{path}: trailing bytes after model payload")
    return model
