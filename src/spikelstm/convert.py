"""ANN-to-SNN conversion: copy weights verbatim, set thresholds from the
hard-activation scales, install per-step biases and shift-as-init membrane
initializations, start all leaks at 1 (IF)."""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, ValidationError
from .lstm import AnnLSTM, ann_batch_forward
from .snn import (ConversionPlan, SpikingLSTM, SpikingLSTMCell, default_gate_params,
                  snn_batch_forward)
from .train import EVAL_CHUNK


def convert(ann_model: AnnLSTM, T: int, plan: ConversionPlan | None = None,
            shift: bool = True, surrogate_gamma: float = 0.3,
            encoding: str = "direct") -> SpikingLSTM:
    """Map a trained hard-activation LSTM to a spiking LSTM.

    Weights and gate biases are copied verbatim (exactly, bit for bit).
    LIF fields are built at the weights' dtype. Thresholds come from the
    activation scales the ANN was trained with:
    they are the zero-error thresholds in the infinite-T limit. Applied to
    an untrained AnnLSTM.random it builds the no-pretraining start.
    """
    plan = plan or ConversionPlan()
    cells = []
    for weights in ann_model.layers:
        cells.append(SpikingLSTMCell(
            weights=weights.copy(),
            gate_params=default_gate_params(plan, ann_model.act, weights.hidden_dim,
                                            shift=shift, surrogate_gamma=surrogate_gamma,
                                            dtype=weights.dtype),
            plan=plan,
            act=ann_model.act,
        ))
    return SpikingLSTM(cells=cells, head=ann_model.head.copy(), time_steps=T, encoding=encoding)


REPORT_GATES = ("f", "i", "g", "o", "c")


def conversion_error_report(ann_model: AnnLSTM, snn_model: SpikingLSTM,
                            probe_inputs, T: int, rng_seed: int = 0) -> list:
    """Mean absolute error between SNN gate rates and ANN gate values, per
    gate per layer, averaged over the probe set.

    ANN gate values (and the cell-output tanh under 'c') come from
    ann_batch_forward; SNN values are per-element spike rates of the
    spiking gates and time-averaged values of the analog gate, replayed
    from the tapes of snn_batch_forward; both run over chunks of
    EVAL_CHUNK probes. A layer's tape replays its spikes and analog
    activation (no Upre) in passes of tape.replay_span() elements, as
    snn_backward does, so the replay holds a few cache-sized chunks, not
    lattices. Each pass takes the means over T of the four neurons' emitted
    spikes (S_pos less S_neg on the ternary slots) and of the analog
    activation into one [5, N, P, H] rate array, and each (layer, gate) then
    takes one sum of absolute errors, as over a whole-lattice replay: no bit
    moves.

    Returns a list of rows: {"layer": idx, "gate": name, "mae": float}.
    """
    if ann_model.hidden_dims != snn_model.hidden_dims:
        raise DimensionMismatch("models must share layer dimensions")
    try:
        X = np.asarray(probe_inputs)  # [P, N, F]
    except ValueError as err:
        raise ValidationError(f"probe sequences must share one [N, F] shape ({err})") from None
    sums = {}  # (layer, gate) -> each chunk's sum of absolute errors
    for lo in range(0, max(len(X), 1), EVAL_CHUNK):  # no probes fail in the forwards
        xb = X[lo:lo + EVAL_CHUNK]
        _, ann_caches = ann_batch_forward(ann_model, xb, want_caches=True)
        _, tapes, _ = snn_batch_forward(snn_model, xb, T, snn_model.encoding, rng_seed,
                                        want_tapes=True, first_index=lo)
        for li, (cache, tape) in enumerate(zip(ann_caches["layers"], tapes)):
            plan = snn_model.cells[li].plan
            ann_gates = dict(zip(REPORT_GATES, (np.stack(v) for v in zip(*cache["gates"]))))
            n_elements, _, n_probes, hidden = tape.H.shape
            rates = np.empty((5, n_elements, n_probes, hidden), tape.H.dtype)
            span = tape.replay_span()
            for first in range(0, n_elements, span):
                elements = slice(first, first + span)
                r = tape.replay(elements)
                emitted, S_neg = r["S_pos"], r["S_neg"]  # the spikes each neuron emits
                emitted[-len(S_neg):] -= S_neg
                emitted.mean(axis=2, out=rates[:4, elements])  # [4, n, P, H]
                r["A_analog"].mean(axis=1, out=rates[4, elements])
            rates = dict(zip(plan.bank_gates + (plan.analog_gate,), rates))
            for a in REPORT_GATES:
                sums.setdefault((li, a), []).append(np.abs(ann_gates[a] - rates[a]).sum())
    # a mean is its sum over the count, so one chunk gives mean()'s bits
    return [{"layer": li, "gate": a,
             "mae": float(sum(parts) / (X.shape[0] * X.shape[1] * snn_model.hidden_dims[li]))}
            for (li, a), parts in sums.items()]
