import dataclasses
import json

import numpy as np
import pytest

from spikelstm.energy import (LayerOps, LayerSpikeStats, OpCountReport, SpikeStats,
                              audit_multiplier_free, count_ops_ann, count_ops_snn,
                              estimate_energy)
from spikelstm.errors import MultiplierAuditError, ValidationError
from spikelstm.lstm import AnnLSTM
from spikelstm.snn import ConversionPlan, snn_batch_forward, snn_forward

from conftest import random_snn


def test_ann_counts_hand_example():
    model = AnnLSTM.random(1, [1], [2], np.random.default_rng(0))
    report = count_ops_ann(model, 1)
    layer = report.layers[0]
    assert layer.macs == 8          # 4 gates x (1 input + 1 recurrent)
    assert layer.multiplies == 3    # f*c, i*g, o*tanh_c
    assert layer.accumulates == 1
    assert layer.activations == 5


def test_ann_counts_linear_in_n():
    model = AnnLSTM.random(3, [4], [2], np.random.default_rng(0))
    r1 = count_ops_ann(model, 1)
    r5 = count_ops_ann(model, 5)
    for field in ("macs", "multiplies", "accumulates", "activations"):
        assert getattr(r5.layers[0], field) == 5 * getattr(r1.layers[0], field)
    assert r5.head_macs == r1.head_macs  # head runs once per sequence


def test_recurrent_macs_quadruple_when_hidden_doubles():
    m1 = AnnLSTM.random(3, [4], [2], np.random.default_rng(0))
    m2 = AnnLSTM.random(3, [8], [2], np.random.default_rng(0))
    rec1 = 4 * 4 * 4  # 4 gates x h x h
    rec2 = 4 * 8 * 8
    assert rec2 == 4 * rec1
    assert count_ops_ann(m2, 1).layers[0].macs - 4 * 8 * 3 == rec2
    assert count_ops_ann(m1, 1).layers[0].macs - 4 * 4 * 3 == rec1


def _stats(units=32, fan_in=4, input_nnz=0, hidden_total=0, n=1, T=1,
           encoding="poisson", analog=False, layers=1):
    """One-sample stats whose counts all fall on (n, tau) = (1, 1)."""
    def counts(total):
        arr = np.zeros((1, n, T), dtype=np.int64)
        arr[0, 0, 0] = total
        return arr
    layer = LayerSpikeStats(units=units, fan_in=fan_in, input_analog=analog,
                            input_nnz=counts(input_nnz), hidden_nnz=counts(hidden_total),
                            gate_spikes={"f": np.zeros(1, dtype=np.int64)})
    return SpikeStats(layers=[layer] * layers, encoding=encoding)


def test_snn_single_spike_fanout():
    """One spiking input into a 32-unit cell: fan-out 4*32 = 128 ACs."""
    rng = np.random.default_rng(0)
    model = random_snn(4, [32], [2], rng, encoding="poisson", time_steps=1)
    report = count_ops_snn(_stats(input_nnz=1), model)
    assert report.layers[0].accumulates == 128
    assert report.layers[0].macs == 0


def test_snn_zero_spikes_keeps_comparisons():
    rng = np.random.default_rng(0)
    model = random_snn(4, [32], [2], rng, encoding="poisson", time_steps=1)
    report = count_ops_snn(_stats(), model)
    assert report.layers[0].accumulates == 0
    # f+o+i sigmoid (1 each) + g,c ternary (2 each)... plan 'i' spiking set is f,g,o,c:
    # 1+1+2+2 = 6 threshold compares plus 3 selects, per unit per step
    assert report.layers[0].comparisons == (6 + 3) * 32
    assert report.layers[0].leak_multiplies == 0


def test_snn_stats_model_mismatch_rejected():
    rng = np.random.default_rng(0)
    model = random_snn(4, [32], [2], rng, encoding="poisson", time_steps=2)
    with pytest.raises(ValidationError):
        count_ops_snn(_stats(layers=2), model)
    with pytest.raises(ValidationError):
        count_ops_snn(_stats(units=16), model)
    report = count_ops_snn(_stats(n=3, T=2, encoding="direct", analog=True), model)
    assert (report.n_elements, report.time_steps, report.encoding) == (3, 2, "direct")


def _per_sample(value, b):
    return value[b] if np.ndim(value) else value


@pytest.mark.parametrize("encoding", ["direct", "poisson"])
def test_batched_counts_equal_streamed_reports(encoding):
    """One count over a batch's stats gives, sample by sample and field by
    field, the report snn_forward gives that sample alone: two layers, a
    leak != 1, sample b streamed as sample first_index + b. Its per-sample
    accumulates equal a tally of the taped spikes, each nonzero input
    fanning out to the 4H gate inputs."""
    rng = np.random.default_rng(9)
    model = random_snn(3, [5, 4], [2], rng, plan=ConversionPlan("g"), time_steps=3,
                       encoding=encoding, scale=2.0)
    for cell in model.cells:  # open f/i/o so the top layer spikes
        for gate in ("f", "i", "o"):
            cell.weights.b[gate] += 3.0
    model.cells[1].gate_params["f"].leak = np.full(4, 0.9)
    X = rng.random((7, 6, 3))
    _, tapes, aux = snn_batch_forward(model, X, 3, encoding, seed=4, first_index=2,
                                      want_tapes=True)
    batched = count_ops_snn(aux["stats"], model)
    fed = np.count_nonzero(aux["encoded"], axis=(1, 2, 3)) if encoding == "poisson" else 0
    for layer, tape in zip(batched.layers, tapes):  # tape.H: [N, T, B, H]
        recurrent = np.count_nonzero(tape.H[:-1], axis=(0, 1, 3))
        np.testing.assert_array_equal(layer.recurrent_accumulates, 4 * layer.hidden * recurrent)
        np.testing.assert_array_equal(layer.accumulates, 4 * layer.hidden * (fed + recurrent))
        fed = np.count_nonzero(tape.H, axis=(0, 1, 3))
    np.testing.assert_array_equal(batched.head_accumulates,
                                  np.count_nonzero(tapes[-1].H[-1], axis=(0, 2)))
    audit_multiplier_free(batched)
    assert batched.layers[1].leak_multiplies > 0
    assert batched.accumulates.shape == (7,) and len(set(batched.accumulates.tolist())) > 1
    assert len(set(batched.head_accumulates.tolist())) > 1
    batched_energy = estimate_energy(batched)
    for b in range(len(X)):
        _, _, alone = snn_forward(model, X[b], rng_seed=4, first_index=2 + b)
        for ours, theirs in zip(batched.layers, alone.layers, strict=True):
            for f in dataclasses.fields(LayerOps):
                assert _per_sample(getattr(ours, f.name), b) == getattr(theirs, f.name), f.name
        for name in ("n_elements", "time_steps", "encoding", "head_macs", "head_accumulates",
                     "macs", "multiplies", "accumulates", "comparisons", "activations",
                     "leak_multiplies", "total_flops"):
            assert _per_sample(getattr(batched, name), b) == getattr(alone, name), name
        energy = estimate_energy(alone)
        for part in ("digital", "neuromorphic"):
            for key, value in energy[part].items():
                assert _per_sample(batched_energy[part][key], b) == value, (part, key)


def test_streamed_counts_are_plain_ints():
    """snn_forward's report holds Python ints in every count field, so
    callers can add them into JSON-bound dicts."""
    rng = np.random.default_rng(10)
    model = random_snn(3, [5, 4], [2], rng, time_steps=2, scale=2.0)
    _, _, ops = snn_forward(model, rng.random((4, 3)))
    for report in (ops, *ops.layers):
        for f in dataclasses.fields(report):
            if f.name not in ("layers", "encoding"):
                assert type(getattr(report, f.name)) is int, f.name
    for name in ("macs", "multiplies", "accumulates", "comparisons", "activations",
                 "leak_multiplies", "total_flops"):
        assert type(getattr(ops, name)) is int, name
    json.dumps(dataclasses.asdict(ops))


def test_poisson_input_acs_match_rate():
    """Expected input ACs = rate * F * fanout * T, within 4-sigma CLT bounds."""
    rng = np.random.default_rng(1)
    feats, hidden, T, n = 8, 16, 64, 8
    model = random_snn(feats, [hidden], [2], rng, encoding="poisson",
                       time_steps=T, scale=0.01)
    rate = 0.35
    seq = np.full((n, feats), rate)
    _, stats, report = snn_forward(model, seq, rng_seed=5)
    draws = n * T * feats
    expected = rate * draws
    sigma = np.sqrt(draws * rate * (1 - rate))
    assert abs(stats.layers[0].input_nnz.sum() - expected) < 4 * sigma
    assert report.layers[0].accumulates >= stats.layers[0].input_nnz.sum() * 4 * hidden


def test_energy_fixture_values():
    report = OpCountReport(
        layers=[LayerOps(hidden=1, fan_in=1, accumulates=1000)],
        n_elements=1, time_steps=4, encoding="poisson")
    energy = estimate_energy(report)
    assert energy["neuromorphic"]["truenorth"] == pytest.approx(402.4)
    assert energy["neuromorphic"]["spinnaker"] == pytest.approx(641.44)


def test_zero_counts_zero_digital_energy():
    report = OpCountReport(layers=[LayerOps(hidden=1, fan_in=1)],
                           n_elements=1, time_steps=4, encoding="poisson")
    assert estimate_energy(report)["digital"]["total"] == 0.0


def test_energy_monotone_in_spike_rate():
    rng = np.random.default_rng(0)
    model = random_snn(4, [8], [2], rng, encoding="poisson", time_steps=2)
    quiet = count_ops_snn(_stats(units=8, input_nnz=3, hidden_total=2, n=2, T=2), model)
    busy = count_ops_snn(_stats(units=8, input_nnz=30, hidden_total=9, n=2, T=2), model)
    assert (estimate_energy(busy)["digital"]["total"]
            >= estimate_energy(quiet)["digital"]["total"])


def test_audit_passes_for_both_plans_and_catches_violations():
    rng = np.random.default_rng(3)
    for plan in ("i", "g"):
        model = random_snn(3, [4], [2], rng, plan=ConversionPlan(plan),
                           time_steps=2, scale=1.5)
        seq = rng.random((5, 3))
        _, _, report = snn_forward(model, seq)
        audit_multiplier_free(report)

    bad = OpCountReport(layers=[LayerOps(hidden=1, fan_in=1, multiplies=1)],
                        n_elements=1, time_steps=1, encoding="direct")
    with pytest.raises(MultiplierAuditError):
        audit_multiplier_free(bad)
    bad2 = OpCountReport(layers=[LayerOps(hidden=1, fan_in=1, macs=1)],
                         n_elements=1, time_steps=1, encoding="poisson")
    with pytest.raises(MultiplierAuditError):
        audit_multiplier_free(bad2)


def test_audit_names_layer_and_first_offending_sample():
    clean = LayerOps(hidden=1, fan_in=1, accumulates=np.array([4, 5, 6, 7]))
    bad = LayerOps(hidden=1, fan_in=1, multiplies=np.array([0, 0, 3, 0]))
    report = OpCountReport(layers=[clean, bad], n_elements=1, time_steps=1, encoding="direct")
    with pytest.raises(MultiplierAuditError,
                       match=r"^layer 1, sample 2, reports 3 datapath multiplies$"):
        audit_multiplier_free(report)
    bad.multiplies = np.array([0, 4, 0, 5])
    with pytest.raises(MultiplierAuditError, match=r"^layer 1, sample 1, reports 4 datapath"):
        audit_multiplier_free(report)


def test_leak_multiplies_flagged_separately():
    rng = np.random.default_rng(0)
    model = random_snn(4, [8], [2], rng, encoding="poisson", time_steps=2)
    model.cells[0].gate_params["f"].leak = np.full(8, 0.9)
    report = count_ops_snn(_stats(units=8, T=2, n=3), model)
    assert report.layers[0].leak_multiplies == 8 * 3 * 2
    assert report.layers[0].multiplies == 0
    audit_multiplier_free(report)


def test_two_layer_counts_are_additive():
    rng = np.random.default_rng(6)
    m2 = random_snn(3, [4, 4], [2], rng, time_steps=2, scale=1.5)
    seq = rng.random((5, 3))
    _, _, report = snn_forward(m2, seq)
    assert report.accumulates == (sum(l.accumulates for l in report.layers)
                                  + report.head_accumulates)
    assert report.total_flops == (report.macs + report.multiplies + report.accumulates
                                  + report.comparisons + report.activations
                                  + report.leak_multiplies)
