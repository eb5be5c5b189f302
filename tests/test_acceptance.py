"""Acceptance criteria, one test per criterion, each printing a status line.

Run with `pytest tests/test_acceptance.py -v -s`. The T-MNIST criteria
need the official IDX files under $SPIKELSTM_DATA_ROOT/mnist and skip
with a precise reason when absent; the 4-hour full-training variant
additionally requires RUN_FULL_TMNIST=1.
"""

import os
import time

import numpy as np
import pytest

from spikelstm.convert import convert, conversion_error_report
from spikelstm.data import (SequenceDataset, load_feature_tensor, load_tmnist,
                            save_feature_tensor, split_dataset, synthetic_task)
from spikelstm.energy import (LayerOps, OpCountReport, audit_multiplier_free, count_ops_ann,
                              estimate_energy)
from spikelstm.lstm import AnnLSTM
from spikelstm.pipeline import build_schedule, latency_report
from spikelstm.snn import ConversionPlan, snn_forward
from spikelstm.train import TrainConfig, TrainMask, evaluate, fit
from spikelstm.verify import (check_ann_gradients, check_if_oracle, check_lif_oracle,
                              check_pipeline_equivalence, check_shift_optimality,
                              check_snn_gradients)

from conftest import random_snn

MNIST_DIR = os.path.join(os.environ.get("SPIKELSTM_DATA_ROOT", ""), "mnist")
HAVE_MNIST = os.path.exists(os.path.join(MNIST_DIR, "train-images-idx3-ubyte"))
MNIST_SKIP = ("T-MNIST reproduction needs the official MNIST IDX files under "
              "$SPIKELSTM_DATA_ROOT/mnist (this environment has no dataset and no "
              "network access); the pipeline is exercised on synthetic tasks instead")


def report(criterion: int, status: str, detail: str) -> None:
    print(f"\n[criterion {criterion}] {status}: {detail}")


# ---------------------------------------------------------------------------
# shared trained models (synthetic desk-scale pipeline)

@pytest.fixture(scope="module")
def synthetic_pipeline():
    """ANN trained on the planted-pattern task, conversions and fine-tuned
    variants; shared by criteria 7 and 8."""
    ds = synthetic_task("planted-pattern", 600, seed=1, noise=0.5)
    train, val, test = split_dataset(ds, 0.15, 0.15, seed=0)
    tr = (train.sequences, train.labels)
    va = (val.sequences, val.labels)

    ann = AnnLSTM.random(6, [8], [3], np.random.default_rng(0), scale=0.3)
    ann, _ = fit(ann, tr, va, TrainConfig(epochs=10, batch_size=32, lr=1e-2, seed=0))

    full_mask = TrainMask(weights=True, threshold=True, leak=True, mem_init=True,
                          step_bias=True)
    ft_cfg = TrainConfig(epochs=8, batch_size=32, lr=3e-3, seed=0, mask=full_mask)

    snn_p = convert(ann, T=2)
    snn_p, _ = fit(snn_p, tr, va, ft_cfg)

    snn_weights_only = convert(ann, T=2)
    snn_weights_only, _ = fit(snn_weights_only, tr, va,
                              TrainConfig(epochs=8, batch_size=32, lr=3e-3, seed=0,
                                          mask=TrainMask()))

    snn_np = random_snn(6, [8], [3], np.random.default_rng(0), time_steps=2,
                        scale=0.3)
    snn_np, _ = fit(snn_np, tr, va, ft_cfg)

    return {"ann": ann, "train": train, "val": val, "test": test,
            "snn_p": snn_p, "snn_np": snn_np, "snn_weights_only": snn_weights_only}


def test_criterion_1_closed_form_oracles():
    start = time.time()
    if_result = check_if_oracle()
    lif_result = check_lif_oracle()
    elapsed = time.time() - start
    ok = if_result.passed and lif_result.passed and elapsed < 10.0
    report(1, "PASS" if ok else "FAIL",
           f"{if_result.detail}; {lif_result.detail}; {elapsed:.1f}s (budget 10s)")
    assert if_result.passed, if_result.detail
    assert lif_result.passed, lif_result.detail
    assert elapsed < 10.0


def test_criterion_2_shift_optimality():
    start = time.time()
    result = check_shift_optimality()
    elapsed = time.time() - start
    report(2, "PASS" if result.passed and elapsed < 5.0 else "FAIL",
           f"{result.detail}; {elapsed:.1f}s (budget 5s)")
    assert result.passed, result.detail
    assert elapsed < 5.0


def test_criterion_3_gradient_checks():
    start = time.time()
    ann_result = check_ann_gradients(n_models=3, tol=1e-5)
    snn_result = check_snn_gradients(n_models=3, tol=1e-4)
    elapsed = time.time() - start
    ok = ann_result.passed and snn_result.passed and elapsed < 30.0
    report(3, "PASS" if ok else "FAIL",
           f"ann {ann_result.detail}; snn {snn_result.detail}; {elapsed:.1f}s (budget 30s)")
    assert ann_result.passed, ann_result.detail
    assert snn_result.passed, snn_result.detail
    assert elapsed < 30.0


def test_criterion_4_pipeline_equivalence_and_tick_law():
    start = time.time()
    result = check_pipeline_equivalence(n_cases=100)
    tick_ok = all(build_schedule(n, T).total_ticks == n + T - 1
                  for n in range(1, 21) for T in range(1, 11))
    stub = OpCountReport(layers=[LayerOps(hidden=1, fan_in=1, accumulates=15)],
                         n_elements=5, time_steps=3, encoding="poisson")
    prior = latency_report(build_schedule(5, 3), stub, None, "priorwork")
    elapsed = time.time() - start
    ok = result.passed and tick_ok and prior["ticks"] == 15 and elapsed < 30.0
    report(4, "PASS" if ok else "FAIL",
           f"{result.detail}; tick law N+T-1 on 200 pairs; prior-work 5x3 -> "
           f"{prior['ticks']} ticks; {elapsed:.1f}s (budget 30s)")
    assert result.passed, result.detail
    assert tick_ok
    assert prior["ticks"] == 15
    assert elapsed < 30.0


def test_criterion_5_multiplier_audit():
    rng = np.random.default_rng(0)
    audited = 0
    for plan in ("i", "g"):
        for encoding in ("direct", "poisson"):
            model = random_snn(5, [6, 4], [3], rng, plan=ConversionPlan(plan),
                               time_steps=3, encoding=encoding, scale=1.5)
            for k in range(8):
                seq = rng.random((7, 5))
                _, _, ops = snn_forward(model, seq, rng_seed=k)
                audit_multiplier_free(ops)
                assert ops.multiplies == 0
                if encoding == "poisson":
                    assert ops.macs == sum(W.size for W, _ in model.head.weights)
                audited += 1
    report(5, "PASS", f"zero datapath multiplies on {audited} evaluated batches, "
                      f"both analog-gate plans, both encodings")


@pytest.mark.skipif(not HAVE_MNIST, reason=MNIST_SKIP)
def test_criterion_6_tmnist_fast_ci():
    """10k-train subset, LSTM(128), padded 32x32, conversion + fine-tune at
    T=2, >= 95.0% test accuracy inside 30 minutes."""
    start = time.time()
    full = load_tmnist(MNIST_DIR, "train", 32)
    subset = full.subset(np.random.default_rng(0).permutation(len(full))[:10000])
    train, val, _ = split_dataset(subset, 0.1, 0.0, seed=0)
    test = load_tmnist(MNIST_DIR, "test", 32)
    tr = (train.sequences, train.labels)
    va = (val.sequences, val.labels)

    ann = AnnLSTM.random(32, [128], [10], np.random.default_rng(0), scale=0.1)
    ann, _ = fit(ann, tr, va, TrainConfig(epochs=6, batch_size=128, lr=1e-3, seed=0,
                                          precision="f32"))
    snn = convert(ann, T=2)
    mask = TrainMask(weights=True, threshold=True, leak=True, mem_init=True)
    snn, _ = fit(snn, tr, va, TrainConfig(epochs=4, batch_size=128, lr=1e-4, seed=0,
                                          precision="f32", mask=mask))
    _, acc, _ = evaluate(snn, test.sequences, test.labels)
    elapsed = time.time() - start
    ok = acc >= 0.95 and elapsed < 1800
    report(6, "PASS" if ok else "FAIL",
           f"10k-subset T-MNIST: test accuracy {acc:.4f} (gate 0.95) in {elapsed / 60:.1f} min")
    assert acc >= 0.95
    assert elapsed < 1800


@pytest.mark.skipif(not HAVE_MNIST, reason=MNIST_SKIP)
@pytest.mark.skipif(os.environ.get("RUN_FULL_TMNIST") != "1",
                    reason="full 4-hour T-MNIST run only with RUN_FULL_TMNIST=1")
def test_criterion_6_tmnist_full():
    """Full MNIST, LSTM(128), conversion + fine-tune at T=2, >= 97.0% within
    a 4-hour CPU budget (98.1% is a stretch target, not a gate)."""
    start = time.time()
    full = load_tmnist(MNIST_DIR, "train", 32)
    train, val, _ = split_dataset(full, 0.05, 0.0, seed=0)
    test = load_tmnist(MNIST_DIR, "test", 32)
    tr = (train.sequences, train.labels)
    va = (val.sequences, val.labels)
    ann = AnnLSTM.random(32, [128], [10], np.random.default_rng(0), scale=0.1)
    ann, _ = fit(ann, tr, va, TrainConfig(epochs=12, batch_size=128, lr=1e-3, seed=0,
                                          precision="f32", lr_decay_epochs=(8,)))
    snn = convert(ann, T=2)
    mask = TrainMask(weights=True, threshold=True, leak=True, mem_init=True)
    snn, _ = fit(snn, tr, va, TrainConfig(epochs=8, batch_size=128, lr=1e-4, seed=0,
                                          precision="f32", mask=mask))
    _, acc, _ = evaluate(snn, test.sequences, test.labels)
    elapsed = time.time() - start
    report(6, "PASS" if acc >= 0.97 else "FAIL",
           f"full T-MNIST: test accuracy {acc:.4f} (gate 0.97) in {elapsed / 3600:.2f} h")
    assert acc >= 0.97
    assert elapsed < 4 * 3600


def test_criterion_6_skip_notice():
    if not HAVE_MNIST:
        report(6, "SKIP", MNIST_SKIP)


@pytest.fixture(scope="module")
def ann_ensemble():
    """Three independently seeded trained baselines for mean-over-seeds
    ablation comparisons (single-seed accuracy deltas on 90-sample splits
    are coin flips)."""
    ds = synthetic_task("planted-pattern", 600, seed=1, noise=0.5)
    train, val, test = split_dataset(ds, 0.15, 0.15, seed=0)
    tr = (train.sequences, train.labels)
    va = (val.sequences, val.labels)
    models = []
    for seed in range(3):
        ann = AnnLSTM.random(6, [8], [3], np.random.default_rng(seed), scale=0.3)
        ann, _ = fit(ann, tr, va, TrainConfig(epochs=10, batch_size=32, lr=1e-2, seed=seed))
        models.append(ann)
    return {"models": models, "train": train, "val": val, "test": test,
            "full": (ds.sequences, ds.labels)}


def test_criterion_7_ablation_directions(synthetic_pipeline):
    p = synthetic_pipeline
    test = p["test"]
    X, y = test.sequences, test.labels

    conv_on = convert(p["ann"], T=2, shift=True)
    _, acc_conv, _ = evaluate(conv_on, X, y)
    _, acc_p, _ = evaluate(p["snn_p"], X, y)
    _, acc_np, _ = evaluate(p["snn_np"], X, y)
    _, acc_weights_only, _ = evaluate(p["snn_weights_only"], X, y)

    ok = (acc_p >= acc_np - 0.005) and (acc_p >= acc_weights_only - 0.005) \
        and (acc_p >= acc_conv)
    report(7, "PASS" if ok else "FAIL",
           f"fine-tuned P {acc_p:.3f} vs NP {acc_np:.3f} (gate: P >= NP - 0.5%); "
           f"full mask {acc_p:.3f} vs weights-only {acc_weights_only:.3f} "
           f"(threshold+leak costs <= 0.5%); fine-tune vs conversion-only "
           f"{acc_p:.3f}/{acc_conv:.3f} (synthetic; T-MNIST subset variant "
           f"{'ran separately' if HAVE_MNIST else 'skipped: no dataset'})")
    assert acc_p >= acc_np - 0.005, "pre-trained init (P) must match or beat NP"
    assert acc_p >= acc_weights_only - 0.005, \
        "threshold+leak training must not cost more than 0.5%"
    assert acc_p >= acc_conv, "fine-tuning must not lose to conversion-only"


def test_criterion_7_shift_conversion_only_as_stated(ann_ensemble):
    """The literal clause: enabling the shift does not reduce CONVERSION-ONLY
    accuracy at T=2.

    Implemented exactly as stated (mean over 3 seeds, full-dataset
    evaluation). KNOWN RED on the synthetic fixture: at T=2 the staircase
    shift raises every sigmoid gate's firing rate by half a step, which
    wrecks trained gate selectivity even though it provably lowers the
    mean activation error (see the companion mechanism test). The effect
    is systematic (measured across 5 task configs x 5 seeds x {conversion,
    fine-tuned, T=8} readings), not seed noise. Accuracy-level shift
    ablations are meaningful after SNN fine-tuning on real tasks, where the
    companion test's ordering is the operative one.
    """
    X, y = ann_ensemble["full"]
    on_accs, off_accs = [], []
    for ann in ann_ensemble["models"]:
        _, on, _ = evaluate(convert(ann, T=2, shift=True), X, y)
        _, off, _ = evaluate(convert(ann, T=2, shift=False), X, y)
        on_accs.append(on)
        off_accs.append(off)
    mean_on, mean_off = float(np.mean(on_accs)), float(np.mean(off_accs))
    status = "PASS" if mean_on >= mean_off else "FAIL (known, documented)"
    report(7, status,
           f"conversion-only T=2 shift on {mean_on:.3f} vs off {mean_off:.3f} "
           f"(mean over 3 seeds); the literal clause is not attainable on this "
           f"synthetic family - see the mechanism/initializer companion test "
           f"and the failure analysis in its docstring")
    assert mean_on >= mean_off, (
        "shift reduced conversion-only accuracy at T=2 on the synthetic fixture "
        f"({mean_on:.3f} vs {mean_off:.3f}); systematic, not noise - the clause's "
        "premise (uniform gate inputs) does not hold for trained models at T=2. "
        "The orderings that do hold are asserted in "
        "test_criterion_7_shift_mechanism_and_initializer.")


def test_criterion_7_shift_mechanism_and_initializer(ann_ensemble):
    """The two shift orderings that hold and carry the ablation's substance:
    (a) the shift lowers the mean gate-level conversion error at T=2 on
    trained models (the quantity it provably optimizes), and (b) with the
    full trainable mask the shifted initialization matches or beats the
    unshifted one after fine-tuning (shift as initializer), within the
    0.5% noise tolerance."""
    train, val = ann_ensemble["train"], ann_ensemble["val"]
    test = ann_ensemble["test"]
    tr = (train.sequences, train.labels)
    va = (val.sequences, val.labels)
    full_mask = TrainMask(weights=True, threshold=True, leak=True, mem_init=True,
                          step_bias=True)
    maes_on, maes_off, ft_on, ft_off = [], [], [], []
    for seed, ann in enumerate(ann_ensemble["models"]):
        probes = [train.sequences[k] for k in range(8)]
        maes_on.append(np.mean([r["mae"] for r in conversion_error_report(
            ann, convert(ann, T=2, shift=True), probes, 2)]))
        maes_off.append(np.mean([r["mae"] for r in conversion_error_report(
            ann, convert(ann, T=2, shift=False), probes, 2)]))
        for shift, bucket in ((True, ft_on), (False, ft_off)):
            snn = convert(ann, T=2, shift=shift)
            snn, _ = fit(snn, tr, va, TrainConfig(epochs=15, batch_size=32, lr=3e-3,
                                                  seed=seed, mask=full_mask))
            _, acc, _ = evaluate(snn, test.sequences, test.labels)
            bucket.append(acc)
    mean_mae_on, mean_mae_off = float(np.mean(maes_on)), float(np.mean(maes_off))
    mean_ft_on, mean_ft_off = float(np.mean(ft_on)), float(np.mean(ft_off))
    ok = mean_mae_on <= mean_mae_off and mean_ft_on >= mean_ft_off - 0.005
    report(7, "PASS" if ok else "FAIL",
           f"shift mechanism: gate conversion MAE at T=2 {mean_mae_on:.4f} (on) <= "
           f"{mean_mae_off:.4f} (off); shift as initializer: full-mask fine-tuned "
           f"{mean_ft_on:.3f} (on) vs {mean_ft_off:.3f} (off), within 0.5%")
    assert mean_mae_on <= mean_mae_off
    assert mean_ft_on >= mean_ft_off - 0.005


@pytest.mark.skipif(not HAVE_MNIST, reason=MNIST_SKIP)
def test_criterion_7_tmnist_subset_ablation():
    full = load_tmnist(MNIST_DIR, "train", 32)
    subset = full.subset(np.random.default_rng(0).permutation(len(full))[:10000])
    train, val, _ = split_dataset(subset, 0.1, 0.0, seed=0)
    test = load_tmnist(MNIST_DIR, "test", 32)
    tr = (train.sequences, train.labels)
    va = (val.sequences, val.labels)
    ann = AnnLSTM.random(32, [128], [10], np.random.default_rng(0), scale=0.1)
    ann, _ = fit(ann, tr, va, TrainConfig(epochs=6, batch_size=128, lr=1e-3, seed=0,
                                          precision="f32"))
    _, on_acc, _ = evaluate(convert(ann, T=2, shift=True), test.sequences, test.labels)
    _, off_acc, _ = evaluate(convert(ann, T=2, shift=False), test.sequences, test.labels)
    report(7, "PASS" if on_acc >= off_acc else "FAIL",
           f"T-MNIST 10k conversion-only shift on {on_acc:.4f} vs off {off_acc:.4f}")
    assert on_acc >= off_acc


def test_criterion_8_energy_model(synthetic_pipeline):
    # hand-arithmetic fixtures
    fixture = OpCountReport(layers=[LayerOps(hidden=1, fan_in=1, accumulates=1000)],
                            n_elements=1, time_steps=4, encoding="poisson")
    energy = estimate_energy(fixture)
    assert energy["neuromorphic"]["truenorth"] == pytest.approx(402.4)
    assert energy["neuromorphic"]["spinnaker"] == pytest.approx(641.44)

    # measured ratio on the trained model (synthetic stand-in when MNIST is absent)
    p = synthetic_pipeline
    model = p["snn_p"]
    test = p["test"]
    spiking_total = 0.0
    for k in range(24):
        _, _, ops = snn_forward(model, test.sequences[k], rng_seed=k)
        audit_multiplier_free(ops)
        spiking_total += estimate_energy(ops)["digital"]["total"] / 24
    ann_twin = AnnLSTM(layers=[c.weights for c in model.cells], head=model.head,
                       act=model.act)
    ann_total = estimate_energy(count_ops_ann(ann_twin, test.sequences.shape[1]))["digital"]["total"]
    ratio = ann_total / spiking_total
    source = "trained T-MNIST model" if HAVE_MNIST else \
        "trained synthetic-task model (MNIST unavailable in this environment)"
    report(8, "PASS" if ratio > 1.0 else "FAIL",
           f"neuromorphic fixtures exact (402.4 / 641.44); digital non-spiking/spiking "
           f"ratio {ratio:.2f} on the {source}; FPGA-derived 2.8-5.1x reference figures "
           f"are directional only (RTL flows are out of scope)")
    assert ratio > 1.0


@pytest.mark.skipif(not HAVE_MNIST, reason=MNIST_SKIP)
def test_criterion_8_energy_ratio_tmnist():
    ann = AnnLSTM.random(32, [128], [10], np.random.default_rng(0), scale=0.1)
    test = load_tmnist(MNIST_DIR, "test", 32)
    train = load_tmnist(MNIST_DIR, "train", 32)
    sub = train.subset(np.random.default_rng(0).permutation(len(train))[:10000])
    tr, va, _ = split_dataset(sub, 0.1, 0.0, seed=0)
    ann, _ = fit(ann, (tr.sequences, tr.labels), (va.sequences, va.labels),
                 TrainConfig(epochs=6, batch_size=128, lr=1e-3, seed=0, precision="f32"))
    snn = convert(ann, T=2)
    spiking_total = 0.0
    for k in range(16):
        _, _, ops = snn_forward(snn, test.sequences[k], rng_seed=k)
        spiking_total += estimate_energy(ops)["digital"]["total"] / 16
    ann_total = estimate_energy(count_ops_ann(ann, 32))["digital"]["total"]
    ratio = ann_total / spiking_total
    report(8, "PASS" if ratio > 1.0 else "FAIL",
           f"T-MNIST digital non-spiking/spiking ratio {ratio:.2f} at measured sparsity")
    assert ratio > 1.0


def test_criterion_9_seqf_path_and_stand_in(tmp_path):
    """GSC (81x20) and UCI (128-element) numbers are NOT reproduced (audio /
    sensor preprocessing is out of scope); the ingestion path is validated
    by shape fixtures and a synthetic stand-in task."""
    rng = np.random.default_rng(0)
    gsc_like = SequenceDataset(rng.normal(0, 1, (8, 81, 20)).astype(np.float32),
                               rng.integers(0, 11, 8).astype(np.int64), 11)
    uci_like = SequenceDataset(rng.normal(0, 1, (8, 128, 9)).astype(np.float32),
                               rng.integers(0, 6, 8).astype(np.int64), 6)
    for name, ds, n, feats in (("gsc", gsc_like, 81, 20), ("uci", uci_like, 128, 9)):
        path = tmp_path / f"{name}.seqf"
        save_feature_tensor(str(path), ds)
        loaded = load_feature_tensor(str(path))
        assert loaded.sequences.shape == (8, n, feats)
        np.testing.assert_array_equal(loaded.sequences, ds.sequences)

    stand_in = synthetic_task("delayed-recall", 500, seed=3, n_classes=4,
                              n_elements=12, n_features=8, noise=0.3)
    train, val, test = split_dataset(stand_in, 0.15, 0.15, seed=0)
    model = AnnLSTM.random(8, [8], [4], np.random.default_rng(0), scale=0.3,
                           forget_bias=1.0)
    model, _ = fit(model, (train.sequences, train.labels), (val.sequences, val.labels),
                   TrainConfig(epochs=15, batch_size=32, lr=1e-2, seed=0))
    _, acc, _ = evaluate(model, test.sequences, test.labels)
    report(9, "PASS" if acc > 0.95 else "FAIL",
           f"SEQF fixtures round-trip at the GSC/UCI shapes; delayed-recall stand-in "
           f"reaches {acc:.3f}; the 94.75%/90.78% figures require out-of-scope "
           f"audio/sensor preprocessing and are not reproduced")
    assert acc > 0.95
