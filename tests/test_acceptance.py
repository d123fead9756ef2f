"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The end-to-end criteria share a single full default training run (a few
minutes of CPU); run with `pytest tests/test_acceptance.py -s` to watch the
per-criterion lines appear.
"""

import time

import numpy as np
import pytest

from metacell import pipeline
from metacell.estimator import MetasurfaceDesigner
from metacell.features import extract_notches, target_of_cell
from metacell.geometry import UnitCell, decode_bits, encode_bits
from metacell.network import (
    AdamState,
    DenseLayer,
    DropoutLayer,
    Network,
    load_checkpoint,
    mse,
    save_checkpoint,
)
from metacell.surrogate import (
    NotchParams,
    Polarization,
    ReflectionSpectrum,
    frequency_grid,
    lorentzian_sum,
    reflection_spectrum,
)

MASTER_SEED = 42


def report(name, ok, detail):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


@pytest.fixture(scope="session")
def default_run():
    """The default pipeline exactly as specified: 2000 records, 70/30 split,
    full-batch training for the default epoch budget, fixed seed."""
    started = time.perf_counter()
    records = pipeline.generate_dataset(2000, MASTER_SEED)
    train_set, test_set = pipeline.split(records, ratio=0.7, seed=MASTER_SEED)
    X, Y = pipeline.stack_records(train_set)
    X_test, Y_test = pipeline.stack_records(test_set)
    designer = MetasurfaceDesigner().fit(X, Y, validation=(X_test, Y_test))
    elapsed = time.perf_counter() - started
    return {
        "records": records,
        "train_set": train_set,
        "test_set": test_set,
        "test_labels": Y_test,
        "designer": designer,
        "elapsed": elapsed,
    }


def test_codec_bijection():
    rng = np.random.default_rng(MASTER_SEED)
    started = time.perf_counter()
    failures = 0
    for _ in range(10_000):
        cell = UnitCell.random(rng)
        if decode_bits(encode_bits(cell)) != cell:
            failures += 1
    elapsed = time.perf_counter() - started
    ok = failures == 0 and elapsed < 1.0
    assert report("codec-bijection", ok,
                  f"{failures} failures in 10000 cells, {elapsed:.2f}s")


def test_gradient_correctness():
    started = time.perf_counter()
    cases = [
        (1, [("dense", 6, 8, "relu"), ("dropout", 0.3), ("dense", 8, 4, "sigmoid")]),
        (2, [("dense", 5, 7, "relu"), ("dense", 7, 3, "identity")]),
        (3, [("dense", 24, 8, "relu"), ("dropout", 0.2), ("dense", 8, 48, "sigmoid")]),
        (4, [("dense", 4, 6, "sigmoid"), ("dropout", 0.5), ("dense", 6, 5, "relu"),
             ("dense", 5, 2, "sigmoid")]),
        (5, [("dense", 3, 10, "relu"), ("dropout", 0.1), ("dense", 10, 10, "relu"),
             ("dropout", 0.4), ("dense", 10, 4, "sigmoid")]),
    ]
    worst = 0.0
    for seed, spec in cases:
        rng = np.random.default_rng(seed)
        layers = []
        for entry in spec:
            if entry[0] == "dense":
                layers.append(DenseLayer(entry[1], entry[2], entry[3], rng=rng))
            else:
                layers.append(DropoutLayer(entry[1]))
        net = Network(layers, seed=seed)
        x = rng.normal(0.0, 1.0, (3, net.input_width))
        y = rng.random((3, net.output_width))
        net.forward(x, train=True, rng=np.random.default_rng(seed + 100))
        masks = net.recorded_masks()
        grads = net.backward(y)

        def loss():
            return mse(net.forward(x, dropout_masks=masks), y)

        h = 1e-5
        for p, g in zip(net.parameters(), grads):
            for idx in np.ndindex(p.shape):
                orig = p[idx]
                p[idx] = orig + h
                hi = loss()
                p[idx] = orig - h
                lo = loss()
                p[idx] = orig
                fd = (hi - lo) / (2 * h)
                worst = max(worst, abs(fd - g[idx]) / max(abs(fd), abs(g[idx]), 1e-6))
    elapsed = time.perf_counter() - started
    ok = worst < 1e-4 and elapsed < 10.0
    assert report("gradient-correctness", ok,
                  f"worst rel err {worst:.2e} over {len(cases)} networks, {elapsed:.1f}s")


def test_surrogate_symmetry():
    rng = np.random.default_rng(MASTER_SEED)
    failures = 0
    for _ in range(200):
        cell = UnitCell.random(rng)
        te = reflection_spectrum(cell, Polarization.TE).samples
        tm = reflection_spectrum(cell, Polarization.TM).samples
        te_t = reflection_spectrum(cell.transpose(), Polarization.TE).samples
        tm_t = reflection_spectrum(cell.transpose(), Polarization.TM).samples
        if not (np.array_equal(te, tm_t) and np.array_equal(tm, te_t)):
            failures += 1
            continue
        tiles = list(cell.tiles)
        dupes = {}
        for i, t in enumerate(tiles):
            dupes.setdefault(t, []).append(i)
        pair = next((v[:2] for v in dupes.values() if len(v) > 1), None)
        if pair is not None:
            i, j = pair
            tiles[i], tiles[j] = tiles[j], tiles[i]
            swapped = UnitCell(tuple(tiles))
            if not (np.array_equal(te, reflection_spectrum(swapped, Polarization.TE).samples)
                    and np.array_equal(tm, reflection_spectrum(swapped, Polarization.TM).samples)):
                failures += 1
    ok = failures == 0
    assert report("surrogate-symmetry", ok, f"{failures} failures in 200 cells")


def test_feature_extraction_fidelity():
    rng = np.random.default_rng(2024)
    bad = 0
    for _ in range(500):
        center = rng.uniform(6.0, 43.0)
        depth = rng.uniform(-40.0, -12.0)
        halfwidth = rng.uniform(0.2, 1.5)
        samples = lorentzian_sum(frequency_grid(),
                                 [NotchParams(center, depth, halfwidth)])
        feats = extract_notches(ReflectionSpectrum(Polarization.TE, samples))
        if len(feats) != 1 or abs(feats[0].frequency - center) > 0.05 \
                or abs(feats[0].depth - depth) > 0.2:
            bad += 1
    ok = bad <= 5
    assert report("feature-fidelity", ok, f"{500 - bad}/500 recovered")


def test_end_to_end_training(default_run):
    best_acc = max(default_run["designer"].val_accuracy_)
    # best per-bit accuracy any constant 48-bit output could score
    q = default_run["test_labels"].mean(axis=0)
    baseline = float(np.maximum(q, 1.0 - q).mean())
    elapsed = default_run["elapsed"]
    ok = best_acc >= 0.85 and best_acc > baseline and elapsed <= 30 * 60
    assert report("end-to-end-training", ok,
                  f"per-bit test accuracy {best_acc:.4f} (threshold 0.85), "
                  f"baseline {baseline:.4f}, {elapsed / 60:.1f} min")


def test_inference_latency(default_run):
    target = target_of_cell(default_run["test_set"][0].cell)
    designer = default_run["designer"]
    times = []
    for _ in range(100):
        started = time.perf_counter()
        designer.design(target)
        times.append(time.perf_counter() - started)
    median = float(np.median(times))
    ok = median < 0.1
    assert report("inference-latency", ok, f"median {median * 1e3:.3f} ms over 100 calls")


def test_closed_loop_design(default_run):
    designer = default_run["designer"]
    fractions = []
    for rec in default_run["test_set"][:50]:
        target = target_of_cell(rec.cell)
        cell = designer.design(target)
        fractions.append(pipeline.verify_design(cell, target, tol_f=0.5).overall_fraction)
    mean_match = float(np.mean(fractions))
    ok = mean_match >= 0.70
    assert report("closed-loop-design", ok,
                  f"mean notch-match fraction {mean_match:.3f} over 50 held-out targets")


def test_checkpoint_round_trip(default_run):
    net = default_run["designer"].network_
    state = AdamState(net.parameters())
    blob = save_checkpoint(net, state)
    loaded, _ = load_checkpoint(blob)
    rng = np.random.default_rng(MASTER_SEED)
    identical = all(
        np.array_equal(net.forward(x), loaded.forward(x))
        for x in rng.random((100, 24)))
    size_ok = len(blob) < 6 * 1024 * 1024
    ok = identical and size_ok
    assert report("checkpoint-round-trip", ok,
                  f"bit-identical={identical}, size {len(blob) / 1e6:.2f} MB")


def test_loss_curve_shape(default_run):
    designer = default_run["designer"]
    first = designer.train_mse_[0]
    last = designer.train_mse_[-1]
    ratio = last / first
    acc = np.array(designer.val_accuracy_)
    usable = len(acc) // 100 * 100
    windows = acc[:usable].reshape(-1, 100).mean(axis=1)
    nondecreasing = bool((np.diff(windows) >= 0).all())
    ok = ratio < 0.10 and nondecreasing
    assert report("loss-curve-shape", ok,
                  f"epoch-{len(designer.train_mse_)} train MSE / epoch-1 = {ratio:.3f} "
                  f"(threshold 0.10), smoothed accuracy non-decreasing={nondecreasing}")
