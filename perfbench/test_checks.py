"""The benchmark's checks bite: each oracle rejects a corrupted output.

    python3 -m pytest -q perfbench
"""

import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import oracles  # noqa: E402
import tracing  # noqa: E402
from metacell import features, network, pipeline  # noqa: E402
from metacell.estimator import MetasurfaceDesigner  # noqa: E402
from metacell.geometry import UnitCell  # noqa: E402


@pytest.fixture(scope="module")
def records():
    return pipeline.generate_dataset(40, 3)


@pytest.fixture(scope="module")
def designer(records):
    X = np.stack([r.input for r in records])
    Y = np.stack([r.label for r in records]).astype(float)
    return MetasurfaceDesigner(epochs=3).fit(X, Y)


def test_clean_dataset_passes(records):
    assert oracles.check_records(records) == []
    assert oracles.check_round_trip(records, list(records)) == []


def test_flipped_label_bit_fails(records):
    rec = records[0]
    label = rec.label.copy()
    label[7] ^= 1
    problems = oracles.check_record(rec.cell.tiles, rec.input, label)
    assert any("3-bit encoding" in p for p in problems)


def test_notch_shifted_half_a_ghz_fails(records):
    rec = records[0]
    vec = rec.input.copy()
    vec[0] += 0.5 / oracles.F_SPAN_GHZ          # first TE notch, +0.5 GHz
    problems = oracles.check_record(rec.cell.tiles, vec, rec.label)
    assert any("matches no formula notch" in p for p in problems)


def test_empty_slot_before_filled_fails(records):
    rec = next(r for r in records if r.input[3:6].any())
    vec = rec.input.copy()
    vec[0:3] = 0.0
    assert oracles.check_record(rec.cell.tiles, vec, rec.label)


def test_changed_record_fails_round_trip(records):
    changed = list(records)
    changed[5] = replace(records[5], input=records[5].input + 1e-12)
    assert oracles.check_round_trip(records, changed)


def test_checkpoint_with_one_byte_changed_fails(designer):
    X = np.random.default_rng(0).random((10, oracles.INPUT_WIDTH))
    blob = network.save_checkpoint(designer.network_, designer.adam_state_)

    def load(b):
        return network.load_checkpoint(b)[0]

    expected = designer.predict_proba(X)
    assert oracles.check_checkpoint(blob, load, X, expected) == []
    corrupt = bytearray(blob)
    corrupt[len(blob) // 2] ^= 0x01
    assert oracles.check_checkpoint(bytes(corrupt), load, X, expected)


def test_checkpoint_that_predicts_differently_fails(designer):
    X = np.random.default_rng(0).random((10, oracles.INPUT_WIDTH))
    blob = network.save_checkpoint(designer.network_)
    expected = designer.predict_proba(X) + 1e-15
    problems = oracles.check_checkpoint(blob, lambda b: network.load_checkpoint(b)[0],
                                        X, expected)
    assert problems == ["loaded checkpoint predicts differently"]


def test_designed_cell_with_one_bit_flipped_fails(designer, records):
    target = features.target_of_cell(records[0].cell)
    cell = designer.design(target)
    expected = designer.predict_proba(features.assemble_input(target))[0] >= 0.5
    assert oracles.check_design(cell.tiles, expected, 1e-4) == []
    flipped = list(cell.tiles)
    flipped[3] ^= 0b010
    assert oracles.check_design(UnitCell(tuple(flipped)).tiles, expected, 1e-4)
    assert oracles.check_design(cell.tiles, expected, 0.2)


def test_fit_oracle_rejects_constant_predictor_and_rising_loss(records):
    labels = np.stack([r.label for r in records]).astype(float)
    majority = (labels.mean(axis=0) >= 0.5).astype(float)
    constant = np.tile(majority, (len(labels), 1))
    assert oracles.check_fit(labels, labels, [0.3, 0.2]) == []
    assert oracles.check_fit(constant, labels, [0.3, 0.2])
    assert oracles.check_fit(labels, labels, [0.2, 0.3])


def test_unknown_span_is_absent_and_originals_come_back(monkeypatch):
    monkeypatch.setitem(tracing.SPANS, "pipeline.renamed", ("metacell.pipeline", "renamed"))
    original = pipeline.verify_design
    tracer = tracing.Tracer()
    with tracing.traced(tracer):
        assert pipeline.verify_design is not original
        cell = UnitCell.filled(3)
        pipeline.verify_design(cell, features.target_of_cell(cell))
    assert pipeline.verify_design is original
    assert tracer.absent == ["pipeline.renamed"]
    calls, total, self_s = tracer.get("pipeline.verify_design")
    assert calls == 1 and 0 < self_s < total
    assert tracer.get("surrogate.reflection_spectrum")[0] == 4
