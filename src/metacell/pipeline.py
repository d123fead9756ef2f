"""Datasets, evaluation and closed-loop verification.

Training is MetasurfaceDesigner.fit (estimator.py).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import network as nn
from .features import DesignTarget, assemble_input, extract_notches, target_of_cell
from .geometry import N_BITS, N_SLOTS, N_TILE_IDS, UnitCell, encode_bits
from .surrogate import SURROGATE_VERSION, Polarization, reflection_spectrum

DATASET_FORMAT_VERSION = 1
DEFAULT_MATCH_TOL_GHZ = 0.5


@dataclass(frozen=True)
class DatasetRecord:
    """One labeled sample: cell provenance, normalized input, 48-bit label."""

    seed_index: int
    cell: UnitCell
    input: np.ndarray = field(repr=False)
    label: np.ndarray = field(repr=False)


def generate_dataset(n: int, master_seed: int) -> list[DatasetRecord]:
    """n labeled records; record i depends only on (master_seed, i).

    Slots are drawn uniformly over the 8 tile ids with replacement, each
    record from its own seed stream hashed from (master_seed, i).
    """
    if n < 1:
        raise ValueError("dataset size must be >= 1")
    records = []
    for i in range(n):
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=master_seed, spawn_key=(i,)))
        cell = UnitCell(tuple(rng.integers(0, N_TILE_IDS, N_SLOTS)))
        vec = assemble_input(target_of_cell(cell))
        records.append(DatasetRecord(i, cell, vec, encode_bits(cell)))
    return records


def dataset_text(records, master_seed: int) -> str:
    """Line-oriented dataset: JSON header line, then one JSON record per line."""
    lines = [json.dumps({
        "format_version": DATASET_FORMAT_VERSION,
        "master_seed": master_seed,
        "surrogate_version": SURROGATE_VERSION,
    })]
    for rec in records:
        lines.append(json.dumps({
            "seed_index": rec.seed_index,
            "tiles": list(rec.cell.tiles),
            "input": [float(v) for v in rec.input],
            "label": "".join(str(int(b)) for b in rec.label),
        }))
    return "\n".join(lines) + "\n"


def _json_object(line: str, ln: int) -> dict:
    try:
        doc = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ValueError(f"line {ln}: not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ValueError(f"line {ln}: expected a JSON object, got {type(doc).__name__}")
    return doc


def load_dataset(path) -> tuple[list[DatasetRecord], dict]:
    """Read a dataset file back; returns (records, header).

    Malformed lines raise ValueError("line N: ...").
    """
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ValueError(f"dataset file {path} is empty")
    header = _json_object(lines[0], 1)
    if header.get("format_version") != DATASET_FORMAT_VERSION:
        raise ValueError(f"unsupported dataset format version {header.get('format_version')}")
    if header.get("surrogate_version") != SURROGATE_VERSION:
        raise ValueError(f"dataset was labeled by surrogate version "
                         f"{header.get('surrogate_version')}, expected {SURROGATE_VERSION}")
    records = []
    for ln, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        doc = _json_object(line, ln)
        try:
            label = doc["label"]
            if not isinstance(label, str) or len(label) != N_BITS:
                raise ValueError(f"label must be a string of {N_BITS} 0/1 characters")
            records.append(DatasetRecord(
                seed_index=int(doc["seed_index"]),
                cell=UnitCell(tuple(doc["tiles"])),
                input=np.array(doc["input"], dtype=float),
                label=np.array([int(c) for c in label], dtype=np.uint8),
            ))
        except KeyError as exc:
            raise ValueError(f"line {ln}: record has no {exc} field") from None
        except (TypeError, ValueError) as exc:
            raise ValueError(f"line {ln}: {exc}") from None
    if not records:
        raise ValueError(f"dataset file {path} has no records")
    return records, header


def split(records, ratio: float = 0.7, seed: int = 0):
    """Seeded shuffle into (train, test) of sizes floor(n*ratio) / remainder."""
    if not records:
        raise ValueError("cannot split an empty dataset")
    if not 0.0 < ratio < 1.0:
        raise ValueError(f"split ratio must be in (0, 1), got {ratio}")
    order = np.random.default_rng(seed).permutation(len(records))
    cut = int(len(records) * ratio)
    train = [records[i] for i in order[:cut]]
    test = [records[i] for i in order[cut:]]
    return train, test


def stack_records(records):
    """(X, Y): inputs (n, 24) and float 0/1 labels (n, 48) of a record list."""
    X = np.stack([r.input for r in records])
    Y = np.stack([r.label for r in records]).astype(float)
    return X, Y


def evaluate(network: nn.Network, records) -> dict:
    """Inference-mode metrics over a record set.

    per_bit_accuracy averages bit matches after 0.5-thresholding;
    per_slot_accuracy requires all 3 bits of a tile slot correct;
    exact_cell_rate requires all 48 bits correct.
    """
    if not records:
        raise ValueError("cannot evaluate on an empty record set")
    X, Y = stack_records(records)
    proba = network.forward(X)
    return prediction_metrics(proba, Y)


def prediction_metrics(proba, labels) -> dict:
    """Metrics for raw activations against 0/1 labels (threshold at 0.5)."""
    proba = np.atleast_2d(np.asarray(proba, dtype=float))
    labels = np.atleast_2d(np.asarray(labels, dtype=float))
    if proba.shape != labels.shape or proba.shape[1] != N_BITS:
        raise ValueError(f"prediction shape {proba.shape} incompatible with labels "
                         f"{labels.shape}")
    bits = proba >= 0.5
    truth = labels >= 0.5
    correct = bits == truth
    slots = correct.reshape(len(correct), N_SLOTS, 3).all(axis=2)
    return {
        "per_bit_accuracy": float(correct.mean()),
        "per_slot_accuracy": float(slots.mean()),
        "exact_cell_rate": float(correct.all(axis=1).mean()),
        "mse": nn.mse(proba, labels),
    }


@dataclass(frozen=True)
class NotchMatch:
    requested_freq: float
    matched: bool
    achieved_freq: float | None


@dataclass(frozen=True)
class VerificationReport:
    """Per-notch frequency matches between a cell's spectrum and a target."""

    te: tuple[NotchMatch, ...]
    tm: tuple[NotchMatch, ...]
    tolerance_ghz: float

    @staticmethod
    def _fraction(matches):
        if not matches:
            return 1.0
        return sum(m.matched for m in matches) / len(matches)

    @property
    def te_fraction(self):
        return self._fraction(self.te)

    @property
    def tm_fraction(self):
        return self._fraction(self.tm)

    @property
    def overall_fraction(self):
        both = self.te + self.tm
        return self._fraction(both)

    def to_dict(self):
        def items(matches):
            return [{"requested_freq_ghz": m.requested_freq, "matched": m.matched,
                     "achieved_freq_ghz": m.achieved_freq} for m in matches]
        return {
            "tolerance_ghz": self.tolerance_ghz,
            "te": items(self.te),
            "tm": items(self.tm),
            "te_fraction": self.te_fraction,
            "tm_fraction": self.tm_fraction,
            "overall_fraction": self.overall_fraction,
        }


def verify_design(cell: UnitCell, target: DesignTarget,
                  tol_f: float = DEFAULT_MATCH_TOL_GHZ) -> VerificationReport:
    """Forward-simulate a cell and check each requested notch frequency.

    A requested notch matches when the cell's spectrum contains an extracted
    notch (hence at least 10 dB deep) within tol_f of the requested frequency.
    """
    per_pol = {}
    for pol in (Polarization.TE, Polarization.TM):
        achieved = extract_notches(reflection_spectrum(cell, pol))
        matches = []
        for want in target.features(pol):
            best = None
            for got in achieved:
                gap = abs(got.frequency - want.frequency)
                if best is None or gap < abs(best - want.frequency):
                    best = got.frequency
            ok = best is not None and abs(best - want.frequency) <= tol_f
            matches.append(NotchMatch(want.frequency, ok, best))
        per_pol[pol] = tuple(matches)
    return VerificationReport(te=per_pol[Polarization.TE], tm=per_pol[Polarization.TM],
                              tolerance_ghz=tol_f)

