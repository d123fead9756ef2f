"""Checks on metacell's outputs, computed apart from the program.

Every check returns a list of problem strings; an empty list means the output
passed.  None of them compares against a stored copy of an earlier output.
They rebuild what an output must be from a definition the program documents
(the 3-bit big-endian codec, the surrogate's notch formula, the input layout)
or test a property the method must have (a fitted model beats the constant
predictor, a checkpoint round trip predicts bit-identically, a designed cell
is the thresholded network output).
"""

from __future__ import annotations

import numpy as np

N_SLOTS = 16
GRID_SIZE = 4
SLOTS_PER_POL = 4
INPUT_WIDTH = 2 * SLOTS_PER_POL * 3

# Input normalisation, from features.assemble_input's documented layout.
F_START_GHZ = 4.0
F_SPAN_GHZ = 41.0
DEPTH_CAP_DB = 40.0

# A requested notch qualifies at -10 dB.  A tile id held by two or more slots
# has a formula depth of at most -12 dB, so it always shows in the spectrum.
QUALIFY_DB = -10.0
SURE_DEPTH_DB = -12.0

# Tolerances around the formula notch.  Distinct ids sit at least 3.5 GHz
# apart; the deepest, broadest neighbour there (-40 dB, halfwidth 0.85 GHz)
# adds at most 2.3 dB to a notch's depth and shifts its minimum by well under
# 0.01 GHz.  A 0.5 GHz error is therefore far outside FREQ_TOL_GHZ.
FREQ_TOL_GHZ = 0.05
DEPTH_TOL_DB = 3.0

DESIGN_FLOOR_S = 0.1
CHECKPOINT_LIMIT_BYTES = 6 * 1024 * 1024


def encode_tiles(tiles) -> np.ndarray:
    """48 bits: the big-endian 3-bit code of each slot's tile id."""
    return np.array([(int(t) >> s) & 1 for t in tiles for s in (2, 1, 0)], dtype=np.uint8)


def formula_notches(tiles):
    """(TE, TM) lists of (center GHz, depth dB), one per distinct tile id.

    The surrogate's documented formula: center 6 + 5*id + 0.5*(mean row or
    column - 1.5) GHz, depth max(-40, -6 - 3*count) dB.
    """
    te, tm = [], []
    for tile_id in sorted(set(tiles)):
        slots = [s for s, t in enumerate(tiles) if t == tile_id]
        count = len(slots)
        mean_row = sum(s // GRID_SIZE for s in slots) / count
        mean_col = sum(s % GRID_SIZE for s in slots) / count
        depth = max(-40.0, -6.0 - 3.0 * count)
        base = 6.0 + 5.0 * tile_id
        te.append((base + 0.5 * (mean_row - 1.5), depth))
        tm.append((base + 0.5 * (mean_col - 1.5), depth))
    return te, tm


def check_record(tiles, vec, label) -> list[str]:
    """One dataset record: its label, its input layout and its notches."""
    problems = []
    if not np.array_equal(np.asarray(label), encode_tiles(tiles)):
        problems.append(f"label of cell {tuple(tiles)} is not its 3-bit encoding")
    vec = np.asarray(vec, dtype=float)
    if vec.shape != (INPUT_WIDTH,):
        return problems + [f"input of cell {tuple(tiles)} has shape {vec.shape}"]
    if not ((vec >= 0.0) & (vec <= 1.0)).all():
        problems.append(f"input of cell {tuple(tiles)} leaves [0, 1]")
    for pol, notches, block in zip(("TE", "TM"), formula_notches(tiles),
                                   vec.reshape(2, SLOTS_PER_POL, 3)):
        filled = (block != 0.0).any(axis=1)
        n = int(filled.sum())
        if not filled[:n].all():
            problems.append(f"{pol} of cell {tuple(tiles)}: empty slot before a filled one")
            continue
        sure = sum(depth <= SURE_DEPTH_DB for _, depth in notches)
        if not min(SLOTS_PER_POL, sure) <= n <= min(SLOTS_PER_POL, len(notches)):
            problems.append(f"{pol} of cell {tuple(tiles)}: {n} notches, formula gives "
                            f"{sure} sure of {len(notches)}")
        freqs = F_START_GHZ + F_SPAN_GHZ * block[:n, 0]
        depths = -DEPTH_CAP_DB * block[:n, 1]
        if (np.diff(freqs) <= 0).any():
            problems.append(f"{pol} of cell {tuple(tiles)}: frequencies not ascending")
        if (block[:n, 2] <= 0).any():
            problems.append(f"{pol} of cell {tuple(tiles)}: filled slot without bandwidth")
        for f, d in zip(freqs, depths):
            if not any(abs(f - c) <= FREQ_TOL_GHZ and abs(d - depth) <= DEPTH_TOL_DB
                       for c, depth in notches):
                problems.append(f"{pol} of cell {tuple(tiles)}: notch {f:.4f} GHz "
                                f"{d:.2f} dB matches no formula notch {notches}")
    return problems


def check_records(records) -> list[str]:
    problems = []
    for rec in records:
        problems += check_record(rec.cell.tiles, rec.input, rec.label)
    return problems


def check_round_trip(written, read) -> list[str]:
    """Records read back from a dataset file equal the ones written, exactly."""
    if len(written) != len(read):
        return [f"wrote {len(written)} records, read back {len(read)}"]
    for a, b in zip(written, read):
        if (a.seed_index != b.seed_index or a.cell.tiles != b.cell.tiles
                or not np.array_equal(a.input, b.input)
                or not np.array_equal(a.label, b.label)):
            return [f"record {a.seed_index} changed on the way through the file"]
    return []


def constant_accuracy(labels) -> float:
    """Best per-bit accuracy of any constant 48-bit prediction on labels."""
    q = (np.asarray(labels) >= 0.5).mean(axis=0)
    return float(np.maximum(q, 1.0 - q).mean())


def check_fit(val_bits, val_labels, train_mse) -> list[str]:
    """A fit beats the constant predictor and lowers its training loss."""
    problems = []
    acc = float(np.mean((np.asarray(val_bits) >= 0.5) == (np.asarray(val_labels) >= 0.5)))
    baseline = constant_accuracy(val_labels)
    if not acc > baseline:
        problems.append(f"validation accuracy {acc:.4f} does not beat the constant "
                        f"predictor's {baseline:.4f}")
    if not train_mse[-1] < train_mse[0]:
        problems.append(f"training MSE rose from {train_mse[0]:.6f} to {train_mse[-1]:.6f}")
    return problems


def check_checkpoint(blob: bytes, load, X, expected) -> list[str]:
    """A checkpoint loads back, stays under 6 MB and predicts bit-identically.

    `load` turns the bytes into a network with a forward(X) method.
    """
    problems = []
    if len(blob) >= CHECKPOINT_LIMIT_BYTES:
        problems.append(f"checkpoint is {len(blob)} bytes, limit {CHECKPOINT_LIMIT_BYTES}")
    try:
        network = load(blob)
    except ValueError as exc:
        return problems + [f"checkpoint does not load back: {exc}"]
    if not np.array_equal(network.forward(X), expected):
        problems.append("loaded checkpoint predicts differently")
    return problems


def check_design(tiles, expected_bits, seconds) -> list[str]:
    """A designed cell is the thresholded network output, made within 100 ms."""
    problems = []
    if not np.array_equal(encode_tiles(tiles), np.asarray(expected_bits, dtype=np.uint8)):
        problems.append(f"designed cell {tuple(tiles)} differs from predict_proba >= 0.5")
    if not seconds < DESIGN_FLOOR_S:
        problems.append(f"design took {seconds * 1e3:.1f} ms, floor {DESIGN_FLOOR_S * 1e3:.0f} ms")
    return problems
