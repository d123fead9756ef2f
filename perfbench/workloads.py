"""Set-up and the three phases the workloads mix: dataset, train and design.

Every call into metacell goes through a module attribute looked up at call
time (`pipeline.generate_dataset`, not a name imported once), so the traced
run sees it.
"""

from __future__ import annotations

import statistics
import time
import traceback
from dataclasses import dataclass

import numpy as np

import oracles
from metacell import features, network, pipeline
from metacell.estimator import MetasurfaceDesigner
from metacell.geometry import N_SLOTS, N_TILE_IDS, UnitCell

# The acceptance dataset: 2000 records from master seed 42, split 70/30 with
# seed 42.  It is the same for every --seed, so train_val_acc is a fixed
# property of the code.
ACCEPT_RECORDS = 2000
ACCEPT_SEED = 42
ACCEPT_RATIO = 0.7
# A 20-epoch fit with default hyperparameters already beats the constant
# predictor and takes well under a second.
FIT_EPOCHS = 20
DATASET_RECORDS = 500       # records per dataset round
DESIGN_TARGETS = 1000       # targets per design round
DESIGN_STREAM = 0xD351      # keeps design cells apart from dataset seeds


@dataclass
class Inputs:
    X: np.ndarray
    Y: np.ndarray
    X_val: np.ndarray
    Y_val: np.ndarray
    designer: MetasurfaceDesigner
    cells: list
    targets: list


def _stack(records):
    return (np.stack([r.input for r in records]),
            np.stack([r.label for r in records]).astype(float))


def build_inputs(seed: int) -> Inputs:
    """Everything the phases need: the acceptance split, a designer fitted on
    it, and design targets from fresh cells drawn from `seed`."""
    records = pipeline.generate_dataset(ACCEPT_RECORDS, ACCEPT_SEED)
    train, val = pipeline.split(records, ratio=ACCEPT_RATIO, seed=ACCEPT_SEED)
    X, Y = _stack(train)
    X_val, Y_val = _stack(val)
    designer = MetasurfaceDesigner(epochs=FIT_EPOCHS).fit(X, Y, validation=(X_val, Y_val))
    seen = {r.cell.tiles for r in records}
    rng = np.random.default_rng([DESIGN_STREAM, seed])
    cells = []
    while len(cells) < DESIGN_TARGETS:
        cell = UnitCell(tuple(rng.integers(0, N_TILE_IDS, N_SLOTS)))
        if cell.tiles not in seen:
            cells.append(cell)
    targets = [features.target_of_cell(c) for c in cells]
    return Inputs(X, Y, X_val, Y_val, designer, cells, targets)


def design_oracle(inputs: Inputs):
    """Untimed oracle inputs for the design phase: the thresholded network
    output for every target, and the problems found checking that each
    source cell verifies against its own target."""
    X = np.stack([features.assemble_input(t) for t in inputs.targets])
    expected = inputs.designer.predict_proba(X) >= 0.5
    problems = []
    for cell, target in zip(inputs.cells, inputs.targets):
        score = pipeline.verify_design(cell, target).overall_fraction
        if score != 1.0:
            problems.append(f"source cell {cell.tiles} verifies at {score} "
                            "against its own target")
    return expected, problems


class Phase:
    """Runs whole rounds of one kind of operation and keeps their samples."""

    name = ""
    unit = ""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.rounds = 0
        self.problems: list[str] = []

    def round(self):
        self.rounds += 1
        ops = self.ops_per_round
        self.attempted += ops
        try:
            self.problems += self.run_round()
        except Exception:   # a crash is a failed round, reported, not the end of the run
            self.failed += ops
            traceback.print_exc()

    def metrics(self) -> dict:
        raise NotImplementedError

    def summary(self) -> str:
        return (f"phase {self.name}: {self.rounds} rounds, {self.attempted} {self.unit} "
                f"attempted, {self.failed} failed")


class DatasetPhase(Phase):
    """The `metacell gen` path: generate_dataset -> dataset_text -> file,
    then the file read back with load_dataset."""

    name = "dataset"
    unit = "records"
    ops_per_round = DATASET_RECORDS

    def __init__(self, seed, path):
        super().__init__()
        self.seed = seed
        self.path = path
        self.gen_rates = []
        self.load_rates = []

    def run_round(self):
        n = DATASET_RECORDS
        t0 = time.perf_counter()
        records = pipeline.generate_dataset(n, self.seed)
        text = pipeline.dataset_text(records, self.seed)
        with open(self.path, "w", encoding="ascii") as fh:
            fh.write(text)
        t1 = time.perf_counter()
        loaded, _ = pipeline.load_dataset(self.path)
        t2 = time.perf_counter()
        self.path.unlink()
        self.gen_rates.append(n / (t1 - t0))
        self.load_rates.append(n / (t2 - t1))
        return oracles.check_records(records) + oracles.check_round_trip(records, loaded)

    def metrics(self):
        return {"gen_records_per_s": statistics.median(self.gen_rates),
                "load_records_per_s": statistics.median(self.load_rates)}


class TrainPhase(Phase):
    """Full-batch fits with validation on the acceptance split, each followed
    by a checkpoint round trip."""

    name = "train"
    unit = "fits"
    ops_per_round = 1

    def __init__(self, inputs: Inputs):
        super().__init__()
        self.inputs = inputs
        self.rates = []
        self.val_accs = []
        self.checkpoint_bytes = 0

    def run_round(self):
        inp = self.inputs
        designer = MetasurfaceDesigner(epochs=FIT_EPOCHS)
        t0 = time.perf_counter()
        designer.fit(inp.X, inp.Y, validation=(inp.X_val, inp.Y_val))
        self.rates.append(FIT_EPOCHS * len(inp.X) / (time.perf_counter() - t0))
        bits = designer.predict(inp.X_val)
        self.val_accs.append(float(np.mean(bits == (inp.Y_val >= 0.5))))
        blob = network.save_checkpoint(designer.network_, designer.adam_state_)
        self.checkpoint_bytes = len(blob)
        return (oracles.check_fit(bits, inp.Y_val, designer.train_mse_)
                + oracles.check_checkpoint(blob, lambda b: network.load_checkpoint(b)[0],
                                           inp.X_val, designer.predict_proba(inp.X_val)))

    def metrics(self):
        return {"train_samples_per_s": statistics.median(self.rates),
                "train_val_acc": statistics.median(self.val_accs)}


class DesignPhase(Phase):
    """One target at a time: designer.design, then verify_design on the result."""

    name = "design"
    unit = "targets"
    ops_per_round = DESIGN_TARGETS

    def __init__(self, inputs: Inputs, expected):
        super().__init__()
        self.inputs = inputs
        self.expected = expected
        self.design_s = []
        self.p99_s = []
        self.loop_rates = []
        self.matches = []

    def run_round(self):
        designer = self.inputs.designer
        problems = []
        matches = []
        busy = 0.0
        for target, expected in zip(self.inputs.targets, self.expected):
            t0 = time.perf_counter()
            cell = designer.design(target)
            t1 = time.perf_counter()
            report = pipeline.verify_design(cell, target)
            t2 = time.perf_counter()
            self.design_s.append(t1 - t0)
            busy += t2 - t0
            matches.append(report.overall_fraction)
            problems += oracles.check_design(cell.tiles, expected, t1 - t0)
        self.p99_s.append(float(np.quantile(self.design_s[-len(matches):], 0.99)))
        self.loop_rates.append(len(matches) / busy)
        self.matches = matches
        return problems

    def metrics(self):
        return {"design_p50_us": statistics.median(self.design_s) * 1e6,
                "closed_loop_per_s": statistics.median(self.loop_rates),
                "closed_loop_match": float(np.mean(self.matches))}

    def summary(self):
        # The tail is reported but not bounded: from run to run it follows the
        # machine's interruptions more than the program (README).
        return (super().summary() + f"; design_p99_us = "
                f"{statistics.median(self.p99_s) * 1e6:.1f} us (median over rounds of "
                f"the p99 of {DESIGN_TARGETS} calls)")
