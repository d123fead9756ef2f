import numpy as np
import pytest

from metacell.estimator import MetasurfaceDesigner, design
from metacell.features import DesignTarget, NotchFeature, target_of_cell
from metacell.geometry import UnitCell, encode_bits
from metacell.network import default_network
from metacell.pipeline import (
    dataset_text,
    evaluate,
    generate_dataset,
    load_dataset,
    prediction_metrics,
    split,
    stack_records,
    verify_design,
)

# chi-square critical value, df=7, p=0.99
CHI2_99_DF7 = 18.4753


@pytest.fixture(scope="module")
def small_dataset():
    return generate_dataset(60, 1234)


class TestGenerateDataset:
    def test_deterministic(self):
        a = generate_dataset(15, 42)
        b = generate_dataset(15, 42)
        for ra, rb in zip(a, b):
            assert ra.cell == rb.cell
            assert np.array_equal(ra.input, rb.input)
            assert np.array_equal(ra.label, rb.label)

    def test_record_independent_of_n(self):
        long = generate_dataset(10, 7)
        short = generate_dataset(4, 7)
        for ra, rb in zip(short, long):
            assert ra.cell == rb.cell

    def test_label_matches_cell(self, small_dataset):
        for rec in small_dataset:
            assert np.array_equal(rec.label, encode_bits(rec.cell))

    def test_input_matches_cell(self, small_dataset):
        from metacell.features import assemble_input
        for rec in small_dataset[:10]:
            assert np.array_equal(rec.input, assemble_input(target_of_cell(rec.cell)))

    def test_slot_histogram_uniform(self):
        records = generate_dataset(2000, 42)
        draws = np.concatenate([rec.cell.tiles for rec in records])
        counts = np.bincount(draws, minlength=8)
        expected = len(draws) / 8
        chi2 = ((counts - expected) ** 2 / expected).sum()
        assert chi2 < CHI2_99_DF7

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            generate_dataset(0, 1)


class TestDatasetFile:
    def test_round_trip(self, small_dataset, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text(dataset_text(small_dataset, 1234))
        loaded, header = load_dataset(path)
        assert header["master_seed"] == 1234
        assert header["format_version"] == 1
        assert "surrogate_version" in header
        assert len(loaded) == len(small_dataset)
        for ra, rb in zip(small_dataset, loaded):
            assert ra.cell == rb.cell
            assert ra.seed_index == rb.seed_index
            assert np.array_equal(ra.input, rb.input)
            assert np.array_equal(ra.label, rb.label)

    def test_rejects_bad_version(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text('{"format_version": 99}\n')
        with pytest.raises(ValueError, match="version"):
            load_dataset(path)


class TestSplit:
    def test_sizes(self, small_dataset):
        train_set, test_set = split(small_dataset, 0.7, 0)
        assert len(train_set) == 42
        assert len(test_set) == 18

    def test_2000_at_07(self):
        records = generate_dataset(2000, 5)
        train_set, test_set = split(records, 0.7, 0)
        assert len(train_set) == 1400
        assert len(test_set) == 600

    def test_disjoint_exhaustive(self, small_dataset):
        for seed in (0, 1, 99):
            train_set, test_set = split(small_dataset, 0.7, seed)
            tr = {r.seed_index for r in train_set}
            te = {r.seed_index for r in test_set}
            assert tr & te == set()
            assert tr | te == {r.seed_index for r in small_dataset}

    def test_seeded(self, small_dataset):
        a = split(small_dataset, 0.7, 3)
        b = split(small_dataset, 0.7, 3)
        assert [r.seed_index for r in a[0]] == [r.seed_index for r in b[0]]

    def test_rejects_empty_and_bad_ratio(self, small_dataset):
        with pytest.raises(ValueError):
            split([], 0.7, 0)
        with pytest.raises(ValueError):
            split(small_dataset, 1.0, 0)


def fit(train_records, val_records, **params):
    X, Y = stack_records(train_records)
    return MetasurfaceDesigner(**params).fit(X, Y, validation=stack_records(val_records))


class TestTrain:
    def test_toy_overfit(self, small_dataset):
        model = fit(small_dataset[:10], small_dataset[10:20],
                    epochs=200, learning_rate=1e-2, dropout=0.0, seed=0)
        assert model.train_mse_[-1] < model.train_mse_[0]
        assert len(model.train_mse_) == len(model.val_mse_) == 200
        assert len(model.val_accuracy_) == 200
        assert all(0.0 <= a <= 1.0 for a in model.val_accuracy_)

    def test_deterministic(self, small_dataset):
        m1 = fit(small_dataset[:30], small_dataset[30:], epochs=20, seed=9)
        m2 = fit(small_dataset[:30], small_dataset[30:], epochs=20, seed=9)
        assert m1.train_mse_ == m2.train_mse_
        for a, b in zip(m1.network_.parameters(), m2.network_.parameters()):
            assert np.array_equal(a, b)

    def test_returns_best_accuracy_network(self, small_dataset):
        model = fit(small_dataset[:30], small_dataset[30:], epochs=30, seed=0)
        metrics = evaluate(model.network_, small_dataset[30:])
        assert metrics["per_bit_accuracy"] == pytest.approx(max(model.val_accuracy_))

    def test_rejects_empty(self, small_dataset):
        X, Y = stack_records(small_dataset)
        with pytest.raises(ValueError, match="at least one row"):
            MetasurfaceDesigner(epochs=1).fit(X[:0], Y[:0], validation=(X, Y))


class OracleStub:
    """Network stand-in that returns the expected labels."""

    def __init__(self, records):
        self._lookup = {tuple(np.round(r.input, 12)): r.label.astype(float)
                        for r in records}

    def forward(self, X):
        return np.stack([self._lookup[tuple(np.round(row, 12))] for row in np.atleast_2d(X)])


class ConstantStub:
    def __init__(self, value):
        self.value = value

    def forward(self, X):
        return np.full((len(np.atleast_2d(X)), 48), self.value)


class TestEvaluate:
    def test_oracle_stub_perfect(self, small_dataset):
        metrics = evaluate(OracleStub(small_dataset), small_dataset)
        assert metrics["per_bit_accuracy"] == 1.0
        assert metrics["per_slot_accuracy"] == 1.0
        assert metrics["exact_cell_rate"] == 1.0
        assert metrics["mse"] == 0.0

    def test_constant_half_equals_bit_balance(self, small_dataset):
        # 0.5 thresholds up to 1, so the constant-0.5 stub is the all-ones
        # predictor and scores exactly the dataset's fraction of one-bits
        metrics = evaluate(ConstantStub(0.5), small_dataset)
        ones = np.stack([r.label for r in small_dataset]).mean()
        assert metrics["per_bit_accuracy"] == pytest.approx(ones)

    def test_metric_ordering(self, small_dataset):
        net = default_network(seed=1)
        rng = np.random.default_rng(0)
        for _ in range(3):
            metrics = evaluate(net, [small_dataset[i] for i in
                                     rng.integers(0, len(small_dataset), 20)])
            assert metrics["exact_cell_rate"] <= metrics["per_slot_accuracy"] + 1e-12
            assert metrics["per_slot_accuracy"] <= metrics["per_bit_accuracy"] + 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            prediction_metrics(np.zeros((2, 47)), np.zeros((2, 47)))


class TestDesign:
    def test_valid_cell_and_deterministic(self):
        net = default_network(seed=2)
        target = DesignTarget(te=(NotchFeature(27.5, -30.0, 0.5),),
                              tm=(NotchFeature(14.0, -22.0, 0.2),))
        cell = design(net, target)
        assert isinstance(cell, UnitCell)
        assert design(net, target) == cell


class TestVerifyDesign:
    def test_self_consistency(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            cell = UnitCell.random(rng)
            report = verify_design(cell, target_of_cell(cell))
            assert report.overall_fraction == 1.0
            assert report.te_fraction == 1.0
            assert report.tm_fraction == 1.0

    def test_empty_target_vacuous(self):
        cell = UnitCell.filled(0)
        report = verify_design(cell, DesignTarget())
        assert report.overall_fraction == 1.0

    def test_mismatch_detected(self):
        # all-0 cell resonates near 6 GHz only; a 30 GHz request cannot match
        cell = UnitCell.filled(0)
        target = DesignTarget(te=(NotchFeature(30.0, -20.0, 0.5),))
        report = verify_design(cell, target)
        assert report.te_fraction == 0.0
        assert report.overall_fraction == 0.0

    def test_to_dict(self):
        cell = UnitCell.filled(0)
        report = verify_design(cell, target_of_cell(cell))
        doc = report.to_dict()
        assert doc["overall_fraction"] == 1.0
        assert doc["te"][0]["matched"] is True
