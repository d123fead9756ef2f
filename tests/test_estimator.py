import numpy as np
import pytest

from metacell.estimator import (
    MetasurfaceDesigner,
    NotFittedError,
    TrainingDivergedError,
    check_array,
)
from metacell.features import DesignTarget, NotchFeature
from metacell.geometry import UnitCell


def toy_data(n=32, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.random((n, 24))
    Y = rng.integers(0, 2, (n, 48)).astype(float)
    return X, Y


class TestCheckArray:
    def test_promotes_single_sample(self):
        out = check_array(np.zeros(24), 24)
        assert out.shape == (1, 24)

    def test_rejects_wrong_width(self):
        with pytest.raises(ValueError, match="columns"):
            check_array(np.zeros((3, 23)), 24)

    def test_rejects_nan(self):
        bad = np.zeros((2, 24))
        bad[1, 3] = np.nan
        with pytest.raises(ValueError, match="finite"):
            check_array(bad, 24)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            check_array(np.zeros((0, 24)), 24)


class TestEstimatorApi:
    def test_get_set_params_round_trip(self):
        est = MetasurfaceDesigner(epochs=10, seed=3)
        params = est.get_params()
        est2 = MetasurfaceDesigner().set_params(**params)
        assert est2.get_params() == params

    def test_set_params_rejects_unknown(self):
        with pytest.raises(ValueError):
            MetasurfaceDesigner().set_params(bogus=1)

    def test_unfitted_predict_raises(self):
        X, _ = toy_data()
        with pytest.raises(NotFittedError):
            MetasurfaceDesigner().predict(X)

    def test_fit_returns_self(self):
        X, Y = toy_data()
        est = MetasurfaceDesigner(hidden=(8,), epochs=3, seed=0)
        assert est.fit(X, Y) is est
        assert est.n_features_in_ == 24

    def test_predict_shapes_and_types(self):
        X, Y = toy_data()
        est = MetasurfaceDesigner(hidden=(8,), epochs=3, seed=0).fit(X, Y)
        proba = est.predict_proba(X)
        bits = est.predict(X)
        assert proba.shape == (len(X), 48)
        assert proba.min() > 0.0 and proba.max() < 1.0
        assert bits.dtype == np.uint8
        assert set(np.unique(bits)) <= {0, 1}

    def test_fit_deterministic(self):
        X, Y = toy_data()
        a = MetasurfaceDesigner(hidden=(8,), epochs=5, seed=1).fit(X, Y)
        b = MetasurfaceDesigner(hidden=(8,), epochs=5, seed=1).fit(X, Y)
        assert np.array_equal(a.predict_proba(X), b.predict_proba(X))
        assert a.train_mse_ == b.train_mse_

    def test_mismatched_sample_counts(self):
        X, Y = toy_data()
        with pytest.raises(ValueError):
            MetasurfaceDesigner(epochs=1).fit(X[:10], Y[:9])

    def test_overfits_toy_set(self):
        X, Y = toy_data(n=10, seed=4)
        est = MetasurfaceDesigner(hidden=(32, 32), dropout=0.0, epochs=200,
                                  learning_rate=1e-2, seed=0).fit(X, Y)
        assert est.train_mse_[-1] < est.train_mse_[0]

    def test_loss_non_increasing_with_small_lr(self):
        # full-batch without dropout: a small enough step never raises the
        # loss by more than 1e-3 anywhere along the run
        X, Y = toy_data(n=10, seed=4)
        est = MetasurfaceDesigner(hidden=(16,), dropout=0.0, epochs=150,
                                  learning_rate=1e-3, seed=0).fit(X, Y)
        deltas = np.diff(est.train_mse_)
        assert deltas.max() <= 1e-3

    def test_divergence_detected(self, monkeypatch):
        # the sigmoid head keeps the real loss bounded, so force a non-finite
        # loss to exercise the abort path
        import metacell.estimator as est_mod
        X, Y = toy_data(n=10, seed=4)
        monkeypatch.setattr(est_mod.nn, "mse", lambda a, b: float("nan"))
        est = MetasurfaceDesigner(hidden=(16,), epochs=3, seed=0)
        with pytest.raises(TrainingDivergedError, match="epoch 1"):
            est.fit(X, Y)

    def test_validation_tracking_and_best_restore(self):
        X, Y = toy_data(n=40, seed=5)
        est = MetasurfaceDesigner(hidden=(16,), epochs=30, seed=2)
        est.fit(X[:30], Y[:30], validation=(X[30:], Y[30:]))
        assert len(est.val_mse_) == 30
        assert len(est.val_accuracy_) == 30
        best = max(est.val_accuracy_)
        assert est.score(X[30:], Y[30:]) == pytest.approx(best)

    def test_early_stopping(self):
        X, Y = toy_data(n=40, seed=6)
        est = MetasurfaceDesigner(hidden=(16,), epochs=500, seed=2, patience=5,
                                  learning_rate=0.0)
        est.fit(X[:30], Y[:30], validation=(X[30:], Y[30:]))
        # zero learning rate: epoch 1 sets the baseline, then 5 epochs in a
        # row fail to improve and training stops
        assert len(est.train_mse_) == 6

    def test_minibatch_mode(self):
        X, Y = toy_data(n=33, seed=7)
        est = MetasurfaceDesigner(hidden=(16,), epochs=4, batch_size=8, seed=0)
        est.fit(X, Y)
        assert len(est.train_mse_) == 4


class TestDesign:
    def test_design_returns_valid_cell(self):
        X, Y = toy_data()
        est = MetasurfaceDesigner(hidden=(8,), epochs=2, seed=0).fit(X, Y)
        target = DesignTarget(te=(NotchFeature(27.5, -30.0, 0.5),),
                              tm=(NotchFeature(14.0, -22.0, 0.2),))
        cell = est.design(target)
        assert isinstance(cell, UnitCell)
        assert est.design(target) == cell
