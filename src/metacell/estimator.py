"""Scikit-learn style estimator: 24 notch features in, 48 structure bits out."""

from __future__ import annotations

import time

import numpy as np

from . import network as nn
from .features import INPUT_WIDTH, DesignTarget, assemble_input
from .geometry import N_BITS, UnitCell, decode_bits, decode_soft


class TrainingDivergedError(RuntimeError):
    """Training loss became non-finite."""


class NotFittedError(ValueError):
    """Estimator used before fit()."""


def check_array(X, width, name="X"):
    """Coerce to a finite 2-D float array with the given column count.

    A single sample may be passed 1-D and comes back as one row.
    """
    arr = np.asarray(X, dtype=float)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 1-D or 2-D, got ndim={arr.ndim}")
    if arr.shape[1] != width:
        raise ValueError(f"{name} must have {width} columns, got {arr.shape[1]}")
    if arr.shape[0] == 0:
        raise ValueError(f"{name} must contain at least one row")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite values")
    return arr


def check_is_fitted(estimator, attribute="network_"):
    if getattr(estimator, attribute, None) is None:
        raise NotFittedError(
            f"{type(estimator).__name__} is not fitted yet; call fit() first")


def design(network: nn.Network, target: DesignTarget) -> UnitCell:
    """Inverse-design a unit cell from a target via one network evaluation."""
    proba = network.forward(assemble_input(target))
    return decode_bits(decode_soft(proba))


class MetasurfaceDesigner:
    """Dense network mapping normalized notch targets to confined 48-bit codes.

    Follows the scikit-learn estimator conventions: hyperparameters are set
    in the constructor and stored verbatim, fitted state lives in trailing-
    underscore attributes, and fit() returns self.
    """

    def __init__(self, hidden=(64, 128, 256, 256, 128), dropout=0.2,
                 learning_rate=3e-3, epochs=5000, batch_size=None, seed=0,
                 patience=None, min_improvement=1e-6):
        self.hidden = hidden
        self.dropout = dropout
        self.learning_rate = learning_rate
        self.epochs = epochs
        self.batch_size = batch_size
        self.seed = seed
        self.patience = patience
        self.min_improvement = min_improvement

    def get_params(self, deep=True):
        return {
            "hidden": self.hidden,
            "dropout": self.dropout,
            "learning_rate": self.learning_rate,
            "epochs": self.epochs,
            "batch_size": self.batch_size,
            "seed": self.seed,
            "patience": self.patience,
            "min_improvement": self.min_improvement,
        }

    def set_params(self, **params):
        valid = self.get_params()
        for key, value in params.items():
            if key not in valid:
                raise ValueError(f"invalid parameter {key!r} for MetasurfaceDesigner")
            setattr(self, key, value)
        return self

    def fit(self, X, Y, validation=None):
        """Train on inputs X (n, 24) and bit labels Y (n, 48).

        With validation=(X_val, Y_val) the per-epoch validation loss and
        per-bit accuracy are tracked and the best-accuracy parameters are
        restored at the end; early stopping engages when `patience` is set
        and the validation loss stops improving by `min_improvement`.
        """
        X = check_array(X, INPUT_WIDTH, "X")
        Y = check_array(Y, N_BITS, "Y")
        if len(X) != len(Y):
            raise ValueError(f"X and Y disagree on sample count: {len(X)} vs {len(Y)}")
        has_val = validation is not None
        if has_val:
            X_val = check_array(validation[0], INPUT_WIDTH, "X_val")
            Y_val = check_array(validation[1], N_BITS, "Y_val")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")

        net = nn.default_network(hidden=tuple(self.hidden), dropout_rate=self.dropout,
                                 n_in=INPUT_WIDTH, n_out=N_BITS, seed=self.seed)
        net.train_seed = self.seed
        state = nn.AdamState(net.parameters(), alpha=self.learning_rate)
        dropout_seed, batch_seed = np.random.SeedSequence(self.seed).spawn(2)
        dropout_rng = np.random.default_rng(dropout_seed)
        batch_rng = np.random.default_rng(batch_seed)
        batch = len(X) if self.batch_size is None else int(self.batch_size)
        if batch < 1:
            raise ValueError("batch_size must be >= 1")

        train_losses, val_losses, val_accs = [], [], []
        best_acc, best_epoch, best_params = -1.0, -1, None
        stall = 0
        best_val_loss = np.inf
        started = time.perf_counter()
        for epoch in range(self.epochs):
            if batch >= len(X):
                net.forward(X, train=True, rng=dropout_rng)
                grads = net.backward(Y)
                nn.adam_step(net.parameters(), grads, state)
            else:
                order = batch_rng.permutation(len(X))
                for lo in range(0, len(X), batch):
                    idx = order[lo:lo + batch]
                    net.forward(X[idx], train=True, rng=dropout_rng)
                    grads = net.backward(Y[idx])
                    nn.adam_step(net.parameters(), grads, state)
            train_loss = nn.mse(net.forward(X), Y)
            if not np.isfinite(train_loss):
                raise TrainingDivergedError(
                    f"training loss became non-finite at epoch {epoch + 1} "
                    f"(learning_rate={self.learning_rate})")
            train_losses.append(train_loss)
            if has_val:
                proba = net.forward(X_val)
                val_loss = nn.mse(proba, Y_val)
                acc = float(np.mean((proba >= 0.5) == (Y_val >= 0.5)))
                val_losses.append(val_loss)
                val_accs.append(acc)
                if acc > best_acc:
                    best_acc, best_epoch = acc, epoch
                    best_params = [p.copy() for p in net.parameters()]
                if val_loss < best_val_loss - self.min_improvement:
                    best_val_loss = val_loss
                    stall = 0
                else:
                    stall += 1
                    if self.patience is not None and stall >= self.patience:
                        break

        if has_val and best_params is not None:
            for live, best in zip(net.parameters(), best_params):
                live[...] = best
        self.network_ = net
        self.adam_state_ = state
        self.train_mse_ = train_losses
        self.val_mse_ = val_losses
        self.val_accuracy_ = val_accs
        self.best_epoch_ = best_epoch if has_val else len(train_losses) - 1
        self.fit_seconds_ = time.perf_counter() - started
        self.n_features_in_ = INPUT_WIDTH
        return self

    def predict_proba(self, X):
        """Sigmoid activations in (0, 1), shape (n, 48)."""
        check_is_fitted(self)
        X = check_array(X, INPUT_WIDTH, "X")
        return self.network_.forward(X)

    def predict(self, X):
        """Thresholded 48-bit codes, shape (n, 48) uint8."""
        proba = self.predict_proba(X)
        return (proba >= 0.5).astype(np.uint8)

    def score(self, X, Y):
        """Per-bit accuracy against 0/1 labels."""
        Y = check_array(Y, N_BITS, "Y")
        return float(np.mean(self.predict(X) == (Y >= 0.5)))

    def design(self, target: DesignTarget) -> UnitCell:
        """Inverse-design a unit cell for one target."""
        check_is_fitted(self)
        return design(self.network_, target)  # the module function, shared with `infer`
