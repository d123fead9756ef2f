"""Dense feed-forward network in plain NumPy: forward, backprop, Adam, checkpoints.

The model is an ordered stack of fully-connected and dropout layers trained
with mean-square-error loss.  Everything is float64 and seeded, so training
runs and checkpoints are bit-reproducible.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

CHECKPOINT_MAGIC = b"MCNN"
CHECKPOINT_VERSION = 1

_ACTIVATIONS = ("identity", "relu", "sigmoid")


class CheckpointError(ValueError):
    """Raised when checkpoint bytes cannot be parsed."""


def sigmoid(z):
    """1 / (1 + exp(-z)), evaluated without overflow for large |z|."""
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out if out.ndim else float(out)


def _activate(name, z):
    if name == "identity":
        return z
    if name == "relu":
        return np.maximum(z, 0.0)
    return sigmoid(z)


def _activation_grad(name, z, out):
    if name == "identity":
        return np.ones_like(z)
    if name == "relu":
        return (z > 0).astype(float)
    return out * (1.0 - out)


def mse(pred, target) -> float:
    """Mean squared error over all elements; zero iff identical."""
    a = np.asarray(pred, dtype=float)
    b = np.asarray(target, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    if a.size == 0:
        raise ValueError("mse needs at least one element")
    return float(np.mean((a - b) ** 2))


class DenseLayer:
    """Fully-connected layer y = activation(W x + b), W shaped (out, in)."""

    kind = "dense"

    def __init__(self, n_in, n_out, activation="relu", rng=None, weights=None, biases=None):
        if activation not in _ACTIVATIONS:
            raise ValueError(f"unknown activation {activation!r}")
        self.n_in = int(n_in)
        self.n_out = int(n_out)
        self.activation = activation
        if weights is not None:
            self.weights = np.array(weights, dtype=float)
            self.biases = np.array(biases if biases is not None else np.zeros(n_out), dtype=float)
        else:
            if rng is None:
                rng = np.random.default_rng()
            # He for relu, Glorot for sigmoid/identity.
            if activation == "relu":
                std = np.sqrt(2.0 / self.n_in)
            else:
                std = np.sqrt(2.0 / (self.n_in + self.n_out))
            self.weights = rng.normal(0.0, std, (self.n_out, self.n_in))
            self.biases = np.zeros(self.n_out)
        if self.weights.shape != (self.n_out, self.n_in) or self.biases.shape != (self.n_out,):
            raise ValueError("weight/bias shapes inconsistent with layer widths")
        if not (np.isfinite(self.weights).all() and np.isfinite(self.biases).all()):
            raise ValueError("layer parameters must be finite")


class DropoutLayer:
    """Inverted dropout: training zeroes each element with probability rate
    and rescales survivors by 1/(1-rate); inference is the identity."""

    kind = "dropout"

    def __init__(self, rate):
        rate = float(rate)
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = rate


class Network:
    """Ordered dense/dropout stack with recorded-state backpropagation."""

    def __init__(self, layers, seed=None, train_seed=None):
        layers = list(layers)
        if not any(l.kind == "dense" for l in layers):
            raise ValueError("network needs at least one dense layer")
        width = None
        for layer in layers:
            if layer.kind == "dense":
                if width is not None and layer.n_in != width:
                    raise ValueError(
                        f"layer width mismatch: expected input {width}, got {layer.n_in}")
                width = layer.n_out
        self.layers = layers
        self.seed = seed
        self.train_seed = train_seed
        self._cache = None

    @property
    def input_width(self):
        return next(l.n_in for l in self.layers if l.kind == "dense")

    @property
    def output_width(self):
        return [l.n_out for l in self.layers if l.kind == "dense"][-1]

    def dense_layers(self):
        return [l for l in self.layers if l.kind == "dense"]

    def parameters(self):
        """Flat list [W0, b0, W1, b1, ...] over dense layers, as live arrays."""
        params = []
        for layer in self.dense_layers():
            params.append(layer.weights)
            params.append(layer.biases)
        return params

    def forward(self, x, train=False, rng=None, dropout_masks=None):
        """Run the stack.  train=True records state for backward() and applies
        dropout (freshly drawn from rng, or replayed from dropout_masks)."""
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        a = np.atleast_2d(x)
        if a.shape[1] != self.input_width:
            raise ValueError(f"input width {a.shape[1]} != network width {self.input_width}")
        record = train or dropout_masks is not None
        cache = {"dense": [], "masks": []} if record else None
        replay = list(dropout_masks) if dropout_masks is not None else None
        n_dropout = sum(l.kind == "dropout" for l in self.layers)
        if replay is not None and len(replay) != n_dropout:
            raise ValueError(f"expected {n_dropout} dropout masks, got {len(replay)}")
        if train and replay is None and rng is None and n_dropout:
            raise ValueError("train-mode forward needs an rng for dropout")
        for layer in self.layers:
            if layer.kind == "dense":
                z = a @ layer.weights.T + layer.biases
                out = _activate(layer.activation, z)
                if record:
                    cache["dense"].append((a, z, out))
                a = out
            else:
                if not record:
                    continue
                if replay is not None:
                    mask = replay[len(cache["masks"])]
                else:
                    mask = (rng.random(a.shape) >= layer.rate).astype(float)
                cache["masks"].append(mask)
                a = a * mask / (1.0 - layer.rate)
        if record:
            cache["output"] = a
            self._cache = cache
        return a[0] if single else a

    def recorded_masks(self):
        """Dropout masks from the last recorded forward pass, for replay."""
        if self._cache is None:
            raise RuntimeError("no recorded forward pass")
        return [m.copy() for m in self._cache["masks"]]

    def backward(self, target):
        """Gradients of mean-square error w.r.t. every weight and bias.

        Requires a preceding forward(..., train=True) (or mask-replay) call;
        returns a flat list aligned with parameters().
        """
        if self._cache is None:
            raise RuntimeError("backward() requires a recorded forward pass "
                               "(call forward(x, train=True) first)")
        cache = self._cache
        target = np.atleast_2d(np.asarray(target, dtype=float))
        out = cache["output"]
        if target.shape != out.shape:
            raise ValueError(f"target shape {target.shape} != output shape {out.shape}")
        delta = 2.0 * (out - target) / target.size
        grads = []
        dense_idx = len(cache["dense"]) - 1
        mask_idx = len(cache["masks"]) - 1
        for layer in reversed(self.layers):
            if layer.kind == "dense":
                a_in, z, a_out = cache["dense"][dense_idx]
                dense_idx -= 1
                dz = delta * _activation_grad(layer.activation, z, a_out)
                grads.append(dz.sum(axis=0))        # biases
                grads.append(dz.T @ a_in)           # weights
                delta = dz @ layer.weights
            else:
                mask = cache["masks"][mask_idx]
                mask_idx -= 1
                delta = delta * mask / (1.0 - layer.rate)
        grads.reverse()
        return grads


def default_network(hidden=(64, 128, 256, 256, 128), dropout_rate=0.2,
                    n_in=24, n_out=48, seed=0):
    """The default 11-layer stack: five relu dense/dropout pairs, sigmoid head."""
    rng = np.random.default_rng(seed)
    layers = []
    width = n_in
    for h in hidden:
        layers.append(DenseLayer(width, h, "relu", rng=rng))
        layers.append(DropoutLayer(dropout_rate))
        width = h
    layers.append(DenseLayer(width, n_out, "sigmoid", rng=rng))
    return Network(layers, seed=seed)


class AdamState:
    """First/second-moment accumulators and step counter for Adam."""

    def __init__(self, params, alpha=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.alpha = float(alpha)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self.t = 0
        self.m = [np.zeros_like(np.asarray(p, dtype=float)) for p in params]
        self.v = [np.zeros_like(np.asarray(p, dtype=float)) for p in params]


def adam_step(params, grads, state: AdamState):
    """One in-place Adam update: biased moments, bias correction, step."""
    if not (len(params) == len(grads) == len(state.m) == len(state.v)):
        raise ValueError("params, grads, and state must have matching lengths")
    for p, g, m in zip(params, grads, state.m):
        if p.shape != g.shape or p.shape != m.shape:
            raise ValueError(f"shape mismatch: param {p.shape}, grad {g.shape}, state {m.shape}")
    state.t += 1
    c1 = 1.0 - state.beta1 ** state.t
    c2 = 1.0 - state.beta2 ** state.t
    for p, g, m, v in zip(params, grads, state.m, state.v):
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * g * g
        p -= state.alpha * (m / c1) / (np.sqrt(v / c2) + state.eps)
    return params, state


_LAYER_STRUCT = struct.Struct("<BIIBd")
_HEAD_STRUCT = struct.Struct("<4sIqqI")
_ADAM_STRUCT = struct.Struct("<Qdddd")


def save_checkpoint(network: Network, state: AdamState | None = None) -> bytes:
    """Serialize a network (and optional Adam state) to a checksummed byte stream."""
    out = bytearray()
    out += _HEAD_STRUCT.pack(
        CHECKPOINT_MAGIC, CHECKPOINT_VERSION,
        -1 if network.seed is None else int(network.seed),
        -1 if network.train_seed is None else int(network.train_seed),
        len(network.layers))
    for layer in network.layers:
        if layer.kind == "dense":
            act = _ACTIVATIONS.index(layer.activation)
            out += _LAYER_STRUCT.pack(0, layer.n_in, layer.n_out, act, 0.0)
        else:
            out += _LAYER_STRUCT.pack(1, 0, 0, 0, layer.rate)
    for layer in network.dense_layers():
        out += np.ascontiguousarray(layer.weights, dtype="<f8").tobytes()
        out += np.ascontiguousarray(layer.biases, dtype="<f8").tobytes()
    if state is None:
        out += struct.pack("<B", 0)
    else:
        out += struct.pack("<B", 1)
        out += _ADAM_STRUCT.pack(state.t, state.alpha, state.beta1, state.beta2, state.eps)
        for arrays in (state.m, state.v):
            for arr in arrays:
                out += np.ascontiguousarray(arr, dtype="<f8").tobytes()
    out += struct.pack("<I", zlib.crc32(bytes(out)))
    return bytes(out)


class _Reader:
    def __init__(self, data):
        self.data = data
        self.offset = 0

    def take(self, n, what):
        if self.offset + n > len(self.data):
            raise CheckpointError(
                f"truncated checkpoint: need {n} bytes for {what} at offset {self.offset}, "
                f"have {len(self.data) - self.offset}")
        chunk = self.data[self.offset:self.offset + n]
        self.offset += n
        return chunk

    def unpack(self, st, what):
        return st.unpack(self.take(st.size, what))

    def array(self, shape, what):
        count = int(np.prod(shape))
        raw = self.take(count * 8, what)
        return np.frombuffer(raw, dtype="<f8").astype(float).reshape(shape)


def load_checkpoint(data: bytes) -> tuple[Network, AdamState | None]:
    """Parse checkpoint bytes back into (network, adam state or None)."""
    r = _Reader(data)
    magic, version, seed, train_seed, n_layers = r.unpack(_HEAD_STRUCT, "header")
    if magic != CHECKPOINT_MAGIC:
        raise CheckpointError(f"bad magic {magic!r} at offset 0")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    specs = [r.unpack(_LAYER_STRUCT, f"layer record {i}") for i in range(n_layers)]
    layers = []
    for i, (kind, n_in, n_out, act, rate) in enumerate(specs):
        if kind == 0:
            if act >= len(_ACTIVATIONS):
                raise CheckpointError(f"unknown activation code {act} in layer {i}")
            weights = r.array((n_out, n_in), f"weights of layer {i}")
            biases = r.array((n_out,), f"biases of layer {i}")
            layers.append(DenseLayer(n_in, n_out, _ACTIVATIONS[act],
                                     weights=weights, biases=biases))
        elif kind == 1:
            layers.append(DropoutLayer(rate))
        else:
            raise CheckpointError(f"unknown layer kind {kind} in layer {i}")
    (adam_flag,) = r.unpack(struct.Struct("<B"), "adam flag")
    state = None
    network = Network(layers,
                      seed=None if seed == -1 else seed,
                      train_seed=None if train_seed == -1 else train_seed)
    if adam_flag == 1:
        t, alpha, beta1, beta2, eps = r.unpack(_ADAM_STRUCT, "adam hyperparameters")
        params = network.parameters()
        state = AdamState(params, alpha=alpha, beta1=beta1, beta2=beta2, eps=eps)
        state.t = t
        state.m = [r.array(p.shape, f"adam m[{i}]") for i, p in enumerate(params)]
        state.v = [r.array(p.shape, f"adam v[{i}]") for i, p in enumerate(params)]
    elif adam_flag != 0:
        raise CheckpointError(f"bad adam flag {adam_flag}")
    (crc_stored,) = r.unpack(struct.Struct("<I"), "checksum")
    if r.offset != len(data):
        raise CheckpointError(f"{len(data) - r.offset} trailing bytes after checksum")
    if zlib.crc32(data[:r.offset - 4]) != crc_stored:
        raise CheckpointError("checksum mismatch")
    return network, state
