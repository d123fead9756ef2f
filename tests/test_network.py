import numpy as np
import pytest

from metacell import network as nn
from metacell.network import (
    AdamState,
    CheckpointError,
    DenseLayer,
    DropoutLayer,
    Network,
    adam_step,
    default_network,
    load_checkpoint,
    mse,
    save_checkpoint,
    sigmoid,
)


def relu(z):
    """A 1-wide relu dense layer with unit weight, so forward(z) = relu(z)."""
    net = Network([DenseLayer(1, 1, "relu", weights=[[1.0]], biases=[0.0])])
    return net.forward(np.array([z]))[0]


def identity_then_dropout(width, rate):
    """Identity dense layer before a dropout layer, so forward() shows the dropout alone."""
    return Network([DenseLayer(width, width, "identity", weights=np.eye(width)),
                    DropoutLayer(rate)])


class TestActivations:
    def test_relu_negative(self):
        assert relu(-1.0) == 0.0

    def test_relu_zero(self):
        assert relu(0.0) == 0.0

    def test_relu_positive(self):
        assert relu(2.5) == 2.5

    def test_sigmoid_midpoint(self):
        assert sigmoid(0.0) == 0.5

    def test_sigmoid_symmetry(self):
        for z in np.linspace(-30, 30, 13):
            assert sigmoid(z) + sigmoid(-z) == pytest.approx(1.0, abs=1e-12)

    def test_sigmoid_stable_tail(self):
        v = sigmoid(-50.0)
        assert 0.0 <= v <= 1e-20
        assert np.isfinite(sigmoid(-700.0))
        assert np.isfinite(sigmoid(700.0))


class TestDenseForward:
    def test_identity(self):
        layer = DenseLayer(3, 3, "identity", weights=np.eye(3), biases=np.zeros(3))
        x = np.array([1.0, -2.0, 3.0])
        assert np.array_equal(Network([layer]).forward(x), x)

    def test_zero_weights_relu_bias(self):
        b = np.array([1.0, -1.0, 0.5])
        layer = DenseLayer(2, 3, "relu", weights=np.zeros((3, 2)), biases=b)
        out = Network([layer]).forward(np.array([5.0, 7.0]))
        assert np.array_equal(out, np.maximum(b, 0.0))

    def test_hand_computed(self):
        layer = DenseLayer(2, 2, "identity",
                           weights=np.array([[1.0, 2.0], [3.0, 4.0]]),
                           biases=np.array([1.0, -1.0]))
        assert np.array_equal(Network([layer]).forward(np.array([1.0, 1.0])),
                              np.array([4.0, 6.0]))

    def test_width_mismatch(self):
        layer = DenseLayer(3, 2, "relu", rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            Network([layer]).forward(np.zeros(4))


class TestDropoutForward:
    def test_zero_rate_train_identity(self):
        net = identity_then_dropout(100, 0.0)
        x = np.random.default_rng(0).normal(size=100)
        out = net.forward(x, train=True, rng=np.random.default_rng(1))
        (mask,) = net.recorded_masks()
        assert np.array_equal(out, x)
        assert mask.all()

    def test_infer_identity(self):
        net = identity_then_dropout(100, 0.7)
        x = np.random.default_rng(0).normal(size=100)
        assert np.array_equal(net.forward(x), x)

    def test_train_statistics(self):
        net = identity_then_dropout(1, 0.5)
        x = np.ones((100_000, 1))
        out = net.forward(x, train=True, rng=np.random.default_rng(5))
        (mask,) = net.recorded_masks()
        zero_fraction = (out == 0.0).mean()
        assert zero_fraction == pytest.approx(0.5, abs=0.01)
        assert np.allclose(out[out != 0.0], 2.0)
        assert np.array_equal(out == 0.0, mask == 0.0)

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            DropoutLayer(1.0)
        with pytest.raises(ValueError):
            DropoutLayer(-0.1)


class TestMse:
    def test_zero_iff_equal(self):
        x = np.array([1.0, 2.0, 3.0])
        assert mse(x, x) == 0.0

    def test_hand_computed(self):
        assert mse(np.array([1.0, 0.0]), np.array([0.0, 0.0])) == 0.5

    def test_constant_residual(self):
        pred = np.full(48, 0.5)
        target = np.random.default_rng(0).integers(0, 2, 48).astype(float)
        assert mse(pred, target) == pytest.approx(0.25)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            mse(np.zeros(3), np.zeros(4))


def finite_difference_check(net, x, y, h=1e-5, rtol=1e-4):
    """Compare backward() to central finite differences with replayed masks."""
    rng = np.random.default_rng(99)
    net.forward(x, train=True, rng=rng)
    masks = net.recorded_masks()
    grads = net.backward(y)
    params = net.parameters()

    def loss():
        return mse(net.forward(x, dropout_masks=masks), y)

    worst = 0.0
    for p, g in zip(params, grads):
        for idx in np.ndindex(p.shape):
            orig = p[idx]
            p[idx] = orig + h
            hi = loss()
            p[idx] = orig - h
            lo = loss()
            p[idx] = orig
            fd = (hi - lo) / (2 * h)
            err = abs(fd - g[idx]) / max(abs(fd), abs(g[idx]), 1e-6)
            worst = max(worst, err)
    assert worst < rtol, f"worst relative gradient error {worst}"
    return worst


class TestBackward:
    def test_requires_recorded_forward(self):
        net = default_network(hidden=(4,), dropout_rate=0.0, n_in=3, n_out=2, seed=0)
        with pytest.raises(RuntimeError):
            net.backward(np.zeros(2))

    def test_zero_residual_zero_gradients(self):
        net = Network([DenseLayer(3, 2, "identity",
                                  weights=np.zeros((2, 3)), biases=np.zeros(2))])
        x = np.random.default_rng(0).normal(size=(4, 3))
        out = net.forward(x, train=True, rng=np.random.default_rng(1))
        grads = net.backward(out)
        assert all(np.array_equal(g, np.zeros_like(g)) for g in grads)

    def test_single_layer_analytic(self):
        # identity activation, one sample: dL/dW = (2/m) * (y - t) x^T
        w = np.array([[1.0, 2.0], [3.0, 4.0]])
        net = Network([DenseLayer(2, 2, "identity", weights=w, biases=np.array([1.0, -1.0]))])
        x = np.array([1.0, 1.0])
        t = np.array([0.0, 0.0])
        y = net.forward(x, train=True, rng=np.random.default_rng(0))
        grads = net.backward(t)
        m = 2
        expected_w = (2.0 / m) * np.outer(y - t, x)
        expected_b = (2.0 / m) * (y - t)
        assert np.allclose(grads[0], expected_w)
        assert np.allclose(grads[1], expected_b)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(12)
        net = Network([
            DenseLayer(24, 8, "relu", rng=rng),
            DropoutLayer(0.25),
            DenseLayer(8, 48, "sigmoid", rng=rng),
        ], seed=12)
        x = rng.normal(0, 1, (3, 24))
        y = rng.random((3, 48))
        finite_difference_check(net, x, y)

    def test_gradients_all_layer_kinds(self):
        for seed in (1, 2, 3):
            rng = np.random.default_rng(seed)
            net = Network([
                DenseLayer(5, 6, "relu", rng=rng),
                DropoutLayer(0.4),
                DenseLayer(6, 4, "identity", rng=rng),
                DropoutLayer(0.2),
                DenseLayer(4, 3, "sigmoid", rng=rng),
            ], seed=seed)
            x = rng.normal(0, 1, (2, 5))
            y = rng.random((2, 3))
            finite_difference_check(net, x, y)


class TestDropoutExpectation:
    def test_train_expectation_matches_infer(self):
        # inverted dropout: E[train-mode activations] equals infer activations
        rng = np.random.default_rng(42)
        net = Network([
            DenseLayer(6, 5, "relu", rng=rng),
            DropoutLayer(0.3),
            DenseLayer(5, 4, "identity", rng=rng),
        ], seed=42)
        x = rng.normal(0, 1, 6)
        infer = net.forward(x)
        draws = np.stack([net.forward(x, train=True, rng=rng) for _ in range(4000)])
        sem = draws.std(axis=0) / np.sqrt(len(draws))
        assert np.all(np.abs(draws.mean(axis=0) - infer) <= 3 * sem + 1e-12)


class TestNetwork:
    def test_default_stack_shape(self):
        net = default_network()
        assert len(net.layers) == 11
        assert net.input_width == 24
        assert net.output_width == 48
        kinds = [l.kind for l in net.layers]
        assert kinds == ["dense", "dropout"] * 5 + ["dense"]
        assert net.layers[-1].activation == "sigmoid"

    def test_output_strictly_inside_unit_interval(self):
        net = default_network(seed=3)
        rng = np.random.default_rng(4)
        out = net.forward(rng.random((20, 24)))
        assert out.min() > 0.0
        assert out.max() < 1.0

    def test_infer_deterministic(self):
        net = default_network(seed=5)
        x = np.random.default_rng(6).random((7, 24))
        assert np.array_equal(net.forward(x), net.forward(x))

    def test_width_mismatch(self):
        net = default_network(seed=0)
        with pytest.raises(ValueError):
            net.forward(np.zeros(23))

    def test_inconsistent_stack_rejected(self):
        with pytest.raises(ValueError):
            Network([DenseLayer(3, 4, "relu", rng=np.random.default_rng(0)),
                     DenseLayer(5, 2, "relu", rng=np.random.default_rng(1))])


class TestAdam:
    def test_zero_gradient_no_move(self):
        theta = np.array([1.0, -2.0])
        state = AdamState([theta])
        adam_step([theta], [np.zeros(2)], state)
        assert np.array_equal(theta, [1.0, -2.0])

    def test_first_step_is_signed_lr(self):
        theta = np.zeros(3)
        g = np.array([0.5, -3.0, 10.0])
        state = AdamState([theta], alpha=1e-3)
        adam_step([theta], [g], state)
        assert np.allclose(theta, -1e-3 * np.sign(g), atol=1e-6)

    def test_matches_scalar_recurrence(self):
        # independent recurrence for f(theta) = theta^2, gradient 2*theta
        alpha, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
        ref = 1.0
        m = v = 0.0
        trace = []
        for t in range(1, 201):
            g = 2.0 * ref
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            ref -= alpha * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)
            trace.append(ref)

        theta = np.array([1.0])
        state = AdamState([theta], alpha=alpha)
        for t in range(200):
            adam_step([theta], [2.0 * theta.copy()], state)
            assert theta[0] == pytest.approx(trace[t], abs=1e-12)
        assert abs(theta[0]) < 0.05

    def test_shape_mismatch(self):
        theta = np.zeros(3)
        state = AdamState([theta])
        with pytest.raises(ValueError):
            adam_step([theta], [np.zeros(4)], state)


class TestCheckpoint:
    def make_net(self, seed=21):
        rng = np.random.default_rng(seed)
        net = Network([
            DenseLayer(24, 16, "relu", rng=rng),
            DropoutLayer(0.2),
            DenseLayer(16, 48, "sigmoid", rng=rng),
        ], seed=seed, train_seed=77)
        return net

    def test_round_trip_forward_identical(self):
        net = self.make_net()
        state = AdamState(net.parameters(), alpha=2e-3)
        state.t = 5
        for m in state.m:
            m += 0.125
        data = save_checkpoint(net, state)
        net2, state2 = load_checkpoint(data)
        rng = np.random.default_rng(1)
        for _ in range(100):
            x = rng.random(24)
            assert np.array_equal(net.forward(x), net2.forward(x))
        assert net2.seed == net.seed
        assert net2.train_seed == 77
        assert state2.t == 5
        assert state2.alpha == 2e-3
        assert all(np.array_equal(a, b) for a, b in zip(state.m, state2.m))
        assert all(np.array_equal(a, b) for a, b in zip(state.v, state2.v))

    def test_round_trip_without_state(self):
        net = self.make_net()
        net2, state2 = load_checkpoint(save_checkpoint(net))
        assert state2 is None
        x = np.random.default_rng(2).random((5, 24))
        assert np.array_equal(net.forward(x), net2.forward(x))

    def test_save_load_save_bit_identical(self):
        net = self.make_net()
        data = save_checkpoint(net)
        net2, _ = load_checkpoint(data)
        assert save_checkpoint(net2) == data

    def test_corrupted_magic(self):
        data = bytearray(save_checkpoint(self.make_net()))
        data[0:4] = b"XXXX"
        with pytest.raises(CheckpointError):
            load_checkpoint(bytes(data))

    def test_truncation_reports_offset(self):
        data = save_checkpoint(self.make_net())
        with pytest.raises(CheckpointError, match="offset"):
            load_checkpoint(data[: len(data) // 2])

    def test_flipped_payload_fails_checksum(self):
        data = bytearray(save_checkpoint(self.make_net()))
        data[200] ^= 0xFF
        with pytest.raises(CheckpointError, match="checksum"):
            load_checkpoint(bytes(data))

    def test_default_topology_under_6mb(self):
        net = nn.default_network(seed=0)
        state = AdamState(net.parameters())
        assert len(save_checkpoint(net, state)) < 6 * 1024 * 1024
