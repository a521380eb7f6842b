"""FeedForwardNetwork assembly, training step and weight management."""

import numpy as np
import pytest

from repro.nn.losses import MSE
from repro.nn.network import FeedForwardNetwork
from repro.nn.optimizers import SGD, Adam
from repro.nn.training import TrainingConfig, train


class TestConstruction:
    def test_paper_architecture(self):
        # Table II: h = 4 hidden layers of N_n = 50 units.
        net = FeedForwardNetwork([6, 50, 50, 50, 50, 1])
        assert net.input_size == 6
        assert [layer.out_features for layer in net.layers] == [50] * 4 + [1]

    def test_too_few_layers(self):
        with pytest.raises(ValueError):
            FeedForwardNetwork([6])

    def test_zero_width(self):
        with pytest.raises(ValueError):
            FeedForwardNetwork([6, 0, 1])

    def test_output_activation_applied(self):
        # The head is a sigmoid: a fraction of the request, whatever the
        # weights (the pre-activation here is 35).
        net = FeedForwardNetwork([2, 3, 1], seed=1)
        for layer in net.layers:
            layer.weights[...] = 10.0
            layer.biases[...] = 5.0
        out = net.predict(np.ones((4, 2)))
        assert np.all(out > 0) and np.all(out <= 1)

    def test_seed_determinism(self):
        a = FeedForwardNetwork([3, 4, 1], seed=5)
        b = FeedForwardNetwork([3, 4, 1], seed=5)
        np.testing.assert_array_equal(a.layers[0].weights, b.layers[0].weights)

    def test_repr(self):
        assert "6 -> 50" in repr(FeedForwardNetwork([6, 50, 1]))


class TestPrediction:
    def test_shapes(self):
        net = FeedForwardNetwork([4, 8, 2])
        assert net.predict(np.zeros((7, 4))).shape == (7, 2)
        assert net.predict(np.zeros(4)).shape == (1, 2)

    def test_forward_then_backward_runs(self):
        net = FeedForwardNetwork([4, 8, 2])
        out = net.forward(np.zeros((3, 4)))
        net.backward(np.ones_like(out))  # must not raise

    def test_predict_does_not_disturb_training_cache(self):
        net = FeedForwardNetwork([2, 4, 1])
        x = np.ones((2, 2))
        net.forward(x)
        net.predict(np.zeros((5, 2)))  # inference in between
        net.backward(np.ones((2, 1)))  # still uses the training cache


def one_batch_epochs(epochs: int) -> TrainingConfig:
    """Every epoch one unshuffled step over the whole data, no hold-out."""
    return TrainingConfig(
        max_epochs=epochs, batch_size=64, validation_fraction=0.0,
        patience=epochs, shuffle=False,
    )


class TestTraining:
    def test_train_batch_reduces_loss(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(size=(64, 3))
        y = x.mean(axis=1, keepdims=True)
        net = FeedForwardNetwork([3, 8, 1], seed=2)
        first = MSE.fn(net.predict(x), y)
        train([net], [x], [y], [one_batch_epochs(200)], optimizer=Adam(0.01))
        assert MSE.fn(net.predict(x), y) < first * 0.5

    def test_train_batch_returns_loss(self):
        net = FeedForwardNetwork([2, 4, 1])
        [history] = train(
            [net], [np.zeros((4, 2))], [np.full((4, 1), 0.5)], [one_batch_epochs(1)]
        )
        assert history.train_loss[0] == pytest.approx(
            MSE.fn(np.full((4, 1), net.predict(np.zeros((1, 2)))[0, 0]),
                   np.full((4, 1), 0.5)),
            rel=0.2,
        )

    def test_shape_mismatch_rejected(self):
        net = FeedForwardNetwork([2, 4, 1])
        with pytest.raises(ValueError):
            train([net], [np.zeros((4, 2))], [np.zeros((4, 2))], [one_batch_epochs(1)])

    def test_sgd_default_optimizer(self):
        net = FeedForwardNetwork([2, 4, 1], seed=1)
        before = net.layers[0].weights.copy()
        train([net], [np.ones((4, 2))], [np.zeros((4, 1))], [one_batch_epochs(1)])
        assert not np.array_equal(before, net.layers[0].weights)


class TestWeightManagement:
    def test_roundtrip(self):
        net = FeedForwardNetwork([3, 5, 1], seed=1)
        saved = net.get_weights()
        train([net], [np.ones((4, 3))], [np.zeros((4, 1))], [one_batch_epochs(1)],
              optimizer=SGD(1.0))
        net.set_weights(saved)
        np.testing.assert_array_equal(net.layers[0].weights, saved[0]["weights"])

    def test_get_weights_detached(self):
        net = FeedForwardNetwork([3, 5, 1])
        saved = net.get_weights()
        saved[0]["weights"][0, 0] = 999.0
        assert net.layers[0].weights[0, 0] != 999.0

    def test_set_weights_wrong_count(self):
        net = FeedForwardNetwork([3, 5, 1])
        with pytest.raises(ValueError):
            net.set_weights([])

    def test_set_weights_wrong_shape(self):
        net = FeedForwardNetwork([3, 5, 1])
        bad = net.get_weights()
        bad[0]["weights"] = np.zeros((2, 2))
        with pytest.raises(ValueError):
            net.set_weights(bad)
