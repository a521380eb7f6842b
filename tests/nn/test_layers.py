"""DenseLayer forward/backward, including a numerical gradient check."""

import numpy as np
import pytest

from repro.nn.layers import DenseLayer


def make_layer(n_in=4, n_out=3, activation="sigmoid", seed=0):
    return DenseLayer(n_in, n_out, activation=activation,
                      rng=np.random.default_rng(seed))


class TestConstruction:
    def test_shapes(self):
        layer = make_layer(4, 3)
        assert layer.weights.shape == (3, 4)
        assert layer.biases.shape == (3,)
        assert layer.in_features == 4
        assert layer.out_features == 3

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            DenseLayer(0, 3)
        with pytest.raises(ValueError):
            DenseLayer(3, 0)

    def test_repr(self):
        assert "4->3" in repr(make_layer(4, 3))


class TestForward:
    def test_batched_shape(self):
        layer = make_layer(4, 3)
        out = layer.forward(np.zeros((5, 4)))
        assert out.shape == (5, 3)

    def test_single_row_promoted(self):
        layer = make_layer(4, 3)
        assert layer.forward(np.zeros(4)).shape == (1, 3)

    def test_wrong_width_rejected(self):
        with pytest.raises(ValueError):
            make_layer(4, 3).forward(np.zeros((2, 5)))

    def test_matches_equation_5(self):
        # g = F(W x + e), elementwise sigmoid.
        layer = make_layer(2, 1)
        layer.weights[...] = np.array([[1.0, -1.0]])
        layer.biases[...] = np.array([0.5])
        x = np.array([[2.0, 1.0]])
        z = 1.0 * 2.0 - 1.0 * 1.0 + 0.5
        expected = 1.0 / (1.0 + np.exp(-z))
        assert layer.forward(x)[0, 0] == pytest.approx(expected)

    def test_inference_mode_does_not_cache(self):
        layer = make_layer()
        layer.forward(np.zeros((1, 4)), train=False)
        with pytest.raises(RuntimeError):
            layer.backward(np.zeros((1, 3)))


class TestBackward:
    def test_requires_forward_first(self):
        with pytest.raises(RuntimeError):
            make_layer().backward(np.zeros((1, 3)))

    def test_gradient_shapes(self):
        layer = make_layer(4, 3)
        layer.forward(np.random.default_rng(1).normal(size=(5, 4)))
        grad_in = layer.backward(np.ones((5, 3)))
        assert grad_in.shape == (5, 4)
        assert layer.grad_weights.shape == layer.weights.shape
        assert layer.grad_biases.shape == layer.biases.shape

    @pytest.mark.parametrize("activation", ["sigmoid"])
    def test_numerical_gradient_weights(self, activation):
        """Backprop (Eq. 6-8) must match finite differences."""
        rng = np.random.default_rng(2)
        layer = make_layer(3, 2, activation=activation)
        x = rng.normal(size=(4, 3))
        target = rng.normal(size=(4, 2))

        def loss():
            out = layer.forward(x)
            return 0.5 * np.sum((out - target) ** 2)

        out = layer.forward(x)
        layer.backward(out - target)
        analytic_w = layer.grad_weights * x.shape[0]  # undo batch mean
        analytic_b = layer.grad_biases * x.shape[0]

        eps = 1e-6
        for index in np.ndindex(layer.weights.shape):
            layer.weights[index] += eps
            up = loss()
            layer.weights[index] -= 2 * eps
            down = loss()
            layer.weights[index] += eps
            numeric = (up - down) / (2 * eps)
            assert analytic_w[index] == pytest.approx(numeric, abs=1e-4)
        for i in range(layer.biases.size):
            layer.biases[i] += eps
            up = loss()
            layer.biases[i] -= 2 * eps
            down = loss()
            layer.biases[i] += eps
            numeric = (up - down) / (2 * eps)
            assert analytic_b[i] == pytest.approx(numeric, abs=1e-4)

    def test_numerical_gradient_inputs(self):
        rng = np.random.default_rng(3)
        layer = make_layer(3, 2)
        x = rng.normal(size=(1, 3))
        target = rng.normal(size=(1, 2))
        out = layer.forward(x)
        grad_in = layer.backward(out - target)

        def loss(xv):
            return 0.5 * np.sum((layer.forward(xv, train=False) - target) ** 2)

        eps = 1e-6
        for j in range(3):
            dx = np.zeros_like(x)
            dx[0, j] = eps
            numeric = (loss(x + dx) - loss(x - dx)) / (2 * eps)
            assert grad_in[0, j] == pytest.approx(numeric, abs=1e-4)


class TestParameterAccess:
    def test_parameters_are_live_views(self):
        layer = make_layer()
        layer.parameters()["weights"][0, 0] = 123.0
        assert layer.weights[0, 0] == 123.0

    def test_gradients_keys_match(self):
        layer = make_layer()
        assert set(layer.parameters()) == set(layer.gradients())
