"""SGD / Adam update rules."""

import numpy as np
import pytest

from repro.nn.optimizers import SGD, Adam


class TestSgd:
    def test_update_in_place(self):
        param = np.array([1.0, 2.0])
        SGD(0.1).step(param, np.array([1.0, -1.0]))
        np.testing.assert_allclose(param, [0.9, 2.1])

    def test_paper_equation_8(self):
        # Δw = μ · E · g — one gradient-descent step with rate μ.
        mu = 0.25
        param = np.zeros(3)
        grad = np.array([1.0, 2.0, 3.0])
        SGD(mu).step(param, grad)
        np.testing.assert_allclose(param, -mu * grad)

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            SGD(0.0)


class TestAdam:
    def test_first_step_magnitude(self):
        opt = Adam(learning_rate=0.001)
        param = np.zeros(1)
        opt.step(param, np.array([10.0]))
        # bias-corrected first step ≈ lr regardless of gradient scale
        assert param[0] == pytest.approx(-0.001, rel=1e-3)

    def test_converges_on_quadratic(self):
        opt = Adam(0.1)
        theta = np.array([5.0])
        for _ in range(500):
            opt.step(theta, 2 * theta)  # d/dθ of θ²
        assert abs(theta[0]) < 0.05

    def test_invalid_betas(self):
        with pytest.raises(ValueError):
            Adam(beta1=1.0)
        with pytest.raises(ValueError):
            Adam(beta2=-0.1)

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            Adam(learning_rate=0.0)
