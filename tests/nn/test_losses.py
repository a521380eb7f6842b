"""Losses and gradients, including the pinball (quantile) loss."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.nn.losses import MSE, pinball

vals = st.floats(min_value=-10, max_value=10, allow_nan=False)


class TestMse:
    def test_value(self):
        pred = np.array([[1.0], [3.0]])
        target = np.array([[0.0], [0.0]])
        assert MSE.fn(pred, target) == pytest.approx(5.0)

    def test_zero_at_perfect(self):
        x = np.array([[1.0, 2.0]])
        assert MSE.fn(x, x) == 0.0

    def test_grad_direction(self):
        grad = MSE.grad(np.array([[2.0]]), np.array([[1.0]]))
        assert grad[0, 0] > 0  # prediction above target → push down

    @given(vals, vals)
    def test_grad_matches_paper_error_term(self, p, t):
        # Eq. 6's (t − g) is the negative of our d/dpred convention.
        grad = MSE.grad(np.array([[p]]), np.array([[t]]))
        assert grad[0, 0] == pytest.approx(p - t)


class TestPinball:
    def test_invalid_tau(self):
        for tau in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                pinball(tau)

    def test_median_is_half_mae(self):
        pred = np.array([[1.0], [5.0]])
        target = np.array([[0.0], [0.0]])
        mae = np.mean(np.abs(pred - target))
        assert pinball(0.5).fn(pred, target) == pytest.approx(0.5 * mae)

    def test_asymmetric_penalty(self):
        loss = pinball(0.1)
        over = loss.fn(np.array([[1.0]]), np.array([[0.0]]))   # pred above target
        under = loss.fn(np.array([[0.0]]), np.array([[1.0]]))  # pred below target
        # τ=0.1 punishes over-prediction (pred > target) 9x harder.
        assert over == pytest.approx(0.9)
        assert under == pytest.approx(0.1)

    def test_gradient_values(self):
        loss = pinball(0.25)
        grad = loss.grad(np.array([[0.0], [2.0]]), np.array([[1.0], [1.0]]))
        np.testing.assert_allclose(grad.ravel(), [-0.25, 0.75])

    def test_minimizer_is_quantile(self):
        # Gradient descent on pinball(τ) over constant predictions should
        # converge to the τ-quantile of the targets.
        rng = np.random.default_rng(0)
        targets = rng.exponential(1.0, size=(4000, 1))
        tau = 0.2
        loss = pinball(tau)
        theta = 1.0
        for _ in range(4000):
            grad = loss.grad(np.full_like(targets, theta), targets).mean()
            theta -= 0.01 * grad
        assert theta == pytest.approx(np.quantile(targets, tau), abs=0.05)

    def test_name_embeds_tau(self):
        assert pinball(0.1).name == "pinball_0.1"

