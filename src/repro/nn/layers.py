"""Fully-connected layers implementing the paper's Eq. 5-8.

* Feed-forward (Eq. 5): ``g_i(d) = F(Σ_j w_ij · g_j(d−1) + e_i)``.
* Back-propagation (Eq. 6-7): error terms scaled by ``F'(g)`` and pushed
  down through the transposed weights.
* Weight update (Eq. 8): ``Δw_ij = μ · E_i(d) · g_j(d−1)``.

Everything is batched: activations are ``(batch, units)`` arrays and the
weight gradient is the batch-mean of the paper's per-input outer product.
A layer may also hold a stack of ``K`` networks' parameters, weights
``(K, out, in)`` and biases ``(K, out)`` against ``(K, batch, units)``
activations (:func:`repro.nn.training.train` runs one): every matrix
product then runs per item through the BLAS call the single layer makes.
"""

from __future__ import annotations

import numpy as np

from .activations import Activation, get_activation
from .initializers import xavier_uniform

__all__ = ["DenseLayer"]


class DenseLayer:
    """One dense layer: weights ``W`` (out × in), biases ``e`` and ``F``."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        activation: Activation | str = "sigmoid",
        *,
        rng: np.random.Generator | None = None,
    ) -> None:
        if in_features < 1 or out_features < 1:
            raise ValueError("layer dimensions must be positive")
        rng = rng or np.random.default_rng(0)
        if isinstance(activation, str):
            activation = get_activation(activation)
        self.activation = activation
        self.weights = xavier_uniform(in_features, out_features, rng)
        self.biases = np.zeros(out_features)
        # caches populated by forward(), consumed by backward()
        self._input: np.ndarray | None = None
        self._output: np.ndarray | None = None
        # gradients populated by backward(), consumed by the optimizer
        self.grad_weights = np.zeros_like(self.weights)
        self.grad_biases = np.zeros_like(self.biases)

    # ------------------------------------------------------------------
    @property
    def in_features(self) -> int:
        """Input width ``c`` of the layer."""
        return self.weights.shape[-1]

    @property
    def out_features(self) -> int:
        """Number of neurons in the layer."""
        return self.weights.shape[-2]

    # ------------------------------------------------------------------
    def forward(self, x: np.ndarray, *, train: bool = True) -> np.ndarray:
        """Feed-forward evaluation (Eq. 5) for a ``(..., in)`` input."""
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        if x.shape[-1] != self.in_features:
            raise ValueError(
                f"expected input width {self.in_features}, got {x.shape[-1]}"
            )
        z = x @ self.weights.swapaxes(-1, -2) + self.biases[..., None, :]
        g = self.activation(z)
        if train:
            self._input = x
            self._output = g
        return g

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        """Back-propagate (Eq. 6-7); returns the gradient for the layer below.

        ``grad_output`` is ``∂Loss/∂g`` of *this* layer's activations.  The
        error term ``E = ∂Loss/∂g · F'(g)`` matches Eq. 6 at the output
        layer (where ``∂Loss/∂g = g − t``) and Eq. 7 inside the stack.
        """
        if self._input is None or self._output is None:
            raise RuntimeError("backward() before forward(train=True)")
        grad_output = np.atleast_2d(grad_output)
        batch = grad_output.shape[-2]
        error = grad_output * self.activation.deriv(self._output)  # E (Eq. 6/7)
        # Eq. 8's per-input outer product E_i · g_j, averaged over the batch.
        self.grad_weights = error.swapaxes(-1, -2) @ self._input / batch
        self.grad_biases = error.sum(axis=-2) / batch  # the batch mean
        return error @ self.weights

    def parameters(self) -> dict[str, np.ndarray]:
        """Live parameter arrays keyed by name (for optimizers/serialization)."""
        return {"weights": self.weights, "biases": self.biases}

    def gradients(self) -> dict[str, np.ndarray]:
        """Gradients matching :meth:`parameters` keys."""
        return {"weights": self.grad_weights, "biases": self.grad_biases}

    def __repr__(self) -> str:
        return (
            f"DenseLayer({self.in_features}->{self.out_features}, "
            f"{self.activation.name})"
        )
