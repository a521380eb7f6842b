"""Feed-forward deep neural network (paper Section III-A.1a, Fig. 2).

The paper builds a DNN with multiple hidden layers (Table II: ``h = 4``
layers of ``N_n = 50`` units) and trains it with the three steps of
Section III-A.1a — feed-forward evaluation (Eq. 5), back-propagation
(Eq. 6-7) and weight updates (Eq. 8) — repeated over epochs until a
held-out validation error converges (the loop lives in
:mod:`repro.nn.training`, which trains several networks as one stack of
layers).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .layers import DenseLayer

__all__ = ["FeedForwardNetwork"]


class FeedForwardNetwork:
    """A stack of :class:`DenseLayer` with a regression head.

    Parameters
    ----------
    layer_sizes:
        Unit counts including input and output, e.g. ``[6, 50, 50, 50, 50, 1]``
        for the paper's 4×50 hidden stack over a 6-slot input window.

    Every layer is a sigmoid (the paper's Eq. 5), so outputs stay in
    ``(0, 1)`` — natural since the targets are fractions of a request.
    """

    def __init__(self, layer_sizes: Sequence[int], *, seed: int = 0) -> None:
        sizes = list(layer_sizes)
        if len(sizes) < 2:
            raise ValueError("need at least input and output sizes")
        if any(s < 1 for s in sizes):
            raise ValueError("layer sizes must be positive")
        rng = np.random.default_rng(seed)
        self.layers: list[DenseLayer] = []
        for n_in, n_out in zip(sizes[:-1], sizes[1:]):
            self.layers.append(DenseLayer(n_in, n_out, rng=rng))

    # ------------------------------------------------------------------
    @property
    def input_size(self) -> int:
        """Width of the input layer."""
        return self.layers[0].in_features

    # ------------------------------------------------------------------
    def predict(self, x: np.ndarray) -> np.ndarray:
        """Feed-forward evaluation without caching (inference path)."""
        out = np.atleast_2d(np.asarray(x, dtype=np.float64))
        for layer in self.layers:
            out = layer.forward(out, train=False)
        return out

    def predict_rows(self, x: np.ndarray) -> np.ndarray:
        """Inference over ``(n, in)`` rows, each bit-identical to
        ``predict(row[None, :])``.

        The rows go through as a stack of ``(1, in)`` matrices: matmul
        runs every ``(1, in) @ (in, out)`` item through the same
        vector-matrix kernel a single row takes.  The plain ``(n, in)``
        product is a matrix-matrix kernel whose blocked sums differ from
        it in the last bit (up to 2.5e-16 already at ``n = 2``).
        """
        out = np.asarray(x, dtype=np.float64)[:, None, :]
        for layer in self.layers:
            out = layer.forward(out, train=False)
        return out[:, 0, :]

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Feed-forward with caches for a subsequent backward pass."""
        out = np.atleast_2d(np.asarray(x, dtype=np.float64))
        for layer in self.layers:
            out = layer.forward(out, train=True)
        return out

    def backward(self, grad_output: np.ndarray) -> None:
        """Propagate ``∂Loss/∂output`` down the stack (Eq. 6-7)."""
        grad = grad_output
        for layer in reversed(self.layers):
            grad = layer.backward(grad)

    # ------------------------------------------------------------------
    def get_weights(self) -> list[dict[str, np.ndarray]]:
        """Copies of every layer's parameters (for checkpointing)."""
        return [
            {k: v.copy() for k, v in layer.parameters().items()}
            for layer in self.layers
        ]

    def set_weights(self, weights: list[dict[str, np.ndarray]]) -> None:
        """Restore parameters captured by :meth:`get_weights`."""
        if len(weights) != len(self.layers):
            raise ValueError("weight list does not match layer count")
        for layer, saved in zip(self.layers, weights):
            params = layer.parameters()
            for name, value in saved.items():
                if params[name].shape != value.shape:
                    raise ValueError(f"shape mismatch for {name}")
                params[name][...] = value

    def __repr__(self) -> str:
        arch = " -> ".join(
            [str(self.input_size)] + [str(l.out_features) for l in self.layers]
        )
        return f"FeedForwardNetwork({arch})"
