"""Parameter-update rules.

The paper uses plain gradient descent with learning rate ``μ`` (Eq. 8);
the CORP predictor trains with Adam.  An optimizer updates one
``(K, P)`` buffer in place, row ``k`` the flat parameters of network
``k`` of a stack that trains in lockstep; every rule is elementwise, so
a row moves exactly as that network alone would.  A network that stops
early leaves the stack through :meth:`Optimizer.keep`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Sequence

import numpy as np

__all__ = ["Optimizer", "SGD", "Adam"]


class Optimizer(ABC):
    """Updates a parameter buffer given an equally shaped gradient."""

    @abstractmethod
    def step(self, params: np.ndarray, grads: np.ndarray) -> None:
        """Apply one update to ``params`` in place."""

    def keep(self, rows: Sequence[int]) -> None:
        """Keep the state of stack rows ``rows`` only, in that order."""


class SGD(Optimizer):
    """Plain gradient descent — the paper's Eq. 8 with learning rate μ."""

    def __init__(self, learning_rate: float = 0.1) -> None:
        if learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        self.learning_rate = learning_rate

    def step(self, params: np.ndarray, grads: np.ndarray) -> None:
        """``param ← param − μ · grad`` in place."""
        params -= self.learning_rate * grads


class Adam(Optimizer):
    """Adam (Kingma & Ba 2015) — what the CORP predictor trains with."""

    def __init__(
        self,
        learning_rate: float = 0.001,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ) -> None:
        if learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
            raise ValueError("betas must be in [0, 1)")
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self._m: np.ndarray | None = None
        self._v: np.ndarray | None = None
        self._t = 0

    def step(self, params: np.ndarray, grads: np.ndarray) -> None:
        """Bias-corrected adaptive-moment update in place.

        ``param −= μ · m̂ / (√v̂ + ε)`` with ``m̂ = m / (1 − β₁ᵗ)`` and
        ``v̂ = v / (1 − β₂ᵗ)``, each operation into a scratch buffer, in
        the order the expression evaluates.
        """
        if self._m is None or self._v is None:
            self._m = np.zeros_like(params)
            self._v = np.zeros_like(params)
        m, v = self._m, self._v
        a, b = np.empty_like(params), np.empty_like(params)
        self._t += 1
        t = self._t
        m *= self.beta1
        m += np.multiply(grads, 1.0 - self.beta1, out=a)
        v *= self.beta2
        np.multiply(grads, 1.0 - self.beta2, out=a)
        v += np.multiply(a, grads, out=a)
        np.divide(m, 1.0 - self.beta1**t, out=a)
        a *= self.learning_rate
        np.sqrt(np.divide(v, 1.0 - self.beta2**t, out=b), out=b)
        b += self.eps
        params -= np.divide(a, b, out=a)

    def keep(self, rows: Sequence[int]) -> None:
        """Drop the moments of networks that left the stack."""
        if self._m is not None and self._v is not None:
            self._m = self._m[rows]
            self._v = self._v[rows]
