"""Parameter-update rules.

The paper uses plain gradient descent with learning rate ``μ`` (Eq. 8),
the ``train_batch`` default; the CORP predictor trains with Adam.
Optimizers mutate parameter arrays in place (no reallocation in the
training hot loop, per the HPC guide's in-place-operations idiom).
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

__all__ = ["Optimizer", "SGD", "Adam"]


class Optimizer(ABC):
    """Updates named parameter arrays given equally named gradients."""

    @abstractmethod
    def step(self, param_id: str, param: np.ndarray, grad: np.ndarray) -> None:
        """Apply one update in place.

        ``param_id`` must be unique per parameter array (e.g.
        ``"layer3/weights"``) so stateful optimizers keep separate slots.
        """


class SGD(Optimizer):
    """Plain gradient descent — the paper's Eq. 8 with learning rate μ."""

    def __init__(self, learning_rate: float = 0.1) -> None:
        if learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        self.learning_rate = learning_rate

    def step(self, param_id: str, param: np.ndarray, grad: np.ndarray) -> None:
        """``param ← param − μ · grad`` in place."""
        param -= self.learning_rate * grad


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
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}
        self._t: dict[str, int] = {}

    def step(self, param_id: str, param: np.ndarray, grad: np.ndarray) -> None:
        """Bias-corrected adaptive-moment update in place."""
        m = self._m.setdefault(param_id, np.zeros_like(param))
        v = self._v.setdefault(param_id, np.zeros_like(param))
        t = self._t.get(param_id, 0) + 1
        self._t[param_id] = t
        m *= self.beta1
        m += (1.0 - self.beta1) * grad
        v *= self.beta2
        v += (1.0 - self.beta2) * grad * grad
        m_hat = m / (1.0 - self.beta1**t)
        v_hat = v / (1.0 - self.beta2**t)
        param -= self.learning_rate * m_hat / (np.sqrt(v_hat) + self.eps)
