"""Loss functions and their gradients for DNN training.

The paper's back-propagation starts from the output-layer error term
``E_i = (t_i − g_i) · F'(g_i)`` (Eq. 6), i.e. squared-error loss.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = ["Loss", "MSE", "pinball"]


@dataclass(frozen=True)
class Loss:
    """A loss value and its gradient w.r.t. the prediction."""

    name: str
    #: ``fn(pred, target) -> float`` — the loss value.
    fn: Callable[[np.ndarray, np.ndarray], float]
    #: ``grad(pred, target) -> array`` — ∂loss/∂pred, elementwise.
    grad: Callable[[np.ndarray, np.ndarray], np.ndarray]


def _mse(pred: np.ndarray, target: np.ndarray) -> float:
    return float(np.mean((pred - target) ** 2))


def _mse_grad(pred: np.ndarray, target: np.ndarray) -> np.ndarray:
    # d/dpred of mean squared error, without the 1/n factor folded in:
    # matches the paper's per-output error term (t − g) up to sign.
    return pred - target


MSE = Loss("mse", _mse, _mse_grad)


def pinball(tau: float) -> Loss:
    """Quantile (pinball) loss at level ``tau``.

    Training with ``pinball(0.1)`` makes the network estimate the 10th
    percentile of the target — the *conservative* unused-resource
    estimate CORP needs so that the realized amount exceeds the
    prediction most of the time (the ``0 ≤ δ`` half of Eq. 21).
    """
    if not 0.0 < tau < 1.0:
        raise ValueError("tau must be in (0, 1)")

    def fn(pred: np.ndarray, target: np.ndarray) -> float:
        diff = target - pred
        return float(np.mean(np.maximum(tau * diff, (tau - 1.0) * diff)))

    def grad(pred: np.ndarray, target: np.ndarray) -> np.ndarray:
        # d/dpred: −τ where pred < target, (1 − τ) where pred > target.
        return np.where(pred < target, -tau, 1.0 - tau)

    return Loss(f"pinball_{tau:g}", fn, grad)

