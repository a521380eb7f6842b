"""Activation functions for the from-scratch DNN (paper Eq. 5).

The paper's network uses the sigmoid — "Equ. (5) is a sigmoid function,
which is a nonlinear function associated with all neurons in the network"
— with its derivative feeding the back-propagated error terms (Eq. 6-7).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = ["Activation", "SIGMOID", "get_activation"]


@dataclass(frozen=True)
class Activation:
    """An activation and its derivative expressed in terms of the output.

    ``deriv`` takes the *activation output* ``g`` (not the pre-activation),
    matching the paper's ``F'(g_i(d))`` notation in Eq. 6-7 — for the
    sigmoid, ``F'(g) = g (1 − g)``.
    """

    name: str
    fn: Callable[[np.ndarray], np.ndarray]
    deriv: Callable[[np.ndarray], np.ndarray]

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.fn(x)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # Stable piecewise form, 1 / (1 + e^-x) for x >= 0 and e^x / (1 + e^x)
    # below: exp only sees -|x|, so no overflow warnings on large |x|.
    # The numerator is max(e, [x >= 0]): e <= 1, so 1.0 where x >= 0 and
    # e elsewhere (NaN stays NaN) — np.where's floats, without its select.
    e = np.exp(-np.abs(x))
    return np.maximum(e, x >= 0) / (1.0 + e)


def _sigmoid_deriv(g: np.ndarray) -> np.ndarray:
    return g * (1.0 - g)


SIGMOID = Activation("sigmoid", _sigmoid, _sigmoid_deriv)

_REGISTRY: dict[str, Activation] = {SIGMOID.name: SIGMOID}


def get_activation(name: str) -> Activation:
    """Look an activation up by name (raises ``KeyError`` with options)."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown activation {name!r}; options: {sorted(_REGISTRY)}"
        ) from None
