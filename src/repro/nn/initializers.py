"""Weight initialization for the DNN layers."""

from __future__ import annotations

import numpy as np

__all__ = ["xavier_uniform"]


def xavier_uniform(fan_in: int, fan_out: int, rng: np.random.Generator) -> np.ndarray:
    """Glorot/Xavier uniform — the right scale for sigmoid/tanh nets."""
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_out, fan_in))
