"""The one-dimensional time-series contract the oracle forecasters share."""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

__all__ = ["Forecaster"]


class Forecaster(ABC):
    """One-dimensional time-series forecaster.

    Implementations are *online*: feed the history (or update
    incrementally) and ask for a forecast ``horizon`` steps ahead.
    """

    @abstractmethod
    def fit(self, series: np.ndarray) -> "Forecaster":
        """Fit/refit on a full 1-D history."""

    @abstractmethod
    def forecast(self, horizon: int = 1) -> float:
        """Point forecast ``horizon`` steps past the end of the history."""

    def forecast_path(self, horizon: int) -> np.ndarray:
        """Forecasts for steps ``1..horizon`` (default: repeat point calls)."""
        if horizon < 1:
            raise ValueError("horizon must be >= 1")
        return np.array([self.forecast(h) for h in range(1, horizon + 1)])

    @staticmethod
    def _validate(series: np.ndarray) -> np.ndarray:
        s = np.asarray(series, dtype=np.float64).ravel()
        if s.size == 0:
            raise ValueError("series is empty")
        if np.any(~np.isfinite(s)):
            raise ValueError("series contains non-finite values")
        return s
