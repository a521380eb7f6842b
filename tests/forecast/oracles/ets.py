"""Exponential smoothing (ETS) — RCCR's predictor.

Section IV: "For RCCR, we first used a time series forecasting
technique, i.e., Exponential Smoothing (ETS), to predict the amount of
unused resource of VMs."  Simple and Holt (trend) variants are provided;
RCCR uses Holt so sustained ramps are tracked, which is the behaviour
time-series forecasting shows on *patterned* data — and the lack of
pattern in short-job data is exactly what degrades it (Fig. 6's story).
"""

from __future__ import annotations

import numpy as np

from .forecaster import Forecaster

__all__ = ["SimpleExponentialSmoothing", "HoltLinear"]


class SimpleExponentialSmoothing(Forecaster):
    """Level-only ETS: ``s_t = α x_t + (1 − α) s_{t−1}``."""

    def __init__(self, alpha: float = 0.3) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        self.alpha = alpha
        self._level: float | None = None

    def fit(self, series: np.ndarray) -> "SimpleExponentialSmoothing":
        """Compute the smoothed level over the full history (closed form)."""
        s = self._validate(series)
        a = self.alpha
        n = s.size
        if n == 1:
            self._level = float(s[0])
            return self
        # Closed form of the recursion: level_n = (1-a)^{n-1} x_0 +
        # a Σ_{k=1..n-1} (1-a)^{n-1-k} x_k — one vectorized dot product.
        decay = (1.0 - a) ** np.arange(n - 1, -1, -1, dtype=np.float64)
        weights = a * decay
        weights[0] = decay[0]  # the seed level carries no extra factor a
        self._level = float(weights @ s)
        return self

    def update(self, value: float) -> None:
        """Incorporate one new observation without refitting."""
        if self._level is None:
            self._level = float(value)
        else:
            self._level = self.alpha * float(value) + (1.0 - self.alpha) * self._level

    def forecast(self, horizon: int = 1) -> float:
        """Flat forecast at the smoothed level (any horizon)."""
        if self._level is None:
            raise RuntimeError("forecaster not fitted")
        if horizon < 1:
            raise ValueError("horizon must be >= 1")
        return self._level


class HoltLinear(Forecaster):
    """Holt's linear-trend ETS.

    ``level_t = α x_t + (1−α)(level_{t−1} + trend_{t−1})``;
    ``trend_t = β (level_t − level_{t−1}) + (1−β) trend_{t−1}``;
    forecast ``h`` ahead is ``level + h · trend``.
    """

    def __init__(self, alpha: float = 0.3, beta: float = 0.1) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        if not 0.0 <= beta <= 1.0:
            raise ValueError("beta must be in [0, 1]")
        self.alpha = alpha
        self.beta = beta
        self._level: float | None = None
        self._trend: float = 0.0

    def fit(self, series: np.ndarray) -> "HoltLinear":
        """Run the level/trend recursions over the full history."""
        s = self._validate(series)
        self._level = float(s[0])
        self._trend = float(s[1] - s[0]) if s.size > 1 else 0.0
        for x in s[1:]:
            self.update(float(x))
        return self

    def update(self, value: float) -> None:
        """One-step online update of level and trend."""
        if self._level is None:
            self._level = float(value)
            self._trend = 0.0
            return
        prev_level = self._level
        self._level = self.alpha * value + (1.0 - self.alpha) * (
            prev_level + self._trend
        )
        self._trend = self.beta * (self._level - prev_level) + (
            1.0 - self.beta
        ) * self._trend

    def forecast(self, horizon: int = 1) -> float:
        """Level plus ``horizon`` steps of the smoothed trend."""
        if self._level is None:
            raise RuntimeError("forecaster not fitted")
        if horizon < 1:
            raise ValueError("horizon must be >= 1")
        return self._level + horizon * self._trend
