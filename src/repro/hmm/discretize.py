"""Symbolization of unused-resource series (paper Section III-A.1b).

From historical data the paper takes the minimum, mean and maximum of
the unused resource (``min``, ``m``, ``max``) and splits ``[min, max]``
into three bands with thresholds

.. math::

    t_1 = min + \\tfrac12 (m - min), \\qquad t_2 = m + \\tfrac12 (max - m)

Observation symbols are assigned from the *fluctuation range*
``Δ_j`` of each window (max − min of the unused amount inside the
window): ``Δ_j ≤ t_1`` → **valley**, ``t_1 < Δ_j < t_2`` → **center**,
``Δ_j ≥ t_2`` → **peak** — exactly the rule below Eq. 8 of the paper.

Symbol indices follow :data:`repro.hmm.model.SYMBOL_NAMES`:
0 = peak, 1 = center, 2 = valley.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["ThresholdBands", "PEAK", "CENTER", "VALLEY", "windowed_observations"]

PEAK: int = 0
CENTER: int = 1
VALLEY: int = 2


@dataclass(frozen=True)
class ThresholdBands:
    """Historical min/mean/max and the derived band thresholds."""

    minimum: float
    mean: float
    maximum: float

    def __post_init__(self) -> None:
        if not (self.minimum <= self.mean <= self.maximum):
            raise ValueError(
                f"need min <= mean <= max, got "
                f"({self.minimum}, {self.mean}, {self.maximum})"
            )

    # ------------------------------------------------------------------
    @classmethod
    def from_history(cls, values: np.ndarray) -> "ThresholdBands":
        """Fit the bands on a 1-D history of unused-resource amounts."""
        v = np.asarray(values, dtype=np.float64).ravel()
        if v.size == 0:
            raise ValueError("history is empty")
        if np.any(~np.isfinite(v)):
            raise ValueError("history contains non-finite values")
        lo, hi = float(v.min()), float(v.max())
        # Pairwise-summation rounding can push the computed mean a few
        # ulps outside [min, max] on near-constant data; clamp it.
        mean = float(min(max(float(v.mean()), lo), hi))
        return cls(minimum=lo, mean=mean, maximum=hi)

    # ------------------------------------------------------------------
    @property
    def lower_threshold(self) -> float:
        """``t_1 = min + ½ (m − min)``."""
        return self.minimum + 0.5 * (self.mean - self.minimum)

    @property
    def upper_threshold(self) -> float:
        """``t_2 = m + ½ (max − m)``."""
        return self.mean + 0.5 * (self.maximum - self.mean)

    def correction_magnitude(self) -> float:
        """The paper's peak/valley adjustment ``min(h − m, m − l)``.

        ``h``/``l`` are the highest/lowest unused amounts in the
        historical period and ``m`` their mean; ``min`` keeps the
        correction conservative (Section III-A.1b's stated rationale).
        """
        return min(self.maximum - self.mean, self.mean - self.minimum)

    # ------------------------------------------------------------------
    def symbolize(self, value: float) -> int:
        """Band of a single fluctuation-range value."""
        if value <= self.lower_threshold:
            return VALLEY
        if value < self.upper_threshold:
            return CENTER
        return PEAK

    def symbolize_many(self, values: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`symbolize` over an array."""
        v = np.asarray(values, dtype=np.float64)
        out = np.full(v.shape, CENTER, dtype=np.int64)
        out[v >= self.upper_threshold] = PEAK
        out[v <= self.lower_threshold] = VALLEY  # wins at t_1 == t_2, as in symbolize
        return out


def windowed_observations(
    series: np.ndarray, window: int, bands: ThresholdBands
) -> np.ndarray:
    """Observation sequence from a raw unused-resource series.

    The paper treats the interval between consecutive observation slots
    as a window and symbolizes each window's range
    ``Δ_j = max(window) − min(window)``.  Returns one symbol per full
    window (``len(series) // window`` symbols).
    """
    s = np.asarray(series, dtype=np.float64).ravel()
    if window < 1:
        raise ValueError("window must be >= 1")
    n_windows = s.size // window
    if n_windows == 0:
        return np.zeros(0, dtype=np.int64)
    trimmed = s[: n_windows * window].reshape(n_windows, window)
    deltas = trimmed.max(axis=1) - trimmed.min(axis=1)
    return bands.symbolize_many(deltas)
