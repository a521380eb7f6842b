"""Discrete-time Markov chain predictor — CloudScale's no-pattern fallback.

Section IV: CloudScale uses "a discrete-time Markov chain to predict the
amount of unused resource of VMs based on historical resource usage
data", and Section IV-A notes its accuracy is limited because "the
correlation between the resource prediction model and the actual
resource demand becomes weaker" over multi-step prediction — which this
implementation reproduces by raising the transition matrix to the
horizon power.
"""

from __future__ import annotations

import numpy as np

from .forecaster import Forecaster

__all__ = ["MarkovChainPredictor"]


class MarkovChainPredictor(Forecaster):
    """Value-binned first-order Markov chain with multi-step prediction.

    The value range of the history is split into ``n_bins`` equal bins;
    transitions between consecutive samples are counted (with Laplace
    smoothing); a forecast ``h`` ahead is the expectation of the bin
    centers under ``row(last_bin) · P^h``.
    """

    def __init__(self, n_bins: int = 8, smoothing: float = 0.5) -> None:
        if n_bins < 2:
            raise ValueError("n_bins must be >= 2")
        if smoothing < 0:
            raise ValueError("smoothing must be non-negative")
        self.n_bins = n_bins
        self.smoothing = smoothing
        self._transition: np.ndarray | None = None
        self._centers: np.ndarray | None = None
        self._last_bin: int | None = None
        self._edges: np.ndarray | None = None

    # ------------------------------------------------------------------
    def _bin_of(self, value: float) -> int:
        assert self._edges is not None
        idx = int(np.searchsorted(self._edges, value, side="right")) - 1
        return int(np.clip(idx, 0, self.n_bins - 1))

    def fit(self, series: np.ndarray) -> "MarkovChainPredictor":
        """Bin the series and count transitions (Laplace-smoothed)."""
        s = self._validate(series)
        lo, hi = float(s.min()), float(s.max())
        if hi - lo <= 1e-12:
            hi = lo + 1.0  # constant series: single populated bin
        self._edges = np.linspace(lo, hi, self.n_bins + 1)
        self._centers = 0.5 * (self._edges[:-1] + self._edges[1:])
        bins = np.clip(
            np.searchsorted(self._edges, s, side="right") - 1, 0, self.n_bins - 1
        )
        counts = np.full((self.n_bins, self.n_bins), self.smoothing)
        if bins.size > 1:
            # bincount over flattened (from, to) pairs: much faster than
            # np.add.at for the short, hot fits the scheduler issues.
            flat = np.bincount(
                bins[:-1] * self.n_bins + bins[1:],
                minlength=self.n_bins * self.n_bins,
            )
            counts += flat.reshape(self.n_bins, self.n_bins)
        self._transition = counts / counts.sum(axis=1, keepdims=True)
        self._last_bin = int(bins[-1])
        return self

    def update(self, value: float) -> None:
        """Shift the chain's current state to the bin of a new observation.

        Transition probabilities are not refitted (CloudScale refits
        periodically; the scheduler drives that cadence).
        """
        if self._edges is None:
            raise RuntimeError("forecaster not fitted")
        self._last_bin = self._bin_of(float(value))

    # ------------------------------------------------------------------
    def state_distribution(self, horizon: int) -> np.ndarray:
        """Bin distribution ``horizon`` steps ahead of the current state."""
        if self._transition is None or self._last_bin is None:
            raise RuntimeError("forecaster not fitted")
        if horizon < 1:
            raise ValueError("horizon must be >= 1")
        dist = np.zeros(self.n_bins)
        dist[self._last_bin] = 1.0
        step = np.linalg.matrix_power(self._transition, horizon)
        return dist @ step

    def forecast(self, horizon: int = 1) -> float:
        """Expected bin center under ``row(last_bin) · P^horizon``."""
        if self._centers is None:
            raise RuntimeError("forecaster not fitted")
        return float(self.state_distribution(horizon) @ self._centers)
