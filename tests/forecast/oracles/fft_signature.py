"""PRESS-style FFT signature predictor — CloudScale's pattern path.

CloudScale [26] builds on PRESS [37]: run an FFT over the usage history,
look for a dominant frequency ("signature"); if the signal is
sufficiently periodic, predict by replaying the signature pattern;
otherwise fall back to a discrete-time Markov chain
(:mod:`.markov_chain`).  Short-lived-job data has no
periodic signature — the structural weakness Fig. 6 exploits.
"""

from __future__ import annotations

import numpy as np

from .forecaster import Forecaster

__all__ = ["FftSignaturePredictor"]


class FftSignaturePredictor(Forecaster):
    """Signature-based prediction with a periodicity test.

    Parameters
    ----------
    signature_threshold:
        Minimum fraction of (non-DC) spectral energy the dominant
        frequency must carry for a signature to be declared.  Below it,
        :attr:`has_signature` is False and :meth:`forecast` returns the
        history mean (callers are expected to consult
        :attr:`has_signature` and use their fallback predictor).
    max_period:
        Longest candidate period considered, in samples.
    """

    def __init__(self, signature_threshold: float = 0.25, max_period: int = 256) -> None:
        if not 0.0 < signature_threshold < 1.0:
            raise ValueError("signature_threshold must be in (0, 1)")
        if max_period < 2:
            raise ValueError("max_period must be >= 2")
        self.signature_threshold = signature_threshold
        self.max_period = max_period
        self._series: np.ndarray | None = None
        self._period: int | None = None
        self._signature: np.ndarray | None = None
        self._mean: float = 0.0

    # ------------------------------------------------------------------
    @property
    def has_signature(self) -> bool:
        """Whether the fitted history showed a dominant periodic pattern."""
        return self._period is not None

    @property
    def period(self) -> int | None:
        """Detected period in samples (None when no signature)."""
        return self._period

    # ------------------------------------------------------------------
    def fit(self, series: np.ndarray) -> "FftSignaturePredictor":
        """Run the periodicity test and extract a signature if one exists."""
        s = self._validate(series)
        self._series = s
        self._mean = float(s.mean())
        self._period = None
        self._signature = None
        if s.size < 8:
            return self  # too short to claim any periodicity
        centered = s - s.mean()
        spectrum = np.abs(np.fft.rfft(centered)) ** 2
        total = spectrum[1:].sum()
        if total <= 1e-12:
            return self  # constant series: no signature
        k = int(spectrum[1:].argmax()) + 1
        dominance = float(spectrum[k] / total)
        period = int(round(s.size / k))
        if (
            dominance >= self.signature_threshold
            and 2 <= period <= min(self.max_period, s.size // 2)
        ):
            self._period = period
            # Signature = average shape of the last full cycles.
            n_cycles = s.size // period
            tail = s[-n_cycles * period :].reshape(n_cycles, period)
            self._signature = tail.mean(axis=0)
        return self

    def forecast(self, horizon: int = 1) -> float:
        """Continue the signature in phase; history mean without one."""
        if self._series is None:
            raise RuntimeError("forecaster not fitted")
        if horizon < 1:
            raise ValueError("horizon must be >= 1")
        if self._period is None or self._signature is None:
            return self._mean
        # Continue the signature from the phase the history ended at.
        phase = (self._series.size + horizon - 1) % self._period
        return float(self._signature[phase])
