"""Prediction-error windows (paper Eq. 18-21).

The predicted unused resource is turned into a conservative estimate by
subtracting ``σ̂ · z_{θ/2}`` — the lower bound of the confidence interval
— "because the underestimation of the unused resource makes it
conservative in reallocating allocated resources, thus avoiding SLO
violations" (Eq. 19).  ``σ̂`` is the standard deviation of the
prediction-error samples collected per Eq. 20.  The shift itself is
applied where the schedulers forecast (CORP's ``adjust_forecast``,
RCCR's ``_shift_scale``); this module supplies ``z`` and the windows.
"""

from __future__ import annotations

from statistics import NormalDist

import numpy as np

from ..cluster.logs import LogDeque
from ..cluster.scheduler import share_within

__all__ = ["z_value", "PredictionErrorTracker"]


def z_value(confidence_level: float) -> float:
    """``z_{θ/2}`` for confidence level ``η`` (``θ = 1 − η``).

    E.g. ``z_value(0.9) ≈ 1.645``: the 95th percentile of the standard
    normal, since θ/2 = 0.05 in each tail.
    """
    if not 0.0 < confidence_level < 1.0:
        raise ValueError("confidence_level must be in (0, 1)")
    theta = 1.0 - confidence_level
    return NormalDist().inv_cdf(1.0 - theta / 2.0)


class PredictionErrorTracker:
    """Collects prediction errors (Eq. 20) and derives σ̂ and the
    preemption probability of Eq. 21.

    Errors are ``δ = actual − predicted`` of the unused amount: positive
    δ means the forecast was conservative.  ``Pr(0 ≤ δ < ε)`` is
    estimated empirically from the recent error window.  ``writes``
    counts the calls that changed the window (:meth:`record`,
    :meth:`seed`): equal counts, equal windows, so a memo of anything
    derived from the samples revalidates in O(1).
    """

    def __init__(self, window: int = 200) -> None:
        if window < 2:
            raise ValueError("window must be >= 2")
        self._errors = LogDeque(maxlen=window)
        self.writes = 0

    # ------------------------------------------------------------------
    def record(self, predicted: float, actual: float) -> float:
        """Add one error sample; returns δ."""
        delta = float(actual) - float(predicted)
        self._errors.append(delta)
        self.writes += 1
        return delta

    def seed(self, deltas: np.ndarray) -> None:
        """Preload historical δ samples (Section III-A.2's "historical
        data with prediction error samples")."""
        for delta in np.asarray(deltas, dtype=np.float64).ravel():
            self._errors.append(float(delta))
        self.writes += 1

    # ------------------------------------------------------------------
    @property
    def n_samples(self) -> int:
        """Number of δ samples currently in the window."""
        return len(self._errors)

    def sigma(self) -> float:
        """``σ̂``: sample standard deviation of the error window."""
        if len(self._errors) < 2:
            return 0.0
        return float(np.std(np.asarray(self._errors), ddof=1))

    def probability_within(self, tolerance: float) -> float:
        """Empirical ``Pr(0 ≤ δ < ε)`` over the error window (Eq. 21 input).

        With no samples yet, the probability is undefined and ``NaN`` is
        returned — reporting ``0.0`` would make an untested predictor
        look *measured and unreliable* rather than unmeasured.  Callers
        gating on it (:class:`repro.core.preemption.PreemptionGate`)
        check ``n_samples`` first and stay locked, which preserves the
        conservative no-evidence stance.
        """
        return share_within(self._errors, tolerance)
