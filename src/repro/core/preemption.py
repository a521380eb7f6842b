"""Probabilistic-based resource preemption (paper Eq. 21).

A predicted temporarily-unused resource may be reallocated to a newly
arriving job only when its prediction error satisfies

.. math:: Pr(0 \\le \\delta_{t+L} < \\varepsilon) \\ge P_{th}

— the prediction must be *reliably conservative*.  Resources passing the
test are "unlocked predicted unused resources"; the rest stay locked and
only unallocated capacity can serve new jobs.
"""

from __future__ import annotations

import numpy as np

from ..cluster.resources import NUM_RESOURCES, ResourceKind
from ..forecast.confidence import PredictionErrorTracker

__all__ = ["PreemptionGate", "gate_evidence"]

#: ``(probability, standard error, n samples)`` of one resource.
Evidence = tuple[float, float, int]


def gate_evidence(tracker: PredictionErrorTracker, tolerance: float) -> Evidence:
    """``Pr(0 ≤ δ < ε)`` over ``tracker``'s samples, its binomial
    standard error and the sample count; ``(NaN, NaN, 0)`` with no
    samples (not a confident 0 or 1)."""
    n = tracker.n_samples
    if n == 0:
        return (float("nan"), float("nan"), 0)
    p = tracker.probability_within(tolerance)
    standard_error = float(np.sqrt(max(p * (1.0 - p), 1e-12) / n))
    return (p, standard_error, n)


class PreemptionGate:
    """Per-resource Eq. 21 gate over shared error trackers.

    One :class:`PredictionErrorTracker` per resource type accumulates
    the δ samples (Eq. 20); :meth:`unlocked` evaluates the gate.  The
    samples change once per forecast window while the gate is read on
    every placement attempt, so the three resources' evidence is derived
    once per change of the trackers' write counts and every read —
    :meth:`all_unlocked`, :meth:`evidence`, :meth:`probability` — reads
    that one result.
    """

    def __init__(self, error_tolerance: float, probability_threshold: float) -> None:
        if error_tolerance <= 0:
            raise ValueError("error_tolerance must be positive")
        if not 0.0 < probability_threshold <= 1.0:
            raise ValueError("probability_threshold must be in (0, 1]")
        self.error_tolerance = error_tolerance
        self.probability_threshold = probability_threshold
        self.trackers: list[PredictionErrorTracker] = [
            PredictionErrorTracker() for _ in range(NUM_RESOURCES)
        ]
        self._key: tuple[float, ...] | None = None
        self._evidence: tuple[Evidence, ...] = ()

    def _current(self) -> tuple[Evidence, ...]:
        """Every resource's :func:`gate_evidence`, re-derived only when a
        tracker was written (or ε changed) since the last read."""
        key = (self.error_tolerance, *(t.writes for t in self.trackers))
        if key != self._key:
            self._evidence = tuple(
                gate_evidence(t, self.error_tolerance) for t in self.trackers
            )
            self._key = key
        return self._evidence

    # ------------------------------------------------------------------
    def record(self, predicted: np.ndarray, actual: np.ndarray) -> None:
        """Record one δ sample per resource (vectors of length l)."""
        p = np.asarray(predicted, dtype=np.float64).ravel()
        a = np.asarray(actual, dtype=np.float64).ravel()
        if p.shape != (NUM_RESOURCES,) or a.shape != (NUM_RESOURCES,):
            raise ValueError("predicted/actual must have one entry per resource")
        for tracker, predicted_k, actual_k in zip(self.trackers, p.tolist(), a.tolist()):
            tracker.record(predicted_k, actual_k)

    # ------------------------------------------------------------------
    def probability(self, kind: ResourceKind) -> float:
        """Empirical ``Pr(0 ≤ δ < ε)`` for one resource."""
        return self._current()[int(kind)][0]

    def evidence(self, kind: ResourceKind) -> Evidence:
        """``(probability, standard error, n samples)`` behind the gate.

        The tuple the unlock decision is a function of.  With no samples
        the probability is NaN (not a confident 0 or 1).  The invariant
        checker (:mod:`repro.check`) re-derives it from the trackers
        with :func:`gate_evidence`, not through this memo.
        """
        return self._current()[int(kind)]

    def unlocked(self, kind: ResourceKind) -> bool:
        """Eq. 21 for one resource type.

        The empirical probability is credited one binomial standard
        error: with ``η = 90%`` and ``P_th = 0.95`` (Table II), the
        gate's theoretical ceiling is exactly ``1 − θ/2 = P_th``, so an
        estimator meeting its nominal coverage would still fail a strict
        comparison about half the time purely from sampling noise.
        """
        return self._passes(self.evidence(kind))

    def _passes(self, evidence: Evidence) -> bool:
        p, standard_error, n = evidence
        if n == 0:
            # No evidence yet: probability_within is NaN and the gate
            # stays locked (the conservative default).
            return False
        return p + standard_error >= self.probability_threshold

    def all_unlocked(self) -> bool:
        """Gate for multi-resource reallocation: every type must pass.

        An entity placed on predicted-unused resources consumes all
        resource types, so one unreliable dimension locks the placement.
        """
        return all(self._passes(evidence) for evidence in self._current())

    def sigma(self, kind: ResourceKind) -> float:
        """σ̂ of one resource's error tracker (feeds Eq. 18-19)."""
        return self.trackers[int(kind)].sigma()

    def sigmas(self) -> np.ndarray:
        """Vector of per-resource σ̂ values."""
        return np.array([t.sigma() for t in self.trackers])
