"""Utilization and wastage metrics (paper Eq. 1-4).

Per-resource utilization at slot ``t`` (Eq. 1):

.. math:: U_{j,t} = \\frac{\\sum_i d_{ij,t}}{\\sum_i r_{ij,t}}

and its weighted overall form (Eq. 2); wastage ratios are the
complements (Eq. 3-4).

Commitment semantics
--------------------
The denominator sums the resources *committed* from VM capacity: every
primary reservation counts once, and opportunistic placements count
zero because they sit inside another job's already-counted allocation.
This de-duplication is the only reading of Eq. 1 under which
opportunistic reuse raises utilization — the paper's central claim
(see DESIGN.md §6).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .logs import Log
from .resources import DEFAULT_WEIGHTS, NUM_RESOURCES, ResourceKind

__all__ = [
    "utilization",
    "overall_utilization",
    "wastage",
    "overall_wastage",
    "MetricsRecorder",
]


def _ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """Elementwise ``num/den`` with zero denominators yielding zero."""
    out = np.zeros_like(num, dtype=np.float64)
    nz = den > 1e-12
    out[nz] = num[nz] / den[nz]
    return out


def utilization(demand: np.ndarray, committed: np.ndarray) -> np.ndarray:
    """Per-resource utilization ``U_{j,t}`` (Eq. 1) of two ``(l,)`` rows,
    clipped to [0, 1].

    Values can transiently exceed 1 when opportunistic demand rides on
    uncommitted headroom; the clip keeps the metric a true utilization.
    """
    return np.clip(_ratio(demand, committed), 0.0, 1.0)


def overall_utilization(
    demand: np.ndarray,
    committed: np.ndarray,
    weights: np.ndarray = DEFAULT_WEIGHTS,
) -> float:
    """Weighted overall utilization ``U_{a,t}`` (Eq. 2)."""
    w = np.asarray(weights, dtype=np.float64)
    num = float(demand @ w)
    den = float(committed @ w)
    if den <= 1e-12:
        return 0.0
    return float(np.clip(num / den, 0.0, 1.0))


def wastage(demand: np.ndarray, committed: np.ndarray) -> np.ndarray:
    """Per-resource wastage ratio ``w_{j,t}`` (Eq. 3) of two ``(l,)`` rows."""
    return np.clip(_ratio(np.maximum(committed - demand, 0.0), committed), 0.0, 1.0)


def overall_wastage(
    demand: np.ndarray,
    committed: np.ndarray,
    weights: np.ndarray = DEFAULT_WEIGHTS,
) -> float:
    """Weighted overall wastage ratio ``w_{a,t}`` (Eq. 4)."""
    w = np.asarray(weights, dtype=np.float64)
    num = float(np.maximum(committed - demand, 0.0) @ w)
    den = float(committed @ w)
    if den <= 1e-12:
        return 0.0
    return float(np.clip(num / den, 0.0, 1.0))


@dataclass
class MetricsRecorder:
    """Accumulates per-slot cluster-wide metrics over a run.

    One ``record`` call per executed slot with the cluster's total served
    demand and total commitment; summary properties average over the
    slots in which any resource was committed (idle warm-up and drain
    slots carry no information about allocation quality).
    """

    weights: np.ndarray = field(default_factory=lambda: DEFAULT_WEIGHTS.copy())
    _demand: Log = field(default_factory=Log)
    _committed: Log = field(default_factory=Log)

    def record(self, demand: np.ndarray, committed: np.ndarray) -> None:
        """Record one slot's cluster-wide served demand and commitment.

        The rows are *adopted*, not copied, and made read-only: the
        caller hands over rows it no longer writes (the kernel's fresh
        per-tick totals), and a snapshot shares them.
        """
        demand.setflags(write=False)
        committed.setflags(write=False)
        self._demand.append(demand)
        self._committed.append(committed)

    # ------------------------------------------------------------------
    @property
    def n_slots(self) -> int:
        """Number of recorded slots."""
        return len(self._demand)

    def _active_mask(self) -> np.ndarray:
        committed = np.asarray(self._committed)
        if committed.size == 0:
            return np.zeros(0, dtype=bool)
        return (committed @ self.weights) > 1e-12

    def per_slot_utilization(self) -> np.ndarray:
        """``(n_slots, l)`` per-resource utilization series."""
        if not self._demand:
            return np.zeros((0, NUM_RESOURCES))
        d = np.asarray(self._demand)
        r = np.asarray(self._committed)
        return np.clip(_ratio(d, r), 0.0, 1.0)

    def per_slot_overall(self) -> np.ndarray:
        """``(n_slots,)`` weighted overall utilization series (Eq. 2)."""
        if not self._demand:
            return np.zeros(0)
        d = np.asarray(self._demand) @ self.weights
        r = np.asarray(self._committed) @ self.weights
        return np.clip(_ratio(d, r), 0.0, 1.0)

    # ------------------------------------------------------------------
    def mean_utilization(self, kind: ResourceKind) -> float:
        """Time-average utilization of one resource over active slots."""
        mask = self._active_mask()
        if not mask.any():
            return 0.0
        series = self.per_slot_utilization()[mask, int(kind)]
        return float(series.mean())

    def mean_overall_utilization(self) -> float:
        """Time-average of Eq. 2 over active slots."""
        mask = self._active_mask()
        if not mask.any():
            return 0.0
        return float(self.per_slot_overall()[mask].mean())

    def mean_overall_wastage(self) -> float:
        """Time-average of Eq. 4 over active slots (= 1 − utilization)."""
        mask = self._active_mask()
        if not mask.any():
            return 0.0
        return float(1.0 - self.per_slot_overall()[mask].mean())

    def utilization_by_resource(self) -> dict[ResourceKind, float]:
        """Time-average utilization per resource type."""
        return {k: self.mean_utilization(k) for k in ResourceKind}
