"""Scheduler interface and shared instrumentation.

Every provisioning scheme (CORP and the three baselines) implements
:class:`Scheduler`.  The simulator calls, per slot::

    on_slot_start(slot)          # periodic prediction work
    place_jobs(pending, slot)    # assign pending jobs to VMs
    ... VMs execute the slot ...
    on_slot_end(slot, outcomes)  # observe actuals, track errors

Instrumentation:

* :class:`LatencyMeter` — wall-clock of the decision path plus a modeled
  communication charge per remote operation (``comm_latency_s`` from the
  cluster profile).  This regenerates the overhead figures (Fig. 10/14).
* :class:`PredictionLog` — (predicted, actual) pairs of unused-resource
  forecasts, from which Fig. 6's error-rate metric is computed: the
  fraction of predictions whose error falls *outside* ``[0, ε)``.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from array import array
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from .job import Job
from .machine import SlotOutcome, VirtualMachine

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..trace.records import Trace
    from .simulator import ClusterSimulator

__all__ = ["Scheduler", "LatencyMeter", "PredictionLog", "share_within"]


@dataclass
class LatencyMeter:
    """Accumulates scheduler decision latency.

    ``compute_s`` is measured wall-clock time of the decision path;
    ``comm_s`` is the modeled network cost (operations × per-op RTT).
    The paper's overhead metric (Fig. 10/14) is their sum.
    """

    comm_latency_s: float = 0.0
    compute_s: float = 0.0
    comm_ops: int = 0

    @contextmanager
    def measure(self):
        """Time a block of decision-path work."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.compute_s += time.perf_counter() - start

    def charge_comm(self, n_ops: int = 1) -> None:
        """Charge ``n_ops`` remote operations to the modeled network cost."""
        if n_ops < 0:
            raise ValueError("n_ops must be non-negative")
        self.comm_ops += n_ops

    @property
    def comm_s(self) -> float:
        """Modeled network time: operations × per-op RTT."""
        return self.comm_ops * self.comm_latency_s

    @property
    def total_s(self) -> float:
        """The overhead metric of Fig. 10/14: compute + modeled comm."""
        return self.compute_s + self.comm_s


def share_within(deltas: Sequence[float], tolerance: float) -> float:
    """Share of errors ``δ`` in ``[0, ε)``: conservative and close.

    The one statement of the band that Fig. 6's error rate and Eq. 21's
    ``Pr(0 ≤ δ < ε)`` both count.  ``NaN`` on no samples: an unmeasured
    predictor is neither perfect nor hopeless.
    """
    if tolerance <= 0:
        raise ValueError("tolerance must be positive")
    e = np.asarray(deltas, dtype=np.float64)
    if not e.size:
        return float("nan")
    return float(np.logical_and(e >= 0.0, e < tolerance).mean())


@dataclass
class PredictionLog:
    """Per-window unused-resource prediction errors (Eq. 20 samples).

    Errors are ``actual − predicted`` of the (CPU-weighted) unused
    resource: positive means the predictor was conservative (predicted
    less unused than existed), negative means it over-promised.
    """

    predicted: array = field(default_factory=lambda: array("d"))
    actual: array = field(default_factory=lambda: array("d"))

    def add(self, predicted: float, actual: float) -> None:
        """Record one (forecast, realized) pair."""
        self.predicted.append(float(predicted))
        self.actual.append(float(actual))

    def __len__(self) -> int:
        return len(self.predicted)

    def errors(self) -> np.ndarray:
        """``actual − predicted`` samples (Eq. 20 direction)."""
        return np.asarray(self.actual) - np.asarray(self.predicted)

    def error_rate(self, tolerance: float) -> float:
        """Fig. 6 metric: fraction of predictions NOT within ``[0, ε)``.

        A prediction is *correct* when its error lies in ``[0, ε)`` —
        conservative and close.  The error rate is the complement.

        An empty log has no defined error rate and returns ``NaN``: a
        predictor that never predicted must not score as *perfect*
        (``0.0``) in the Fig. 6 comparison.
        """
        return 1.0 - share_within(self.errors(), tolerance)

    def rmse(self) -> float:
        """Root-mean-square of the δ samples."""
        if not self.predicted:
            return 0.0
        return float(np.sqrt(np.mean(self.errors() ** 2)))


class Scheduler(ABC):
    """Base class for all provisioning schemes."""

    #: Human-readable scheme name ("CORP", "RCCR", ...).
    name: str = "base"

    def __init__(self) -> None:
        self.latency = LatencyMeter()
        self.prediction_log = PredictionLog()
        self._sim: "ClusterSimulator | None" = None

    # ------------------------------------------------------------------
    def bind(self, sim: "ClusterSimulator") -> None:
        """Attach to a simulator (called once before the run)."""
        self._sim = sim
        self.latency.comm_latency_s = sim.profile.comm_latency_s

    @property
    def sim(self) -> "ClusterSimulator":
        """The bound simulator (raises if unbound)."""
        if self._sim is None:
            raise RuntimeError(f"{self.name} scheduler is not bound to a simulator")
        return self._sim

    @property
    def vms(self) -> Sequence[VirtualMachine]:
        """The bound simulator's VMs."""
        return self.sim.vms

    # ------------------------------------------------------------------
    def prepare(self, history: "Trace") -> None:
        """Offline phase: fit predictors on historical trace data.

        Runs before the simulation and is *not* charged to the
        allocation-latency meter — the paper's overhead figure measures
        the latency of allocating resources to jobs, with model training
        done ahead of time on the historical Google-trace data.
        """

    def on_slot_start(self, slot: int) -> None:
        """Hook at the top of each slot (periodic prediction work)."""

    @abstractmethod
    def place_jobs(self, pending: Sequence[Job], slot: int) -> list[Job]:
        """Try to place pending jobs; return the ones successfully placed.

        Implementations mutate VMs via ``Placement`` objects and must
        call ``job.start(slot, opportunistic=...)`` for each placed job.
        Jobs not returned stay queued and are retried next slot.
        """

    def on_slot_end(self, slot: int, outcomes: Mapping[int, SlotOutcome]) -> None:
        """Hook after the slot executed (observe actuals, update errors).

        ``outcomes`` is read-only: every live VM's outcome, keyed by
        ``vm_id`` in VM order (:data:`~repro.cluster.machine.IDLE_OUTCOME`
        for a VM the tick skipped).
        """
