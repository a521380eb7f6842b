"""Runtime job model: demand, progress under contention, response time.

A :class:`Job` wraps one short-lived task from the trace while it lives in
the simulator.  Its per-slot *demand* comes from the trace's usage series;
the amount it actually *receives* in a slot depends on the scheduler's
allocation and on physical contention at its VM.  Receiving less than the
demand slows the job down proportionally, stretching its response time —
which is how over-aggressive reallocation of "unused" resources turns
into SLO violations (Section IV: "jobs' response time is affected by the
unavailability of resource for job processing" [43]).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - avoids a trace<->cluster import cycle
    from ..trace.records import TaskRecord

__all__ = ["COMPLETION_ATOL", "Job", "JobState", "utilization_histories"]

#: A job whose progress is within this of ``nominal_slots`` has completed
#: (:meth:`Job.advance` and the placement lanes' column advance).
COMPLETION_ATOL = 1e-9


class JobState(Enum):
    """Lifecycle of a job inside the simulator."""

    PENDING = "pending"      # submitted, waiting for placement
    RUNNING = "running"      # placed on a VM, making progress
    COMPLETED = "completed"  # all work done
    FAILED = "failed"        # gave up after faults (retries/deadline exhausted)


@dataclass
class Job:
    """One job instance in flight.

    Attributes
    ----------
    record:
        The originating trace record (supplies demand and request).
    submit_slot:
        Slot at which the job entered the system.
    nominal_slots:
        Number of slots the job takes at full speed.
    state, start_slot, completion_slot:
        Lifecycle bookkeeping.
    progress:
        Work completed so far, in units of nominal slots; the job
        completes when ``progress >= nominal_slots``.
    opportunistic:
        True when the job was placed on *predicted unused* resources of
        other jobs' allocations (the weaker-SLO class of Section I's
        opportunistic provisioning); such jobs absorb contention first.
    """

    record: TaskRecord
    submit_slot: int
    nominal_slots: int = field(init=False)
    state: JobState = field(default=JobState.PENDING)
    start_slot: Optional[int] = None
    completion_slot: Optional[int] = None
    progress: float = 0.0
    opportunistic: bool = False
    #: Transient failures this job has retried from (fault injection).
    retries: int = 0
    #: Times this job was evicted by a VM crash (fault injection).
    evictions: int = 0
    #: Slot of the job's first fault (eviction or transient failure);
    #: the retry policy's give-up deadline is measured from here.
    first_fault_slot: Optional[int] = None
    #: Per-slot rates actually achieved while running (for diagnostics).
    rate_history: array = field(default_factory=lambda: array("d"))
    #: Per-slot positions in ``record.usage`` the job ran at: its observed
    #: demand rows, the utilization history the predictors consume, are
    #: ``record.usage[usage_positions]`` (:meth:`demand_rows`).
    usage_positions: array = field(default_factory=lambda: array("q"))
    #: The VM holding the job's current (or, once done, last) placement.
    vm_id: Optional[int] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.nominal_slots = max(
            1, int(np.ceil(self.record.duration_s / self.record.sample_period_s))
        )

    # ------------------------------------------------------------------
    @property
    def job_id(self) -> int:
        """The originating trace record's task id."""
        return self.record.task_id

    @property
    def requested(self) -> np.ndarray:
        """The job's allocation request ``r_i`` (from the trace), a
        read-only ``(l,)`` row."""
        return self.record.requested

    def demand(self) -> np.ndarray:
        """Current-slot demand ``d_i``, indexed by work progress.

        Demand follows the trace's usage series at the position the job
        has *worked up to*, so a slowed job replays its demand curve more
        slowly rather than skipping ahead.  The row is a read-only view
        of the record's usage series.
        """
        usage = self.record.usage
        return usage[min(int(self.progress), len(usage) - 1)]

    def demand_rows(self, last: Optional[int] = None) -> np.ndarray:
        """The ``(n, l)`` demand rows of the slots run (the ``last`` ones;
        ``last=0`` is none, where ``positions[-0:]`` would be all)."""
        positions = self.usage_positions
        if last is not None:
            positions = positions[max(len(positions) - last, 0):]
        return self.record.usage.take(positions, axis=0)

    # ------------------------------------------------------------------
    def start(self, slot: int, *, opportunistic: bool) -> None:
        """Mark the job running (placement succeeded at ``slot``)."""
        if self.state is not JobState.PENDING:
            raise RuntimeError(f"job {self.job_id} cannot start from {self.state}")
        self.state = JobState.RUNNING
        self.start_slot = slot
        self.opportunistic = opportunistic

    def advance(self, rate: float, slot: int) -> None:
        """Progress the job by one slot at the given rate ``in [0, 1]``.

        ``rate = 1`` is full speed; ``rate = 0.5`` means the slot only
        completed half a slot's worth of work.  The logs keep the rate
        and the slot's :meth:`demand` position.
        """
        if self.state is not JobState.RUNNING:
            raise RuntimeError(f"job {self.job_id} is not running")
        rate = min(max(float(rate), 0.0), 1.0)
        self.rate_history.append(rate)
        self.usage_positions.append(min(int(self.progress), len(self.record.usage) - 1))
        self.progress += rate
        if self.progress >= self.nominal_slots - COMPLETION_ATOL:
            self.complete(slot)

    def complete(self, slot: int) -> None:
        """Mark the job finished at ``slot``: progress snaps to nominal."""
        self.progress = float(self.nominal_slots)
        self.state = JobState.COMPLETED
        self.completion_slot = slot

    def requeue(self, slot: int) -> None:
        """Return a running job to the queue after a fault, losing progress.

        Crash evictions and transient failures both pass through here:
        the in-memory state of a short job does not survive its VM, so
        the work restarts from zero.  The demand/rate logs are kept —
        they are real observations the monitoring layer already made.
        """
        if self.state is not JobState.RUNNING:
            raise RuntimeError(f"job {self.job_id} cannot be requeued from {self.state}")
        self.state = JobState.PENDING
        self.start_slot = None
        self.vm_id = None
        self.opportunistic = False
        self.progress = 0.0
        if self.first_fault_slot is None:
            self.first_fault_slot = slot

    def fail_permanently(self, slot: int) -> None:
        """Give up on the job (retry budget or deadline exhausted)."""
        if self.state in (JobState.COMPLETED, JobState.FAILED):
            raise RuntimeError(f"job {self.job_id} cannot fail from {self.state}")
        self.state = JobState.FAILED
        self.completion_slot = None
        if self.first_fault_slot is None:
            self.first_fault_slot = slot

    # ------------------------------------------------------------------
    def utilization_history(self) -> np.ndarray:
        """Per-slot utilization of the request, ``(n, l)`` in [0, 1].

        Resources with a zero request report zero utilization (nothing
        was allocated, so nothing can be "used" of it).
        """
        demand, req = self.demand_rows(), self.requested
        out = np.zeros_like(demand)
        nz = req > 0
        out[:, nz] = demand[:, nz] / req[nz]
        return np.clip(out, 0.0, 1.0)

    def response_slots(self) -> Optional[int]:
        """Response time in slots (completion − submission + 1), if done."""
        if self.completion_slot is None:
            return None
        return self.completion_slot - self.submit_slot + 1

    def __repr__(self) -> str:
        return (
            f"Job(id={self.job_id}, state={self.state.value}, "
            f"progress={self.progress:.2f}/{self.nominal_slots}, "
            f"opportunistic={self.opportunistic})"
        )


def utilization_histories(jobs: Sequence[Job]) -> list[np.ndarray]:
    """:meth:`Job.utilization_history` of every job in one pass.

    One stack of every job's demand rows, one division by each row's
    request, one clip, then one split back into per-job views: the same
    arithmetic, row for row, as one job at a time.
    """
    if not jobs:
        return []
    lengths = [len(job.usage_positions) for job in jobs]
    demand = np.concatenate([job.demand_rows() for job in jobs])
    request = np.repeat([job.requested for job in jobs], lengths, axis=0)
    out = np.zeros_like(demand)
    np.divide(demand, request, out=out, where=request > 0)
    np.clip(out, 0.0, 1.0, out=out)
    return np.split(out, np.cumsum(lengths)[:-1])
