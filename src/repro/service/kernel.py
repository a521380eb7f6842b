"""The event-driven scheduler kernel.

The batch slot loop of :meth:`repro.cluster.simulator.ClusterSimulator.run`
is rebuilt here as an explicit event queue consumed one event at a time:

``vm-restored``
    Fault-layer recovery phase at the top of a slot: expired VM
    downtimes and capacity revocations end, predictor outages clear,
    backed-off jobs whose retry delay elapsed re-enter the queue.
``fault-due``
    The fault plan's events due this slot are applied (crashes,
    revocations, outage starts, targeted job failures) and the give-up
    deadline is swept.
``job-submitted``
    One job enters the system: admission control, then the pending
    queue.  Batch runs preload one such event per trace record; the
    asyncio daemon injects them live while the kernel runs.
``slot-tick``
    The slot pipeline: scheduling (the timed decision path), VM slot
    execution, completions, scheduler feedback, invariant checks and
    observability.  A tick re-arms the next slot while work remains.

Within a slot, events process in exactly that order — the same order
the batch loop hard-coded — so a batch driver over the kernel
reproduces the old loop byte-for-byte (the golden-trace suite pins
this).  :meth:`SchedulerKernel.advance` consumes a single event and
returns it, which is what the daemon, the standby-takeover drill and
the tests step on.

Termination mirrors the old loop's top-of-slot test: a slot is armed
while arrivals remain ahead of it or (with ``drain``) work is still in
flight; hitting ``max_slots`` with either condition still true marks
the run *truncated* (a ``warning`` event is emitted and
``SimulationResult.truncated`` is set) instead of silently reporting a
completed run.
"""

from __future__ import annotations

import copy
import heapq
from dataclasses import dataclass
from enum import IntEnum
from itertools import chain
from typing import TYPE_CHECKING, Callable, Optional

import numpy as np

from ..check import CHECK
from ..cluster.job import Job, JobState
from ..cluster.machine import SlotOutcomes, execute_slots
from ..obs import OBS

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from ..cluster.simulator import ClusterSimulator, SimulationResult
    from ..trace.records import TaskRecord
    from ..trace.workload import Workload

__all__ = ["EventKind", "KernelEvent", "KernelSnapshot", "SchedulerKernel"]


class EventKind(IntEnum):
    """Event kinds, ordered by within-slot processing priority.

    The integer values are the priority: for one slot the kernel always
    processes restores before due faults, due faults before arrivals,
    and arrivals before the slot tick — the order the batch loop
    applied implicitly.
    """

    VM_RESTORED = 0
    FAULT_DUE = 1
    JOB_SUBMITTED = 2
    SLOT_TICK = 3


@dataclass(frozen=True)
class KernelEvent:
    """One consumed queue entry, returned by :meth:`SchedulerKernel.advance`."""

    slot: int
    kind: EventKind
    seq: int
    #: The submitted trace record (``JOB_SUBMITTED`` only).
    record: "TaskRecord | None" = None


def _shared_memo(kernel: "SchedulerKernel") -> dict[int, object]:
    """A ``copy.deepcopy`` memo mapping what has become immutable to itself.

    Terminal jobs (``advance`` / ``requeue`` / ``fail_permanently`` raise
    from a terminal state; rejected jobs never leave their list), every
    ``TaskRecord`` (frozen, read-only usage), the frozen fault plan and
    the fitted predictor (a run only predicts with it).  Log entries
    (history rows, outcomes) need no entry here: a
    :class:`~repro.cluster.logs.Log` copies itself and shares them.
    """
    sim = kernel.sim
    terminal = sim.completed + sim.failed + sim.rejected
    backlog = [] if sim.faults is None else sim.faults.backlog_jobs()
    plan = None if sim.faults is None else sim.faults.plan
    predictor = getattr(sim.scheduler, "predictor", None)
    shared = chain(
        terminal,
        (job.record for job in chain(terminal, sim.pending, sim.running, backlog)),
        (record for *_, record in kernel._queue if record is not None),
        () if plan is None else (plan, plan.retry, *plan.events),
        () if predictor is None else (predictor,),
    )
    return {id(obj): obj for obj in shared}


@dataclass(frozen=True)
class KernelSnapshot:
    """An independent copy of a kernel's live state mid-run.

    Restoring yields a standby kernel that resumes from the captured
    event-queue position with its own copy of every in-flight job, VM,
    scheduler and fault-injector state — the live kernel can keep
    running (or crash) without affecting it.  What never changes again
    is shared, not copied (:func:`_shared_memo` says why each is safe).
    Restores are repeatable: each call hands out a fresh copy.
    """

    taken_at_slot: int
    _kernel: "SchedulerKernel"

    def restore(self) -> "SchedulerKernel":
        """An independent kernel resuming from this snapshot."""
        return copy.deepcopy(self._kernel, _shared_memo(self._kernel))


class SchedulerKernel:
    """Single-stepped event kernel over one :class:`ClusterSimulator`.

    Parameters
    ----------
    sim:
        The simulator holding cluster/scheduler/fault state.  The
        scheduler must already be prepared (offline fit done).
    streaming:
        ``False`` (batch): the run finishes when the arrival horizon is
        exhausted and — with ``drain`` — nothing is in flight.
        ``True`` (daemon): exhausting the queue leaves the kernel
        *idle* instead of finished; a later :meth:`submit` re-arms it.
    """

    def __init__(self, sim: "ClusterSimulator", *, streaming: bool = False) -> None:
        self.sim = sim
        self.streaming = streaming
        #: First slot with no known arrival: slots ``0..horizon-1``
        #: may receive submissions.  Grows as streaming submits arrive.
        self.horizon = 0
        self.n_submitted = 0
        #: Slots fully executed so far (== the old loop's final counter).
        self.executed_slots = 0
        #: The next slot a tick would run.
        self.next_slot = 0
        self.finished = False
        self.truncated = False
        #: Streaming hook: called as ``on_placements(slot, placed_jobs)``
        #: right after a tick's placements commit (non-empty only).
        self.on_placements: Optional[Callable[[int, list[Job]], None]] = None
        self._queue: list[tuple[int, int, int, "TaskRecord | None"]] = []
        self._seq = 0
        self._armed = False

    # ------------------------------------------------------------------
    # construction and event intake
    # ------------------------------------------------------------------
    @classmethod
    def from_workload(
        cls, sim: "ClusterSimulator", workload: "Workload"
    ) -> "SchedulerKernel":
        """Batch kernel preloaded with one submission event per record."""
        kernel = cls(sim, streaming=False)
        for slot, records in workload.iter_slots():
            for record in records:
                kernel._push(slot, EventKind.JOB_SUBMITTED, record)
        kernel.horizon = workload.n_slots
        kernel._maybe_arm(0)
        return kernel

    def submit(self, record: "TaskRecord", *, slot: int | None = None) -> int:
        """Enqueue a live job submission; returns the arrival slot.

        ``slot`` defaults to the record's trace arrival slot; either way
        it is clamped to the next unexecuted slot — the kernel cannot
        deliver work into the past.
        """
        if self.finished:
            raise RuntimeError("cannot submit to a finished kernel")
        if slot is None:
            slot = int(
                record.submit_time_s // self.sim.config.slot_duration_s
            )
        slot = max(slot, self.next_slot)
        self._push(slot, EventKind.JOB_SUBMITTED, record)
        self.horizon = max(self.horizon, slot + 1)
        if not self._armed:
            self._maybe_arm(self.next_slot)
        return slot

    def _push(
        self, slot: int, kind: EventKind, record: "TaskRecord | None" = None
    ) -> None:
        heapq.heappush(self._queue, (slot, int(kind), self._seq, record))
        self._seq += 1

    # ------------------------------------------------------------------
    # stepping
    # ------------------------------------------------------------------
    @property
    def idle(self) -> bool:
        """No event is queued (streaming kernels wait here for work)."""
        return not self._queue or self.finished

    def advance(self) -> KernelEvent | None:
        """Consume and process the next event; ``None`` when there is none.

        A batch kernel returns ``None`` exactly when the run finished; a
        streaming kernel also returns ``None`` while merely idle
        (waiting for submissions).
        """
        if self.finished or not self._queue:
            return None
        slot, kind_value, seq, record = heapq.heappop(self._queue)
        kind = EventKind(kind_value)
        sim = self.sim
        sim.current_slot = slot
        if kind is EventKind.VM_RESTORED:
            sim.faults.restore_phase(slot, sim)
        elif kind is EventKind.FAULT_DUE:
            sim.faults.fault_phase(slot, sim)
        elif kind is EventKind.JOB_SUBMITTED:
            self._submit_job(record, slot)
        else:
            self._run_tick(slot)
        return KernelEvent(slot=slot, kind=kind, seq=seq, record=record)

    def run_until_blocked(self) -> int:
        """Advance until finished (batch) or idle (streaming); event count."""
        n = 0
        while self.advance() is not None:
            n += 1
        return n

    # ------------------------------------------------------------------
    # slot arming / termination
    # ------------------------------------------------------------------
    def _in_flight(self) -> bool:
        sim = self.sim
        return bool(
            sim.pending
            or sim.running
            or (sim.faults is not None and sim.faults.has_backlog())
        )

    def _would_continue(self, slot: int) -> bool:
        """The old loop's top-of-slot test: does ``slot`` need to run?"""
        if slot < self.horizon:
            return True
        return self.sim.config.drain and self._in_flight()

    def _maybe_arm(self, slot: int) -> None:
        if self.finished or self._armed:
            return
        if not self._would_continue(slot):
            if not self.streaming:
                self.finished = True
            return
        if slot >= self.sim.config.max_slots:
            self._truncate(slot)
            return
        self._arm(slot)

    def _arm(self, slot: int) -> None:
        if self.sim.faults is not None:
            self._push(slot, EventKind.VM_RESTORED)
            self._push(slot, EventKind.FAULT_DUE)
        self._push(slot, EventKind.SLOT_TICK)
        self._armed = True

    def _truncate(self, slot: int) -> None:
        """Hit ``max_slots`` with work still ahead: flag, warn, stop."""
        self.finished = True
        self.truncated = True
        sim = self.sim
        backlog = 0 if sim.faults is None else sim.faults.backlog_count()
        OBS.emit(
            "warning",
            kind="run_truncated",
            slot=slot,
            scheduler=sim.scheduler.name,
            max_slots=sim.config.max_slots,
            pending=len(sim.pending),
            running=len(sim.running),
            backlog=backlog,
            arrivals_remaining=max(self.horizon - slot, 0),
        )
        OBS.count("sim.truncated")

    # ------------------------------------------------------------------
    # event handlers
    # ------------------------------------------------------------------
    def _submit_job(self, record: "TaskRecord", slot: int) -> None:
        sim = self.sim
        job = Job(record=record, submit_slot=slot)
        self.n_submitted += 1
        if sim._admit(job):
            sim.pending.append(job)
        else:
            sim.rejected.append(job)

    def _run_tick(self, slot: int) -> None:
        """The slot pipeline (old loop steps 2-5, verbatim semantics).

        Scale note: every VM mutation (placements landing, completions,
        fault evictions) writes the cluster lanes, which the next
        ``place_jobs`` refresh of the primary pool reads in one matrix
        expression.
        """
        sim = self.sim

        # scheduling (the timed decision path)
        with sim.scheduler.latency.measure():
            sim.scheduler.on_slot_start(slot)
            placed = sim.scheduler.place_jobs(tuple(sim.pending), slot)
        if placed:
            # By identity: two pending jobs may share a job id (a record
            # submitted twice), and placing one must not drop the other.
            placed_ids = {id(j) for j in placed}
            sim.pending = [j for j in sim.pending if id(j) not in placed_ids]
            sim.running.extend(placed)
            if sim.faults is not None:
                sim.faults.note_placements(placed, slot)
            if self.on_placements is not None:
                self.on_placements(slot, list(placed))

        # execute every VM that holds something as one batch and sum its
        # outcome rows into two fresh totals the recorder adopts; a
        # quiescent VM's slot is a count on the idle-slot lane (a zero
        # row).  The checker snapshots every live VM before the batch and
        # checks each after it.
        lanes = sim.lanes
        idle = lanes.quiescent()
        lanes.idle_slots += idle
        live = lanes.online.copy()
        executed = np.flatnonzero(live & ~idle)
        runnable = [sim.vms[row] for row in executed.tolist()]
        checker = CHECK.checker if CHECK.enabled else None
        snapshots = [] if checker is None else [
            (vm, checker.before_execute(vm))
            for vm, up in zip(sim.vms, live.tolist()) if up
        ]
        batch = execute_slots(runnable, slot)
        outcomes = SlotOutcomes(batch, sim.vm_ids, sim.vm_rows, live, executed)
        for vm, snapshot in snapshots:
            checker.after_execute(
                vm, slot, outcomes[vm.vm_id], snapshot, scheduler=sim.scheduler.name
            )
        total_demand, total_committed = batch.totals()
        sim.metrics.record(total_demand, total_committed)

        # completions, in VM order then placement order, from the VMs
        # the batch saw finish a job
        for j in batch.finished:
            for job in runnable[j].remove_completed():
                sim.slo_tracker.record(job)
                sim.completed.append(job)
        if batch.finished:
            sim.running = [j for j in sim.running if j.state is JobState.RUNNING]

        # scheduler feedback
        sim.scheduler.on_slot_end(slot, outcomes)

        if CHECK.enabled:
            CHECK.checker.end_slot(sim, slot, self.n_submitted)

        if OBS.enabled:
            w = sim.metrics.weights
            den = float(total_committed @ w)
            util = (
                min(float(total_demand @ w) / den, 1.0)
                if den > 1e-12 else 0.0
            )
            OBS.emit(
                "slot",
                slot=slot,
                scheduler=sim.scheduler.name,
                utilization=util,
                wastage=1.0 - util if den > 1e-12 else 0.0,
                queue_depth=len(sim.pending),
                running=len(sim.running),
                completed=len(sim.completed),
                rejected=len(sim.rejected),
            )
            OBS.count("sim.slots")
            OBS.count("sim.vm_slots_executed", len(runnable))
            OBS.count("sim.vm_slots_skipped", len(outcomes) - len(runnable))

        self.executed_slots = slot + 1
        self.next_slot = slot + 1
        self._armed = False
        self._maybe_arm(slot + 1)

    # ------------------------------------------------------------------
    # results and takeover support
    # ------------------------------------------------------------------
    def result(self) -> "SimulationResult":
        """The run's metrics in batch-identical :class:`SimulationResult` form."""
        from ..cluster.simulator import SimulationResult

        sim = self.sim
        # An empty prediction log has no error rate (it is NaN, not a
        # perfect 0.0) — report None so summaries omit the metric.
        error_rate = None
        if len(sim.scheduler.prediction_log) > 0:
            error_rate = sim.scheduler.prediction_log.error_rate(
                tolerance=getattr(sim.scheduler, "error_tolerance", 0.75)
            )
            if np.isnan(error_rate):  # pragma: no cover - defensive
                error_rate = None
        jobs = sim.completed + sim.running + sim.pending + sim.rejected
        resilience = None
        if sim.faults is not None:
            jobs += sim.failed + sim.faults.backlog_jobs()
            resilience = sim.faults.result_stats(sim)
        return SimulationResult(
            scheduler_name=sim.scheduler.name,
            metrics=sim.metrics,
            slo=sim.slo_tracker,
            n_slots=self.executed_slots,
            n_submitted=self.n_submitted,
            n_completed=len(sim.completed),
            n_rejected=len(sim.rejected),
            allocation_latency_s=sim.scheduler.latency.total_s,
            prediction_error_rate=error_rate,
            jobs=jobs,
            n_failed=len(sim.failed),
            resilience=resilience,
            truncated=self.truncated,
        )

    def snapshot(self) -> KernelSnapshot:
        """Freeze the whole kernel (queue, simulator, scheduler, faults).

        An independent copy of the live state that shares the finished
        history (:class:`KernelSnapshot`) — the pattern behind HA scheduler pairs:
        a standby holding a snapshot can take over mid-run and finish the
        workload exactly as the live kernel would have
        (:mod:`repro.faults.takeover` is the drill).

        The ``on_placements`` hook belongs to whoever attached it (the
        daemon's is a bound method reaching its asyncio state, which
        cannot be copied), so it is left out: a restored kernel starts
        with ``on_placements=None`` and the caller re-attaches.
        """
        hook, self.on_placements = self.on_placements, None
        try:
            frozen = copy.deepcopy(self, _shared_memo(self))
        finally:
            self.on_placements = hook
        return KernelSnapshot(taken_at_slot=self.next_slot, _kernel=frozen)
