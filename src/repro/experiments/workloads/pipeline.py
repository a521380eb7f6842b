"""Phased DAG/pipeline workloads over the streaming kernel.

A pipeline scenario splits the evaluation trace into ``n_phases``
contiguous phases and enforces the DAG edge *phase N completes before
phase N+1 submits*: each phase is driven into a streaming
:class:`~repro.service.kernel.SchedulerKernel`, the kernel is drained
until every in-flight job reached a terminal state, and only then —
after a configurable *conflict window* of idle slots separating the
co-scheduled services — does the next phase's batch go in.  Intra-phase
arrival spread is preserved (records keep their relative trace offsets),
so a phase is still a realistic arrival burst rather than a single-slot
spike.

The driver reports ``pipeline_stall_slots``: the total number of slots
between a phase barrier and the *first placement* of the next phase —
the hand-off latency a pipeline owner actually experiences, conflict
windows included.

The inter-phase gate lives in the module-level :func:`_drain_phase`
hook so the mutation smoke test can break exactly the DAG edge (submit
phase N+1 early) and prove the ``pipeline`` invariant rule catches it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from ...check import CHECK
from ...obs import OBS
from ...service.kernel import SchedulerKernel

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from ...cluster.simulator import SimulationResult
    from ...trace.records import TaskRecord, Trace

__all__ = ["PipelineSpec", "partition_phases", "run_pipeline"]


@dataclass(frozen=True)
class PipelineSpec:
    """Shape of a phased pipeline workload.

    Attributes
    ----------
    n_phases:
        Number of sequential phases the trace is split into.
    conflict_window_slots:
        Idle slots inserted between a phase's completion and the next
        phase's first submission (services that must not co-run get a
        guaranteed separation window).
    """

    n_phases: int = 3
    conflict_window_slots: int = 2

    def __post_init__(self) -> None:
        if self.n_phases < 1:
            raise ValueError("n_phases must be >= 1")
        if self.conflict_window_slots < 0:
            raise ValueError("conflict_window_slots must be >= 0")


def partition_phases(
    records: Sequence["TaskRecord"], n_phases: int
) -> list[list["TaskRecord"]]:
    """Split trace records into ``n_phases`` contiguous, near-even phases.

    Records are taken in trace (arrival) order; the first
    ``len % n_phases`` phases absorb the remainder, so the partition is
    a pure function of (records, n_phases) — tests re-derive the same
    job→phase mapping from it.
    """
    if n_phases < 1:
        raise ValueError("n_phases must be >= 1")
    records = list(records)
    base, rem = divmod(len(records), n_phases)
    phases: list[list["TaskRecord"]] = []
    start = 0
    for p in range(n_phases):
        size = base + (1 if p < rem else 0)
        phases.append(records[start : start + size])
        start += size
    return phases


def _drain_phase(kernel: SchedulerKernel) -> None:
    """The inter-phase DAG gate: block until the phase fully completed.

    On a streaming kernel, :meth:`~SchedulerKernel.run_until_blocked`
    returns only once nothing is pending, running or backed off (or the
    run truncated) — exactly the "phase N completes" edge.  Kept as a
    module-level hook so the mutation smoke test can replace it with a
    broken gate and prove the ``pipeline`` invariant rule fires.
    """
    kernel.run_until_blocked()


def run_pipeline(
    kernel: SchedulerKernel, spec: PipelineSpec, trace: "Trace"
) -> "SimulationResult":
    """Drive ``trace`` through ``kernel`` phase by phase and return metrics.

    ``kernel`` is the prepared streaming kernel the assembler
    (:func:`repro.experiments.runner.build_kernel`) returns.  The
    scheduler sees each phase as a streaming arrival burst; the result
    is batch-identical :class:`SimulationResult` form with
    ``pipeline_stall_slots`` attached as an extra metric.
    """
    sim = kernel.sim
    phases = partition_phases(list(trace), spec.n_phases)
    slot_duration = sim.config.slot_duration_s

    # job_id -> phase index, for the ordering invariant and stall metric.
    job_phase = {
        record.task_id: p
        for p, phase in enumerate(phases)
        for record in phase
    }
    first_place_slot: dict[int, int] = {}

    def on_placements(slot: int, placed) -> None:
        for job in placed:
            p = job_phase.get(job.job_id)
            if p is not None:
                first_place_slot.setdefault(p, slot)

    kernel.on_placements = on_placements

    #: phase index -> the barrier slot its submission waited behind
    #: (the slot the previous phase's drain left the kernel at).
    barriers: dict[int, int] = {}
    for p, phase in enumerate(phases):
        if not phase:
            continue
        if p > 0:
            _drain_phase(kernel)
            if kernel.finished:  # truncated mid-pipeline; stop submitting
                break
            barriers[p] = kernel.next_slot
        if CHECK.enabled:
            CHECK.checker.observe_pipeline_submission(
                sim,
                phase=p,
                slot=kernel.next_slot,
                job_phase=job_phase,
            )
        base = kernel.next_slot + (spec.conflict_window_slots if p > 0 else 0)
        phase_start = int(phase[0].submit_time_s // slot_duration)
        for record in phase:
            offset = int(record.submit_time_s // slot_duration) - phase_start
            kernel.submit(record, slot=base + offset)
        OBS.emit(
            "pipeline_phase",
            phase=p,
            slot=kernel.next_slot,
            jobs=len(phase),
            release_slot=base,
        )
    # Final drain for the last submitted phase.  Direct call, not the
    # gate hook: a mutated gate must only break the inter-phase edge,
    # not the run's completion.
    kernel.run_until_blocked()

    # Stall = barrier -> first placement of the released phase, summed
    # over transitions (computed after the final drain so every phase's
    # first placement is known).
    stall_slots = sum(
        first_place_slot[p] - barrier
        for p, barrier in barriers.items()
        if p in first_place_slot
    )
    result = kernel.result()
    result.extra_metrics = {"pipeline_stall_slots": float(stall_slots)}
    return result
