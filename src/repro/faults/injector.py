"""Runtime application of a :class:`~repro.faults.plan.FaultPlan`.

The :class:`FaultInjector` is owned by one simulator run.  At the top of
every slot (before arrivals and scheduling) it

1. restores VMs/capacity whose downtime expired and ends predictor
   outages;
2. releases backed-off jobs whose retry delay elapsed back into the
   pending queue;
3. applies the plan's events due this slot — crashes (evict + requeue),
   revocations (scale capacity), outage starts, targeted job failures
   (evict + exponential backoff);
4. sweeps fault-touched queued jobs against the retry policy's give-up
   deadline.

Every transition emits a ``repro.obs`` event (``vm_fail``,
``vm_restore``, ``evict``, ``retry``, ``give_up``,
``capacity_revoked``, ``capacity_restored``, ``predictor_outage``) and
the injector accumulates the resilience metrics the run summary
reports.  All decisions are deterministic functions of (plan, workload):
no randomness lives here.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from ..cluster.job import Job, JobState
from ..obs import OBS
from .plan import (
    CapacityRevocation,
    FaultPlan,
    JobFailure,
    PredictorOutage,
    RevocationWave,
    VmCrash,
)

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from ..cluster.machine import VirtualMachine
    from ..cluster.simulator import ClusterSimulator

__all__ = ["FaultInjector"]


class FaultInjector:
    """Applies one fault plan to one simulation run."""

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.policy = plan.retry
        self._events_by_slot: dict[int, list] = {}
        for event in plan.events:
            self._events_by_slot.setdefault(event.slot, []).append(event)
        #: (ready_slot, sequence, job): jobs waiting out a retry backoff.
        self._backoff: list[tuple[int, int, Job]] = []
        self._backoff_seq = 0
        #: vm_id -> slot at which the crashed VM comes back online.
        self._down_until: dict[int, int] = {}
        #: vm_id -> slot at which a revoked VM's capacity is restored.
        self._revoked_until: dict[int, int] = {}
        self._outage_until = -1
        self.predictor_available = True
        #: job_id -> slot of the eviction awaiting re-placement.
        self._recovery_pending: dict[int, int] = {}
        self._recovery_latencies: list[int] = []
        #: Same bookkeeping restricted to storm (wave) evictions, so the
        #: summary can report how long storm victims took to land again.
        self._wave_pending: dict[int, int] = {}
        self._wave_recovery_latencies: list[int] = []
        #: Storm metrics only appear in summaries for plans that carry
        #: waves — plain fault plans keep their pre-storm summary keys
        #: (the committed goldens pin this).
        self._has_waves = any(
            isinstance(e, RevocationWave) for e in plan.events
        )
        #: Jobs that ever experienced a fault (for SLO attribution).
        self.fault_touched: set[int] = set()
        # Counters surfaced in the resilience summary.
        self.vm_failures = 0
        self.capacity_revocations = 0
        self.evictions = 0
        self.retries = 0
        self.gave_up = 0
        self.job_failures_injected = 0
        self.outage_slots = 0
        self.storm_waves = 0
        self.storm_vms_hit = 0

    # ------------------------------------------------------------------
    def has_backlog(self) -> bool:
        """Jobs still waiting out a backoff (keeps the drain loop alive)."""
        return bool(self._backoff)

    def backlog_jobs(self) -> list[Job]:
        """Jobs currently in backoff (for end-of-run accounting)."""
        return [job for _, _, job in self._backoff]

    def backlog_count(self) -> int:
        """Number of jobs in backoff (the checker's per-slot tally)."""
        return len(self._backoff)

    # ------------------------------------------------------------------
    def restore_phase(self, slot: int, sim: "ClusterSimulator") -> None:
        """Recovery phase: expired downtimes/revocations end, outages
        clear, and backed-off jobs whose delay elapsed re-enter the
        pending queue.  Always runs before :meth:`fault_phase`."""
        self._restore_due(slot, sim)
        if not self.predictor_available and slot >= self._outage_until:
            self.predictor_available = True
            OBS.emit("predictor_outage", slot=slot, active=False)
        self._release_backoff(slot, sim)

    def fault_phase(self, slot: int, sim: "ClusterSimulator") -> None:
        """Apply the plan's events due at ``slot`` and sweep give-ups."""
        for event in self._events_by_slot.get(slot, ()):
            if isinstance(event, VmCrash):
                self._apply_crash(event, slot, sim)
            elif isinstance(event, CapacityRevocation):
                self._apply_revocation(event, slot, sim)
            elif isinstance(event, PredictorOutage):
                self._apply_outage(event, slot)
            elif isinstance(event, JobFailure):
                self._apply_job_failure(event, slot, sim)
            elif isinstance(event, RevocationWave):
                self._apply_wave(event, slot, sim)
        if not self.predictor_available:
            self.outage_slots += 1
        self._sweep_give_up(slot, sim)

    def note_placements(self, placed: Iterable[Job], slot: int) -> None:
        """Record recovery latencies for re-placed evicted/retried jobs."""
        for job in placed:
            evicted_at = self._recovery_pending.pop(job.job_id, None)
            if evicted_at is not None:
                self._recovery_latencies.append(slot - evicted_at)
            wave_at = self._wave_pending.pop(job.job_id, None)
            if wave_at is not None:
                self._wave_recovery_latencies.append(slot - wave_at)

    # ------------------------------------------------------------------
    # event application
    # ------------------------------------------------------------------
    def _vm_for(self, vm_index: int, sim: "ClusterSimulator") -> "VirtualMachine":
        return sim.vms[vm_index % len(sim.vms)]

    def _apply_crash(self, event: VmCrash, slot: int, sim: "ClusterSimulator") -> None:
        vm = self._vm_for(event.vm_index, sim)
        self._crash_vm(vm, slot, event.downtime_slots, sim, reason="vm_crash")

    def _crash_vm(
        self,
        vm: "VirtualMachine",
        slot: int,
        downtime_slots: int,
        sim: "ClusterSimulator",
        *,
        reason: str,
    ) -> list[Job]:
        if not vm.online:
            return []  # already down; overlapping crash is a no-op
        evicted = vm.crash()
        self._down_until[vm.vm_id] = slot + downtime_slots
        self._revoked_until.pop(vm.vm_id, None)
        vm.set_capacity_scale(1.0)  # a restart clears any revocation
        self.vm_failures += 1
        OBS.emit(
            "vm_fail",
            slot=slot,
            vm=vm.vm_id,
            downtime_slots=downtime_slots,
            evicted=len(evicted),
        )
        OBS.count("faults.vm_fail")
        for job in evicted:
            self._evict(job, slot, sim, reason=reason)
        return evicted

    def _apply_revocation(
        self, event: CapacityRevocation, slot: int, sim: "ClusterSimulator"
    ) -> None:
        vm = self._vm_for(event.vm_index, sim)
        self._revoke_vm(vm, slot, event.fraction, event.duration_slots)

    def _revoke_vm(
        self,
        vm: "VirtualMachine",
        slot: int,
        fraction: float,
        duration_slots: int,
    ) -> bool:
        if not vm.online:
            return False  # nothing to revoke on a crashed VM
        vm.set_capacity_scale(1.0 - fraction + 1e-12 if fraction >= 1.0
                              else 1.0 - fraction)
        self._revoked_until[vm.vm_id] = slot + duration_slots
        self.capacity_revocations += 1
        OBS.emit(
            "capacity_revoked",
            slot=slot,
            vm=vm.vm_id,
            fraction=fraction,
            duration_slots=duration_slots,
        )
        OBS.count("faults.capacity_revoked")
        return True

    def _apply_wave(
        self, event: RevocationWave, slot: int, sim: "ClusterSimulator"
    ) -> None:
        """Hit a whole VM cohort at once: the first ``crash_fraction``
        of the (deduplicated) cohort crashes, the rest lose capacity.
        Offline cohort members are skipped — a wave landing entirely on
        dead VMs is a no-op beyond its own counters."""
        cohort: list["VirtualMachine"] = []
        seen: set[int] = set()
        for index in event.vm_indices:
            vm = self._vm_for(index, sim)
            if vm.vm_id in seen:
                continue  # duplicate indices (mod pool size) collapse
            seen.add(vm.vm_id)
            cohort.append(vm)
        n_crash = int(round(event.crash_fraction * len(cohort)))
        crashed = 0
        revoked = 0
        for position, vm in enumerate(cohort):
            if not vm.online:
                continue
            if position < n_crash:
                evicted = self._crash_vm(
                    vm,
                    slot,
                    event.downtime_slots,
                    sim,
                    reason="revocation_wave",
                )
                for job in evicted:
                    self._wave_pending[job.job_id] = slot
                crashed += 1
            else:
                if self._revoke_vm(
                    vm,
                    slot,
                    event.revocation_fraction,
                    event.revocation_duration_slots,
                ):
                    revoked += 1
        self.storm_waves += 1
        self.storm_vms_hit += crashed + revoked
        OBS.emit(
            "revocation_wave",
            slot=slot,
            cohort=len(cohort),
            crashed=crashed,
            revoked=revoked,
        )
        OBS.count("faults.revocation_wave")

    def _apply_outage(self, event: PredictorOutage, slot: int) -> None:
        self._outage_until = max(self._outage_until, slot + event.duration_slots)
        if self.predictor_available:
            self.predictor_available = False
            OBS.emit(
                "predictor_outage",
                slot=slot,
                active=True,
                duration_slots=event.duration_slots,
            )
            OBS.count("faults.predictor_outage")

    def _apply_job_failure(
        self, event: JobFailure, slot: int, sim: "ClusterSimulator"
    ) -> None:
        vm = self._vm_for(event.vm_index, sim)
        if not vm.online or not vm.placements:
            return
        victim_id = min(p.job.job_id for p in vm.placements)
        job = vm.evict_job(victim_id)
        if job is None:  # pragma: no cover - victim chosen from placements
            return
        self.job_failures_injected += 1
        job.retries += 1
        OBS.emit("job_fail", slot=slot, job=job.job_id, vm=vm.vm_id, retry=job.retries)
        OBS.count("faults.job_fail")
        self._remove_running(job, sim)
        job.requeue(slot)
        self.fault_touched.add(job.job_id)
        self._recovery_pending[job.job_id] = slot
        if job.retries > self.policy.max_retries:
            self._give_up(job, slot, sim)
            return
        ready = slot + self.policy.backoff_slots(job.retries)
        self._backoff.append((ready, self._backoff_seq, job))
        self._backoff_seq += 1
        self.retries += 1

    # ------------------------------------------------------------------
    # recovery mechanics
    # ------------------------------------------------------------------
    def _restore_due(self, slot: int, sim: "ClusterSimulator") -> None:
        for vm in sim.vms:
            due = self._down_until.get(vm.vm_id)
            if due is not None and slot >= due:
                del self._down_until[vm.vm_id]
                vm.restore()
                OBS.emit("vm_restore", slot=slot, vm=vm.vm_id)
                OBS.count("faults.vm_restore")
            due = self._revoked_until.get(vm.vm_id)
            if due is not None and slot >= due:
                del self._revoked_until[vm.vm_id]
                vm.set_capacity_scale(1.0)
                OBS.emit("capacity_restored", slot=slot, vm=vm.vm_id)

    def _release_backoff(self, slot: int, sim: "ClusterSimulator") -> None:
        if not self._backoff:
            return
        ready = [item for item in self._backoff if item[0] <= slot]
        if not ready:
            return
        self._backoff = [item for item in self._backoff if item[0] > slot]
        # Stable (ready_slot, sequence) order keeps requeues deterministic.
        for _, _, job in sorted(ready, key=lambda item: (item[0], item[1])):
            sim.pending.append(job)
            OBS.emit("retry", slot=slot, job=job.job_id, attempt=job.retries)
            OBS.count("faults.retry")

    def _evict(
        self, job: Job, slot: int, sim: "ClusterSimulator", *, reason: str
    ) -> None:
        """Requeue a crash-evicted job for immediate re-placement."""
        self._remove_running(job, sim)
        job.requeue(slot)
        job.evictions += 1
        self.evictions += 1
        self.fault_touched.add(job.job_id)
        self._recovery_pending[job.job_id] = slot
        sim.pending.append(job)
        OBS.emit("evict", slot=slot, job=job.job_id, reason=reason)
        OBS.count("faults.evict")

    def _remove_running(self, job: Job, sim: "ClusterSimulator") -> None:
        sim.running = [j for j in sim.running if j.job_id != job.job_id]

    def _give_up(self, job: Job, slot: int, sim: "ClusterSimulator") -> None:
        if job.state is JobState.RUNNING:  # pragma: no cover - defensive
            raise RuntimeError("cannot give up on a running job")
        job.fail_permanently(slot)
        sim.failed.append(job)
        self._recovery_pending.pop(job.job_id, None)
        self._wave_pending.pop(job.job_id, None)
        self.gave_up += 1
        OBS.emit(
            "give_up",
            slot=slot,
            job=job.job_id,
            retries=job.retries,
            evictions=job.evictions,
        )
        OBS.count("faults.give_up")

    def _sweep_give_up(self, slot: int, sim: "ClusterSimulator") -> None:
        """Fail fault-touched queued jobs past the give-up deadline."""
        deadline = self.policy.give_up_slots

        def expired(job: Job) -> bool:
            return (
                job.first_fault_slot is not None
                and slot - job.first_fault_slot >= deadline
            )

        stale = [job for job in sim.pending if expired(job)]
        if stale:
            stale_ids = {job.job_id for job in stale}
            sim.pending = [j for j in sim.pending if j.job_id not in stale_ids]
            for job in stale:
                self._give_up(job, slot, sim)
        stale_backoff = [item for item in self._backoff if expired(item[2])]
        if stale_backoff:
            self._backoff = [
                item for item in self._backoff if not expired(item[2])
            ]
            for _, _, job in stale_backoff:
                self._give_up(job, slot, sim)

    # ------------------------------------------------------------------
    # resilience metrics
    # ------------------------------------------------------------------
    def result_stats(self, sim: "ClusterSimulator") -> dict[str, float]:
        """Flat resilience metrics merged into the run summary.

        ``slo_violations_faulted`` counts completed fault-touched jobs
        that violated their SLO plus every job that gave up entirely —
        the paper's response-time SLO is unmeetable for a job that never
        finishes.
        """
        violations = sum(
            1
            for job_id in self.fault_touched
            if sim.slo_tracker.outcomes.get(job_id, (0, 0, False))[2]
        )
        latencies = self._recovery_latencies
        mean_latency = sum(latencies) / len(latencies) if latencies else 0.0
        stats = {
            "vm_failures": float(self.vm_failures),
            "capacity_revocations": float(self.capacity_revocations),
            "predictor_outage_slots": float(self.outage_slots),
            "evictions": float(self.evictions),
            "retries": float(self.retries),
            "gave_up": float(self.gave_up),
            "recovery_latency_slots": mean_latency,
            "slo_violations_faulted": float(violations + self.gave_up),
        }
        if self._has_waves:
            wave = self._wave_recovery_latencies
            stats["storm_waves"] = float(self.storm_waves)
            stats["storm_vms_hit"] = float(self.storm_vms_hit)
            stats["storm_recovery_slots"] = (
                sum(wave) / len(wave) if wave else 0.0
            )
        return stats
