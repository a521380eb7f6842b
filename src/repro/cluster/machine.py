"""Physical and virtual machines, placements, and per-VM accounting.

The cloud of Section II: physical machines (PMs) host virtual machines
(VMs); VM capacity spans multiple resource types; jobs receive VM
resources.  A :class:`Placement` binds one job to one VM in one of two
classes:

* **primary** — the job holds a reservation carved out of the VM's
  *unallocated* capacity; its reservation counts toward the VM's
  *commitment* (the denominator of the utilization metrics).
* **opportunistic** — the job rides on the *allocated-but-unused* slack
  of primary reservations; it adds no commitment but is squeezed first
  when actual primary demand rebounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

import numpy as np

from .job import Job, JobState
from .resources import NUM_RESOURCES, ResourceVector

__all__ = ["Placement", "VirtualMachine", "PhysicalMachine", "SlotOutcome",
           "IDLE_OUTCOME"]

#: What an idle VM demands and serves, shared by every idle slot (both
#: the vector and its history row are read-only).
_ZERO = ResourceVector.zeros()
#: ``_committed.tolist()`` of a VM holding no commitment (a list compare
#: costs a sixth of ``ndarray.any()`` on three floats).
_UNCOMMITTED = [0.0] * NUM_RESOURCES


@dataclass
class Placement:
    """A job running on a VM.

    ``reserved`` is the commitment the placement holds (zero for
    opportunistic placements); ``granted_cap`` is an optional per-slot
    ceiling a scheduler may impose below the job's request (used by DRA's
    share-based redistribution).
    """

    job: Job
    vm: "VirtualMachine"
    reserved: ResourceVector
    opportunistic: bool
    granted_cap: Optional[ResourceVector] = None

    def effective_cap(self) -> ResourceVector:
        """The ceiling applied to this placement's grant each slot."""
        if self.granted_cap is not None:
            return self.granted_cap
        if self.opportunistic:
            return self.job.requested
        return self.reserved

    def effective_cap_array(self) -> np.ndarray:
        """Raw read-only view of :meth:`effective_cap` (hot-path variant)."""
        return self.effective_cap().as_array()


@dataclass(frozen=True)
class SlotOutcome:
    """What one VM did during one executed slot (for metrics/predictors)."""

    committed: ResourceVector
    primary_demand: ResourceVector
    opportunistic_demand: ResourceVector
    served_demand: ResourceVector
    unused: ResourceVector  # committed - primary demand, clipped at 0


#: A slot on a :attr:`~VirtualMachine.quiescent` VM.  The kernel stores
#: this one object for such a VM instead of executing it.
IDLE_OUTCOME = SlotOutcome(_ZERO, _ZERO, _ZERO, _ZERO, _ZERO)


class VirtualMachine:
    """One VM: capacity, placements, commitment and usage history."""

    def __init__(self, vm_id: int, capacity: ResourceVector, pm_id: int = 0) -> None:
        if not capacity.is_nonnegative() or not capacity.any_positive():
            raise ValueError("VM capacity must be non-negative and non-zero")
        self.vm_id = vm_id
        #: Nominal (provisioned) capacity; ``capacity`` reflects any
        #: transient revocation currently in force.
        self.base_capacity = capacity
        self._effective_capacity = capacity
        self._capacity_scale = 1.0
        #: Bumped whenever anything a placement index mirrors changes —
        #: commitment, effective capacity or liveness.  The persistent
        #: availability index (:mod:`repro.cluster.shards`) compares
        #: these counters to decide which rows to re-read, so every
        #: mutation path below must route through
        #: :meth:`_invalidate_commitment` (or bump explicitly, as
        #: :meth:`restore` does).
        self.state_version = 0
        #: Set by the owning simulator; notified (``notice_capacity_change``)
        #: whenever the effective capacity changes so its Eq. 22 reference
        #: cache can revalidate in O(1) rather than scanning all VMs.
        self._capacity_observer: object | None = None
        #: False while the VM is crashed (fault injection): it accepts
        #: no placements and executes no slots until restored.
        self.online = True
        self.pm_id = pm_id
        self.placements: list[Placement] = []
        # Incrementally maintained commitment total — committed() sits on
        # the scheduler's hottest path (feasibility scans over all VMs).
        self._committed = np.zeros(NUM_RESOURCES)
        # Any component non-zero, float residue of released reservations too.
        self._holds_commitment = False
        # Commitment changes only when placements come and go, but the
        # derived vectors are read on every feasibility scan — memoize
        # them and invalidate on placement churn.
        self._committed_vec: ResourceVector | None = None
        self._unallocated_vec: ResourceVector | None = None
        #: Per-slot history of actual unused resource (n_slots, l) rows;
        #: this is the series the predictors train on.  Every row is a
        #: read-only array, never written in place: snapshots share rows.
        self._unused_history: list[np.ndarray] = []
        #: Slots the caller skipped while :attr:`quiescent` (``+= 1`` each):
        #: zero history rows, written before the next real row or any read.
        self.pending_idle_slots = 0

    # ------------------------------------------------------------------
    # capacity (revocation-aware)
    # ------------------------------------------------------------------
    @property
    def capacity(self) -> ResourceVector:
        """Effective capacity: nominal, shrunk by any active revocation."""
        return self._effective_capacity

    def set_capacity_scale(self, scale: float) -> None:
        """Transiently scale the effective capacity (fault injection).

        ``scale=1.0`` restores the nominal capacity.  Commitments are
        *not* returned: while revoked, committed reservations may exceed
        what the VM can physically serve, and ``execute_slot``'s
        capacity clamp squeezes the placements — riders first.
        """
        scale = float(scale)
        if not 0.0 < scale <= 1.0:
            raise ValueError("capacity scale must be in (0, 1]")
        if scale == self._capacity_scale:
            return
        self._capacity_scale = scale
        if scale == 1.0:
            self._effective_capacity = self.base_capacity
        else:
            self._effective_capacity = ResourceVector._wrap(
                self.base_capacity.as_array() * scale
            )
        observer = self._capacity_observer
        if observer is not None:
            observer.notice_capacity_change()
        self._invalidate_commitment()

    # ------------------------------------------------------------------
    # commitment accounting
    # ------------------------------------------------------------------
    def _invalidate_commitment(self) -> None:
        self._committed_vec = None
        self._unallocated_vec = None
        self._holds_commitment = self._committed.tolist() != _UNCOMMITTED
        self.state_version += 1

    @property
    def quiescent(self) -> bool:
        """Online, no placement of either class, commitment exactly zero.

        Such a slot's outcome is :data:`IDLE_OUTCOME` and its history row
        zero, so a caller may bump :attr:`pending_idle_slots` instead of
        calling :meth:`execute_slot`.  Riders move no commitment, hence
        the ``placements`` test; float residue left in the commitment is
        what :meth:`unallocated` reports, so such a VM is still executed.
        """
        return self.online and not self.placements and not self._holds_commitment

    def committed(self) -> ResourceVector:
        """Total primary reservations currently held on this VM."""
        vec = self._committed_vec
        if vec is None:
            vec = self._committed_vec = ResourceVector(self._committed)
        return vec

    def unallocated(self) -> ResourceVector:
        """Capacity not yet committed to any primary reservation."""
        vec = self._unallocated_vec
        if vec is None:
            vec = self._unallocated_vec = ResourceVector._wrap(
                np.maximum(self.capacity.as_array() - self._committed, 0.0)
            )
        return vec

    def unallocated_array(self) -> np.ndarray:
        """Read-only array view of :meth:`unallocated` (hot-path variant).

        The placement path stacks these rows into a
        :class:`~repro.cluster.shards.CandidateSet` matrix; going
        through the memoized vector keeps the two views consistent.
        """
        return self.unallocated().as_array()

    def reserved_total(self) -> np.ndarray:
        """Σ reserved over primary placements, recomputed from scratch.

        Deliberately independent of the incrementally maintained
        ``_committed`` total: the invariant checker
        (:mod:`repro.check`) diffs the two to catch accounting drift,
        so this must not share that bookkeeping.
        """
        total = np.zeros(NUM_RESOURCES)
        for p in self.placements:
            if not p.opportunistic:
                total += p.reserved.as_array()
        return total

    def primary_demand(self) -> ResourceVector:
        """Current total demand of the primary placements."""
        return ResourceVector.sum(
            p.job.demand() for p in self.placements if not p.opportunistic
        )

    def opportunistic_demand(self) -> ResourceVector:
        """Current total demand of the opportunistic placements."""
        return ResourceVector.sum(
            p.job.demand() for p in self.placements if p.opportunistic
        )

    def actual_unused(self) -> ResourceVector:
        """Allocated-but-unused resource right now (``r − d``, Section II)."""
        return (self.committed() - self.primary_demand()).clip_nonnegative()

    # ------------------------------------------------------------------
    # placement management
    # ------------------------------------------------------------------
    def can_reserve(self, amount: ResourceVector) -> bool:
        """Does ``amount`` fit in the unallocated capacity?"""
        return amount.fits_within(self.unallocated())

    def add_placement(self, placement: Placement) -> None:
        """Attach a placement, enforcing the reservation capacity check."""
        if placement.vm is not self:
            raise ValueError("placement bound to a different VM")
        if not placement.opportunistic and not self.can_reserve(placement.reserved):
            raise ValueError(
                f"VM {self.vm_id} cannot reserve {placement.reserved} "
                f"(unallocated {self.unallocated()})"
            )
        self.placements.append(placement)
        if not placement.opportunistic:
            self._committed += placement.reserved.as_array()
            self._invalidate_commitment()

    def remove_completed(self) -> list[Job]:
        """Drop placements whose jobs completed; return those jobs."""
        done = [p.job for p in self.placements if p.job.state is JobState.COMPLETED]
        if not done:
            return done
        for p in self.placements:
            if p.job.state is JobState.COMPLETED and not p.opportunistic:
                self._committed -= p.reserved.as_array()
        np.maximum(self._committed, 0.0, out=self._committed)  # float drift
        self._invalidate_commitment()
        self.placements = [
            p for p in self.placements if p.job.state is not JobState.COMPLETED
        ]
        return done

    # ------------------------------------------------------------------
    # fault injection (crash/restore, targeted eviction)
    # ------------------------------------------------------------------
    def evict_all(self) -> list[Job]:
        """Drop every placement, releasing all commitment; return the jobs."""
        jobs = [p.job for p in self.placements]
        self.placements = []
        self._committed[:] = 0.0
        self._invalidate_commitment()
        return jobs

    def evict_job(self, job_id: int) -> Optional[Job]:
        """Drop one job's placement (transient failure); None if absent."""
        for i, p in enumerate(self.placements):
            if p.job.job_id == job_id:
                del self.placements[i]
                if not p.opportunistic:
                    self._committed -= p.reserved.as_array()
                    np.maximum(self._committed, 0.0, out=self._committed)
                self._invalidate_commitment()
                return p.job
        return None

    def crash(self) -> list[Job]:
        """Take the VM offline, evicting everything and losing its history.

        A crashed VM executes no slots and accepts no placements; its
        usage history is in-memory state and does not survive, so the
        predictors start cold after the restart.
        """
        self.online = False
        self._unused_history.clear()
        self.pending_idle_slots = 0
        return self.evict_all()

    def restore(self) -> None:
        """Bring a crashed VM back online (empty, history cold)."""
        self.online = True
        # Liveness is index-mirrored state: bump so persistent indexes
        # re-admit this VM's row (crash() bumped via evict_all()).
        self.state_version += 1

    # ------------------------------------------------------------------
    # slot execution
    # ------------------------------------------------------------------
    def execute_slot(self, slot: int) -> SlotOutcome:
        """Serve one slot: grant resources, advance jobs, record history.

        Primaries are served first, each up to ``min(demand, cap)``;
        whatever physical capacity remains is shared by opportunistic
        placements proportionally to their demand (they are squeezed
        first — they hold no commitment).

        Demands, caps and grants are handled as ``(n_placements, l)``
        arrays; the per-placement reference semantics are preserved (and
        property-tested against
        :func:`repro.check.differential.reference_outcome`).
        """
        if self.pending_idle_slots:
            self._write_idle_rows()
        committed = self.committed()
        placements = self.placements
        n = len(placements)
        if n == 0:
            # Idle VM: nothing demands, nothing is served; unused slack
            # equals the (non-negative) commitment.
            self._unused_history.append(committed.as_array())
            return SlotOutcome(
                committed=committed,
                primary_demand=_ZERO,
                opportunistic_demand=_ZERO,
                served_demand=_ZERO,
                unused=committed,
            )

        cap_arr = self.capacity.as_array()
        demands = np.empty((n, NUM_RESOURCES))
        caps = np.empty((n, NUM_RESOURCES))
        opp = np.zeros(n, dtype=bool)
        for i, p in enumerate(placements):
            demands[i] = p.job.demand_array()
            caps[i] = p.effective_cap_array()
            opp[i] = p.opportunistic
        prim = ~opp
        grants = np.minimum(demands, caps)

        # --- primaries ---------------------------------------------------
        primary_demand = demands[prim].sum(axis=0)
        primary_granted = grants[prim].sum(axis=0)
        # Physical sanity: primaries cannot collectively exceed capacity.
        over = primary_granted > cap_arr + 1e-9
        if over.any():
            scale = np.ones(NUM_RESOURCES)
            scale[over] = cap_arr[over] / primary_granted[over]
            grants[prim] *= scale
            primary_granted = np.minimum(primary_granted, cap_arr)

        # --- opportunists -------------------------------------------------
        opp_demand = demands[opp].sum(axis=0)
        if opp.any():
            remaining = np.maximum(cap_arr - primary_granted, 0.0)
            scale = np.ones(NUM_RESOURCES)
            tight = opp_demand > remaining + 1e-12
            scale[tight] = np.where(
                opp_demand[tight] > 0, remaining[tight] / opp_demand[tight], 0.0
            )
            grants[opp] = np.minimum(demands[opp] * scale, caps[opp])

        # --- advance ------------------------------------------------------
        # Execution rate: min over demanded resources of granted/demand,
        # clipped to [0, 1]; a job with no current demand runs at full
        # speed (rows with no demanded resource reduce over +inf).
        needed = demands > 1e-12
        ratios = np.where(needed, grants / np.where(needed, demands, 1.0), np.inf)
        rates = np.clip(ratios.min(axis=1), 0.0, 1.0)
        served = np.minimum(grants, demands).sum(axis=0)
        for i, p in enumerate(placements):
            p.job.advance(rates[i], slot)

        unused = ResourceVector._wrap(np.maximum(self._committed - primary_demand, 0.0))
        self._unused_history.append(unused.as_array())
        return SlotOutcome(
            committed=committed,
            primary_demand=ResourceVector._wrap(primary_demand),
            opportunistic_demand=ResourceVector._wrap(opp_demand),
            served_demand=ResourceVector._wrap(served),
            unused=unused,
        )

    # ------------------------------------------------------------------
    # history (predictor input)
    # ------------------------------------------------------------------
    def _write_idle_rows(self) -> None:
        """Append the skipped slots' rows (the shared read-only zero row)."""
        self._unused_history.extend([_ZERO.as_array()] * self.pending_idle_slots)
        self.pending_idle_slots = 0

    def unused_history(self, last: int | None = None) -> np.ndarray:
        """Per-slot actual unused resource, ``(n, l)`` array.

        ``last=k`` returns the most recent ``k`` rows; ``last=0`` is an
        empty window, not the full history (``0`` is falsy, so a
        truthiness check here would silently return everything).
        """
        self._write_idle_rows()
        hist = (
            self._unused_history[-last:] if last is not None and last > 0
            else self._unused_history if last is None
            else []
        )
        if not hist:
            return np.zeros((0, NUM_RESOURCES))
        return np.asarray(hist)

    def __repr__(self) -> str:
        return (
            f"VirtualMachine(id={self.vm_id}, capacity={self.capacity}, "
            f"jobs={len(self.placements)})"
        )


class PhysicalMachine:
    """A server hosting VMs (bookkeeping only; contention is per-VM).

    The evaluation simulates each cluster node as a PM carrying VMs
    (Section IV's "we simulated a node as a PM").  VM capacities must fit
    within the PM.
    """

    def __init__(self, pm_id: int, capacity: ResourceVector) -> None:
        self.pm_id = pm_id
        self.capacity = capacity
        self.vms: list[VirtualMachine] = []

    def add_vm(self, vm: VirtualMachine) -> None:
        """Host a VM, enforcing the PM capacity envelope."""
        total = ResourceVector.sum(v.capacity for v in self.vms) + vm.capacity
        if not total.fits_within(self.capacity):
            raise ValueError(
                f"PM {self.pm_id} capacity {self.capacity} exceeded by VM set {total}"
            )
        vm.pm_id = self.pm_id
        self.vms.append(vm)

    def free_capacity(self) -> ResourceVector:
        """PM capacity not yet carved into VMs."""
        return (
            self.capacity - ResourceVector.sum(v.capacity for v in self.vms)
        ).clip_nonnegative()

    def __repr__(self) -> str:
        return f"PhysicalMachine(id={self.pm_id}, vms={len(self.vms)})"
