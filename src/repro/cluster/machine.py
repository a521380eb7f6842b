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

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .job import Job, JobState
from .resources import NUM_RESOURCES, ResourceVector

__all__ = ["Placement", "VirtualMachine", "PhysicalMachine", "SlotOutcome",
           "IDLE_OUTCOME", "ClusterLanes", "execute_slots"]

#: What an idle VM demands and serves: one read-only row, shared by every
#: idle slot's outcome and history.
_ZERO = np.zeros(NUM_RESOURCES)
_ZERO.setflags(write=False)


class ClusterLanes:
    """The mutable state of a cluster's VMs, one row per VM.

    ``capacity`` is the effective capacity (nominal, shrunk by any
    revocation in force), ``committed`` the primary reservations held,
    ``online`` the liveness, ``occupied`` the placements held (either
    class) and ``idle_slots`` the slots skipped while :meth:`quiescent`
    whose zero history rows are not yet written; ``capacity_changes``
    counts capacity writes, so a memo of anything derived from
    ``capacity`` revalidates in O(1).  A :class:`VirtualMachine` is a
    ``(lanes, row)`` handle that indexes these arrays on every access
    and stores no view of them (``copy.deepcopy`` would turn a view into
    a detached copy).
    """

    __slots__ = ("capacity", "committed", "online", "occupied", "idle_slots",
                 "capacity_changes")

    def __init__(self, capacity: np.ndarray) -> None:
        self.capacity = np.array(capacity, dtype=np.float64).reshape(-1, NUM_RESOURCES)
        self.committed = np.zeros_like(self.capacity)
        self.online = np.ones(len(self.capacity), dtype=bool)
        self.occupied = np.zeros(len(self.capacity), dtype=np.int64)
        self.idle_slots = np.zeros(len(self.capacity), dtype=np.int64)
        self.capacity_changes = 0

    def unallocated(self, rows: int | slice = slice(None)) -> np.ndarray:
        """``max(capacity - committed, 0)`` of ``rows`` (default: all)."""
        return np.maximum(self.capacity[rows] - self.committed[rows], 0.0)

    def quiescent(self, rows: int | slice = slice(None)) -> np.ndarray:
        """Online, no placement of either class, commitment exactly zero.

        Such a row's slot outcome is :data:`IDLE_OUTCOME` and its history
        row zero, so a caller may add one to ``idle_slots`` instead of
        executing it.  Riders move no commitment, hence the ``occupied``
        term; float residue left in the commitment is what
        :meth:`unallocated` reports, so such a row is still executed.
        """
        committed = self.committed[rows]
        idle = self.online[rows] & (self.occupied[rows] == 0)
        for k in range(NUM_RESOURCES):  # numpy reduces a length-3 axis slowly
            idle &= committed[..., k] == 0.0
        return idle

    @classmethod
    def of(cls, vms: Sequence["VirtualMachine"]) -> "ClusterLanes":
        """The lanes whose rows are ``vms``, in order.

        Idempotent: VMs that already are rows ``0..n-1`` of one set keep
        it.  Any other list is copied into a fresh set, each VM re-pointed
        at its new row (a row it leaves in a larger set goes stale).
        """
        lanes = vms[0]._lanes if vms else None
        if lanes is not None and len(lanes.online) == len(vms) and all(
            vm._lanes is lanes and vm._row == row for row, vm in enumerate(vms)
        ):
            return lanes
        lanes = cls(np.zeros((len(vms), NUM_RESOURCES)))
        for row, vm in enumerate(vms):
            old, i = vm._lanes, vm._row
            for name in ("capacity", "committed", "online", "occupied", "idle_slots"):
                getattr(lanes, name)[row] = getattr(old, name)[i]
            vm._lanes, vm._row = lanes, row
        return lanes


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

    def effective_cap(self) -> np.ndarray:
        """The ceiling applied to this placement's grant each slot."""
        if self.granted_cap is not None:
            return self.granted_cap.as_array()
        if self.opportunistic:
            return self.job.requested.as_array()
        return self.reserved.as_array()


@dataclass(frozen=True)
class SlotOutcome:
    """What one VM did in one executed slot, as read-only ``(l,)`` rows."""

    committed: np.ndarray
    primary_demand: np.ndarray
    opportunistic_demand: np.ndarray
    served_demand: np.ndarray
    unused: np.ndarray  # committed - primary demand, clipped at 0


#: A slot on a :attr:`~VirtualMachine.quiescent` VM.  The kernel stores
#: this one object for such a VM instead of executing it.
IDLE_OUTCOME = SlotOutcome(_ZERO, _ZERO, _ZERO, _ZERO, _ZERO)


class VirtualMachine:
    """One VM: placements and usage history, plus its row of the lanes.

    Capacity, commitment, liveness, the placement count and the skipped
    idle slots live in a :class:`ClusterLanes` row (a one-row set until a
    cluster adopts the VM); every mutation below writes that row and
    nothing else.
    """

    def __init__(self, vm_id: int, capacity: ResourceVector, pm_id: int = 0) -> None:
        if not capacity.is_nonnegative() or not capacity.any_positive():
            raise ValueError("VM capacity must be non-negative and non-zero")
        self.vm_id = vm_id
        #: Nominal (provisioned) capacity; ``capacity`` reflects any
        #: transient revocation currently in force.
        self.base_capacity = capacity
        self._lanes = ClusterLanes(capacity.as_array())
        self._row = 0
        self.pm_id = pm_id
        self.placements: list[Placement] = []
        #: Per-slot history of actual unused resource (n_slots, l) rows;
        #: this is the series the predictors train on.  Every row is a
        #: read-only array, never written in place: snapshots share rows.
        self._unused_history: list[np.ndarray] = []

    # ------------------------------------------------------------------
    # capacity (revocation-aware)
    # ------------------------------------------------------------------
    @property
    def online(self) -> bool:
        """False while crashed (fault injection): no placements, no slots."""
        return bool(self._lanes.online[self._row])

    @property
    def capacity(self) -> np.ndarray:
        """Effective capacity: nominal, shrunk by any active revocation."""
        return self._lanes.capacity[self._row].copy()

    def set_capacity_scale(self, scale: float) -> None:
        """Transiently scale the effective capacity (fault injection).

        ``scale=1.0`` restores the nominal capacity.  Commitments are
        *not* returned: while revoked, committed reservations may exceed
        what the VM can physically serve, and :func:`execute_slots`'
        capacity clamp squeezes the placements — riders first.
        """
        scale = float(scale)
        if not 0.0 < scale <= 1.0:
            raise ValueError("capacity scale must be in (0, 1]")
        self._lanes.capacity[self._row] = self.base_capacity.as_array() * scale
        self._lanes.capacity_changes += 1

    # ------------------------------------------------------------------
    # commitment accounting
    # ------------------------------------------------------------------
    @property
    def quiescent(self) -> bool:
        """:meth:`ClusterLanes.quiescent` of this VM's row."""
        return bool(self._lanes.quiescent(self._row))

    @property
    def pending_idle_slots(self) -> int:
        """Slots skipped while :attr:`quiescent`: zero history rows,
        written before the next real row or any read."""
        return int(self._lanes.idle_slots[self._row])

    @pending_idle_slots.setter
    def pending_idle_slots(self, count: int) -> None:
        self._lanes.idle_slots[self._row] = count

    def committed(self) -> np.ndarray:
        """Total primary reservations currently held on this VM."""
        return self._lanes.committed[self._row].copy()

    def unallocated(self) -> np.ndarray:
        """Capacity not yet committed to any primary reservation."""
        return self._lanes.unallocated(self._row)

    def reserved_total(self) -> np.ndarray:
        """Σ reserved over primary placements, recomputed from scratch.

        Deliberately independent of the incrementally maintained
        committed lane: the invariant checker
        (:mod:`repro.check`) diffs the two to catch accounting drift,
        so this must not share that bookkeeping.
        """
        total = np.zeros(NUM_RESOURCES)
        for p in self.placements:
            if not p.opportunistic:
                total += p.reserved.as_array()
        return total

    def opportunistic_demand(self) -> np.ndarray:
        """Current total demand of the opportunistic placements."""
        riders = (p.job.demand() for p in self.placements if p.opportunistic)
        return sum(riders, np.zeros(NUM_RESOURCES))

    # ------------------------------------------------------------------
    # placement management
    # ------------------------------------------------------------------
    def can_reserve(self, amount: ResourceVector) -> bool:
        """Does ``amount`` fit in the unallocated capacity (within 1e-9)?"""
        return bool((amount.as_array() <= self.unallocated() + 1e-9).all())

    def add_placement(self, placement: Placement) -> None:
        """Attach a placement, enforcing the reservation capacity check."""
        if placement.vm is not self:
            raise ValueError("placement bound to a different VM")
        if not placement.opportunistic and not self.can_reserve(placement.reserved):
            raise ValueError(
                f"VM {self.vm_id} cannot reserve {placement.reserved} "
                f"(unallocated {self.unallocated().tolist()})"
            )
        self.placements.append(placement)
        self._lanes.occupied[self._row] += 1
        if not placement.opportunistic:
            self._lanes.committed[self._row] += placement.reserved.as_array()

    def remove_completed(self) -> list[Job]:
        """Drop placements whose jobs completed; return those jobs."""
        done = [p.job for p in self.placements if p.job.state is JobState.COMPLETED]
        if not done:
            return done
        committed = self._lanes.committed[self._row]
        for p in self.placements:
            if p.job.state is JobState.COMPLETED and not p.opportunistic:
                committed -= p.reserved.as_array()
        np.maximum(committed, 0.0, out=committed)  # float drift
        self.placements = [
            p for p in self.placements if p.job.state is not JobState.COMPLETED
        ]
        self._lanes.occupied[self._row] -= len(done)
        return done

    # ------------------------------------------------------------------
    # fault injection (crash/restore, targeted eviction)
    # ------------------------------------------------------------------
    def evict_all(self) -> list[Job]:
        """Drop every placement, releasing all commitment; return the jobs."""
        jobs = [p.job for p in self.placements]
        self.placements = []
        self._lanes.occupied[self._row] = 0
        self._lanes.committed[self._row] = 0.0
        return jobs

    def evict_job(self, job_id: int) -> Optional[Job]:
        """Drop one job's placement (transient failure); None if absent."""
        for i, p in enumerate(self.placements):
            if p.job.job_id == job_id:
                del self.placements[i]
                self._lanes.occupied[self._row] -= 1
                if not p.opportunistic:
                    committed = self._lanes.committed[self._row]
                    committed -= p.reserved.as_array()
                    np.maximum(committed, 0.0, out=committed)
                return p.job
        return None

    def crash(self) -> list[Job]:
        """Take the VM offline, evicting everything and losing its history.

        A crashed VM executes no slots and accepts no placements; its
        usage history is in-memory state and does not survive, so the
        predictors start cold after the restart.
        """
        self._lanes.online[self._row] = False
        self._unused_history.clear()
        self._lanes.idle_slots[self._row] = 0
        return self.evict_all()

    def restore(self) -> None:
        """Bring a crashed VM back online (empty, history cold)."""
        self._lanes.online[self._row] = True

    # ------------------------------------------------------------------
    # slot execution
    # ------------------------------------------------------------------
    def execute_slot(self, slot: int) -> SlotOutcome:
        """Serve one slot on this VM: :func:`execute_slots` of one VM."""
        return execute_slots([self], slot)[0]

    # ------------------------------------------------------------------
    # history (predictor input)
    # ------------------------------------------------------------------
    def _write_idle_rows(self) -> None:
        """Append the skipped slots' rows (the shared read-only zero row)."""
        idle_slots = self._lanes.idle_slots
        self._unused_history.extend([_ZERO] * int(idle_slots[self._row]))
        idle_slots[self._row] = 0

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


def _rows(rows: list) -> np.ndarray:
    return np.array(rows, dtype=np.float64).reshape(-1, NUM_RESOURCES)


def _segment_sums(rows: np.ndarray, owner: np.ndarray, m: int) -> np.ndarray:
    """Per-VM sums of ``rows``, each VM's rows added in order, as its
    ``.sum(axis=0)`` does (``np.add.reduceat`` would sum pairwise)."""
    sums = np.zeros((m, NUM_RESOURCES))
    np.add.at(sums, owner, rows)
    return sums


def execute_slots(vms: Sequence[VirtualMachine], slot: int) -> list[SlotOutcome]:
    """Serve one slot on every VM of ``vms``: grant, advance jobs, record.

    On each VM primaries are served first, each up to ``min(demand,
    cap)``, scaled back together where they exceed the capacity; riders
    share what is left in proportion to their demand (they hold no
    commitment, so they are squeezed first); every job advances at
    ``min(granted / demand)``.  All placements are rows of one batch and
    ``owner`` maps a row to its VM, so a VM's outcome is bit-identical
    whatever shares its batch; it is property-tested against
    :func:`repro.check.differential.reference_outcome`.
    """
    m = len(vms)
    for vm in vms:
        if vm._lanes.idle_slots[vm._row]:
            vm._write_idle_rows()
    placements = [p for vm in vms for p in vm.placements]
    counts = [len(vm.placements) for vm in vms]
    owner = np.repeat(np.arange(m), counts)
    jobs = [p.job for p in placements]
    demand_rows = [job.demand() for job in jobs]
    demands = _rows(demand_rows)
    caps = _rows([p.effective_cap() for p in placements])
    opp = np.array([p.opportunistic for p in placements], dtype=bool)[:, None]
    capacity = _rows([vm._lanes.capacity[vm._row] for vm in vms])
    committed = _rows([vm._lanes.committed[vm._row] for vm in vms])
    grants = np.minimum(demands, caps)

    # --- primaries ---------------------------------------------------
    primary_demand = _segment_sums(np.where(opp, 0.0, demands), owner, m)
    primary_granted = _segment_sums(np.where(opp, 0.0, grants), owner, m)
    # Physical sanity: primaries cannot collectively exceed capacity;
    # a VM within 1e-9 of it keeps its unclipped sum.
    over = primary_granted > capacity + 1e-9
    scale = np.divide(capacity, primary_granted, out=np.ones_like(capacity), where=over)
    grants *= scale[owner]  # riders' rows are replaced below
    clipped = np.minimum(primary_granted, capacity)
    primary_granted = np.where(over.any(axis=1, keepdims=True), clipped, primary_granted)

    # --- opportunists -------------------------------------------------
    opp_demand = _segment_sums(np.where(opp, demands, 0.0), owner, m)
    remaining = np.maximum(capacity - primary_granted, 0.0)
    tight = opp_demand > remaining + 1e-12
    squeeze = np.divide(remaining, opp_demand, out=np.ones_like(capacity), where=tight)
    grants = np.where(opp, np.minimum(demands * squeeze[owner], caps), grants)

    # --- advance ------------------------------------------------------
    # Execution rate: min over demanded resources of granted/demand,
    # clipped to [0, 1]; a job with no current demand runs at full
    # speed (rows with no demanded resource reduce over +inf).
    needed = demands > 1e-12
    ratios = np.where(needed, grants / np.where(needed, demands, 1.0), np.inf)
    rates = np.clip(ratios.min(axis=1), 0.0, 1.0)
    served = _segment_sums(np.minimum(grants, demands), owner, m)
    for job, demand, rate in zip(jobs, demand_rows, rates.tolist()):
        job.advance(rate, slot, demand)

    unused = np.maximum(committed - primary_demand, 0.0)
    rows = (committed, primary_demand, opp_demand, served, unused)
    for batch in rows:
        batch.setflags(write=False)  # history rows are shared by snapshots
    outcomes = []
    for j, vm in enumerate(vms):
        if counts[j]:
            outcome = SlotOutcome(*(batch[j] for batch in rows))
        else:  # nothing demanded or served: the slack is the commitment
            outcome = SlotOutcome(committed[j], _ZERO, _ZERO, _ZERO, committed[j])
        vm._unused_history.append(outcome.unused)
        outcomes.append(outcome)
    return outcomes


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
        """Host a VM, enforcing the PM capacity envelope on nominal
        capacities (a revoked VM frees nothing: its revocation ends)."""
        total = ResourceVector.sum(v.base_capacity for v in self.vms) + vm.base_capacity
        if not total.fits_within(self.capacity):
            raise ValueError(
                f"PM {self.pm_id} capacity {self.capacity} exceeded by VM set {total}"
            )
        vm.pm_id = self.pm_id
        self.vms.append(vm)

    def free_capacity(self) -> ResourceVector:
        """PM capacity not yet carved into VMs."""
        return (
            self.capacity - ResourceVector.sum(v.base_capacity for v in self.vms)
        ).clip_nonnegative()

    def __repr__(self) -> str:
        return f"PhysicalMachine(id={self.pm_id}, vms={len(self.vms)})"
