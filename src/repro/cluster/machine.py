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

from collections.abc import Mapping
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from .job import COMPLETION_ATOL, Job, JobState
from .logs import Log
from .resources import NUM_RESOURCES, as_row, fits_within

__all__ = ["Placement", "VirtualMachine", "PhysicalMachine", "SlotOutcome",
           "IDLE_OUTCOME", "ClusterLanes", "PlacementLanes", "SlotBatch",
           "SlotOutcomes", "execute_slots"]

#: What an idle VM demands and serves: one read-only row, shared by every
#: idle slot's outcome and history.
_ZERO = np.zeros(NUM_RESOURCES)
_ZERO.setflags(write=False)


class ClusterLanes:
    """The mutable state of a cluster's VMs, one row per VM.

    ``capacity`` is the effective capacity (nominal, shrunk by any
    revocation in force), ``committed`` the primary reservations held,
    ``online`` the liveness, ``occupied`` the placements held (either
    class), ``changes`` the writes to a VM's placement list (a list
    whose count has not moved has not changed) and ``idle_slots`` the
    slots skipped while :meth:`quiescent` whose zero history rows are
    not yet written; ``capacity_changes`` counts capacity writes, so a
    memo of anything derived from ``capacity`` revalidates in O(1).
    ``placed`` holds the placements themselves (:class:`PlacementLanes`,
    made on first use: a VM's own one-row lanes mostly never need one).
    A :class:`VirtualMachine` is a ``(lanes, row)`` handle that indexes
    these arrays on every access and stores no view of them
    (``copy.deepcopy`` would turn a view into a detached copy).
    """

    __slots__ = ("capacity", "committed", "online", "occupied", "changes",
                 "idle_slots", "capacity_changes", "_placed")

    def __init__(self, capacity: np.ndarray) -> None:
        self.capacity = np.array(capacity, dtype=np.float64).reshape(-1, NUM_RESOURCES)
        self.committed = np.zeros_like(self.capacity)
        self.online = np.ones(len(self.capacity), dtype=bool)
        self.occupied = np.zeros(len(self.capacity), dtype=np.int64)
        self.changes = np.zeros(len(self.capacity), dtype=np.int64)
        self.idle_slots = np.zeros(len(self.capacity), dtype=np.int64)
        self.capacity_changes = 0
        self._placed: PlacementLanes | None = None

    @property
    def placed(self) -> "PlacementLanes":
        if self._placed is None:
            self._placed = PlacementLanes()
        return self._placed

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
        at its new row and its placements re-added in order (the rows it
        leaves in a larger set go stale).
        """
        lanes = vms[0]._lanes if vms else None
        if lanes is not None and len(lanes.online) == len(vms) and all(
            vm._lanes is lanes and vm._row == row for row, vm in enumerate(vms)
        ):
            return lanes
        lanes = cls(np.zeros((len(vms), NUM_RESOURCES)))
        for row, vm in enumerate(vms):
            old, i = vm._lanes, vm._row
            for name in ("capacity", "committed", "online", "occupied", "changes",
                         "idle_slots"):
                getattr(lanes, name)[row] = getattr(old, name)[i]
            vm._lanes, vm._row = lanes, row
            for placement in vm.placements:
                lanes.placed.add(placement, row)
        return lanes


class PlacementLanes:
    """The placements a cluster holds, one row each: what a slot reads.

    ``owner`` is the holding VM's lane row (-1 marks a free row),
    ``rider`` the class, ``cap`` :meth:`Placement.effective_cap`, and
    ``progress`` / ``nominal`` the job's.  Every held job's usage series
    is copied into one arena, ``usage``, at ``start``; ``last`` is its
    final row, so a slot's demand rows are one gather,
    ``usage[start + min(int(progress), last)]`` (:meth:`positions`), the
    rows :meth:`Job.demand` reads.  ``seq`` counts :meth:`add` calls, so
    a VM's rows in ``seq`` order are its placement list in order.
    ``jobs`` is the job of each row.

    Rows are written only by :class:`VirtualMachine`'s four placement
    mutators, ``granted_cap`` writes and :func:`execute_slots` (progress);
    ``repro check``'s ``capacity`` rule recounts them from the placement
    lists.
    """

    __slots__ = ("owner", "rider", "cap", "progress", "nominal", "start", "last",
                 "seq", "jobs", "free", "usage", "usage_end", "added")

    def __init__(self) -> None:
        self.owner = np.zeros(0, dtype=np.int64)
        self.rider = np.zeros(0, dtype=bool)
        self.cap = np.zeros((0, NUM_RESOURCES))
        self.progress = np.zeros(0)
        self.nominal = np.zeros(0)
        self.start = np.zeros(0, dtype=np.int64)
        self.last = np.zeros(0, dtype=np.int64)
        self.seq = np.zeros(0, dtype=np.int64)
        self.jobs: list[Optional[Job]] = []
        self.free: list[int] = []
        self.usage = np.zeros((0, NUM_RESOURCES))
        self.usage_end = 0
        self.added = 0

    def add(self, placement: "Placement", owner: int) -> None:
        """Give ``placement`` a row, held by the VM at lane row ``owner``."""
        if not self.free:
            self._grow()
        row = self.free.pop()
        job = placement.job
        usage = job.record.usage
        self.start[row] = self._store(usage)
        self.last[row] = len(usage) - 1
        self.owner[row] = owner
        self.rider[row] = placement.opportunistic
        self.progress[row] = job.progress
        self.nominal[row] = job.nominal_slots
        self.seq[row] = self.added
        self.added += 1
        self.jobs[row] = job
        placement.row = row
        self.cap[row] = placement.effective_cap()

    def remove(self, placements: Sequence["Placement"]) -> None:
        """Free the rows of ``placements``; an emptied table lets go of
        its columns and arena (a finished run's lanes stay small)."""
        for placement in placements:
            row = placement.row
            self.owner[row] = -1
            self.jobs[row] = None
            self.free.append(row)
            placement.row = -1
        if len(self.free) == len(self.owner):
            self.__init__()

    def positions(self, rows: np.ndarray) -> np.ndarray:
        """Each row's position in its job's usage series (:meth:`Job.demand`'s)."""
        return np.minimum(self.progress[rows].astype(np.int64), self.last[rows])

    def advance(self, rows: np.ndarray, rates: np.ndarray, positions: np.ndarray,
                slot: int) -> np.ndarray:
        """:meth:`Job.advance` of every row's job; the rows that completed.

        Progress moves as one add and one completion mask; one loop then
        appends each job's rate and the usage position :meth:`Job.demand`
        reads, writes its progress back and marks the completed jobs.
        """
        progress = self.progress[rows] + rates
        nominal = self.nominal[rows]
        done = progress >= nominal - COMPLETION_ATOL
        progress[done] = nominal[done]
        self.progress[rows] = progress
        jobs, running = self.jobs, JobState.RUNNING
        for row, rate, position, value in zip(
            rows.tolist(), rates.tolist(), positions.tolist(), progress.tolist()
        ):
            job = jobs[row]
            if job.state is not running:
                raise RuntimeError(f"job {job.job_id} is not running")
            job.rate_history.append(rate)
            job.usage_positions.append(position)
            job.progress = value
        for row in rows[done].tolist():
            jobs[row].complete(slot)
        return done

    def _grow(self) -> None:
        size = len(self.owner)
        grown = max(2 * size, 16)
        for name in ("owner", "rider", "cap", "progress", "nominal", "start", "last", "seq"):
            old = getattr(self, name)
            new = np.zeros((grown,) + old.shape[1:], dtype=old.dtype)
            new[:size] = old
            setattr(self, name, new)
        self.owner[size:] = -1
        self.jobs.extend([None] * (grown - size))
        self.free.extend(range(grown - 1, size - 1, -1))

    def _store(self, usage: np.ndarray) -> int:
        """Copy ``usage`` into the arena; its first row's index."""
        n = len(usage)
        if self.usage_end + n > len(self.usage):
            self._compact(n)
        start = self.usage_end
        self.usage[start:start + n] = usage
        self.usage_end = start + n
        return start

    def _compact(self, extra: int) -> None:
        """Move the held series to the front of an arena with room for
        ``extra`` more rows and a quarter again (a compaction is one
        gather, so a tight arena costs little)."""
        (held,) = np.nonzero(self.owner >= 0)
        lengths = self.last[held] + 1
        total = int(lengths.sum())
        starts = np.cumsum(lengths) - lengths
        arena = np.zeros(((total + extra) * 5 // 4 + 64, NUM_RESOURCES))
        source = np.repeat(self.start[held] - starts, lengths) + np.arange(total)
        arena[:total] = self.usage[source]
        self.start[held] = starts
        self.usage, self.usage_end = arena, total


def _frozen(row: Optional[np.ndarray]) -> Optional[np.ndarray]:
    """``row``, made read-only (None passes through)."""
    if row is not None:
        row.setflags(write=False)
    return row


class Placement:
    """A job running on a VM.

    ``reserved`` is the commitment the placement holds (zero for
    opportunistic placements); ``granted_cap`` is an optional per-slot
    ceiling a scheduler may impose below the job's request (DRA's
    share-based redistribution, CloudScale's demand caps).  Both are
    ``(l,)`` rows, adopted without a copy and made read-only.  ``row``
    is the placement's row of its VM's :class:`PlacementLanes` while the
    VM holds it (-1 otherwise); writing ``granted_cap`` rewrites that
    row's cap.
    """

    __slots__ = ("job", "vm", "reserved", "opportunistic", "_granted_cap", "row")

    def __init__(
        self,
        job: Job,
        vm: "VirtualMachine",
        reserved: np.ndarray,
        opportunistic: bool,
        granted_cap: Optional[np.ndarray] = None,
    ) -> None:
        self.job, self.vm, self.reserved = job, vm, _frozen(reserved)
        self.opportunistic = opportunistic
        self._granted_cap = _frozen(granted_cap)
        self.row = -1

    @property
    def granted_cap(self) -> Optional[np.ndarray]:
        return self._granted_cap

    @granted_cap.setter
    def granted_cap(self, cap: Optional[np.ndarray]) -> None:
        self._granted_cap = _frozen(cap)
        if self.row >= 0:
            self.vm._lanes.placed.cap[self.row] = self.effective_cap()

    def __repr__(self) -> str:
        return (
            f"Placement(job={self.job.job_id}, vm={self.vm.vm_id}, "
            f"opportunistic={self.opportunistic}, granted_cap={self._granted_cap})"
        )

    def effective_cap(self) -> np.ndarray:
        """The ceiling applied to this placement's grant each slot."""
        if self._granted_cap is not None:
            return self._granted_cap
        if self.opportunistic:
            return self.job.requested
        return self.reserved


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


def _capacity_row(capacity: object) -> np.ndarray:
    """``capacity`` as a row (:func:`as_row`), refused unless non-negative
    and non-zero."""
    row = as_row(capacity)
    if (row < -1e-9).any() or not (row > 1e-9).any():
        raise ValueError("VM capacity must be non-negative and non-zero")
    return row


class VirtualMachine:
    """One VM: placements and usage history, plus its row of the lanes.

    Capacity, commitment, liveness, the placement count, the placement
    list's change count and the skipped idle slots live in a
    :class:`ClusterLanes` row (a one-row set until a cluster adopts the
    VM), each placement in a row of its :class:`PlacementLanes`; every
    mutation below writes those rows and nothing else.
    """

    def __init__(self, vm_id: int, capacity: np.ndarray, pm_id: int = 0) -> None:
        capacity = _capacity_row(capacity)
        self._bind(vm_id, capacity, pm_id, ClusterLanes(capacity), 0)

    @classmethod
    def cluster(
        cls, capacity: np.ndarray, pm_ids: Sequence[int]
    ) -> list["VirtualMachine"]:
        """VMs ``0..n-1`` of equal ``capacity``, VM ``i`` on ``pm_ids[i]``,
        built as the rows of one lane set: what :meth:`ClusterLanes.of`
        makes of VMs built one at a time, without their one-row sets."""
        capacity = _capacity_row(capacity)
        lanes = ClusterLanes(np.tile(capacity, (len(pm_ids), 1)))
        vms = [cls.__new__(cls) for _ in pm_ids]
        for row, (vm, pm_id) in enumerate(zip(vms, pm_ids)):
            vm._bind(row, capacity, pm_id, lanes, row)
        return vms

    def _bind(
        self, vm_id: int, capacity: np.ndarray, pm_id: int,
        lanes: ClusterLanes, row: int,
    ) -> None:
        self.vm_id = vm_id
        #: Nominal (provisioned) capacity, a read-only row; ``capacity``
        #: reflects any transient revocation currently in force.
        self.base_capacity = capacity
        self._lanes = lanes
        self._row = row
        self.pm_id = pm_id
        self.placements: list[Placement] = []
        #: Per-slot history of actual unused resource (n_slots, l) rows;
        #: this is the series the predictors train on.  Every row is a
        #: read-only array, never written in place: snapshots share rows.
        self._unused_history = Log()

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
        self._lanes.capacity[self._row] = self.base_capacity * scale
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

    @property
    def placement_changes(self) -> int:
        """Writes to :attr:`placements` so far (equal counts, equal lists)."""
        return int(self._lanes.changes[self._row])

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
                total += p.reserved
        return total

    def opportunistic_demand(self) -> np.ndarray:
        """Current total demand of the opportunistic placements."""
        riders = (p.job.demand() for p in self.placements if p.opportunistic)
        return sum(riders, np.zeros(NUM_RESOURCES))

    # ------------------------------------------------------------------
    # placement management
    # ------------------------------------------------------------------
    def can_reserve(self, amount: np.ndarray) -> bool:
        """Does the ``amount`` row fit in the unallocated capacity (within 1e-9)?"""
        return bool((amount <= self.unallocated() + 1e-9).all())

    def add_placement(self, placement: Placement) -> None:
        """Attach a placement, enforcing the reservation capacity check."""
        if placement.vm is not self:
            raise ValueError("placement bound to a different VM")
        if not placement.opportunistic and not self.can_reserve(placement.reserved):
            raise ValueError(
                f"VM {self.vm_id} cannot reserve {placement.reserved.tolist()} "
                f"(unallocated {self.unallocated().tolist()})"
            )
        self.placements.append(placement)
        lanes = self._lanes
        lanes.occupied[self._row] += 1
        lanes.changes[self._row] += 1
        if not placement.opportunistic:
            lanes.committed[self._row] += placement.reserved
        lanes.placed.add(placement, self._row)
        placement.job.vm_id = self.vm_id

    def remove_completed(self) -> list[Job]:
        """Drop placements whose jobs completed; return those jobs."""
        done: list[Placement] = []
        kept: list[Placement] = []
        for p in self.placements:
            (done if p.job.state is JobState.COMPLETED else kept).append(p)
        if not done:
            return []
        lanes = self._lanes
        committed = lanes.committed[self._row]
        for p in done:
            if not p.opportunistic:
                committed -= p.reserved
        np.maximum(committed, 0.0, out=committed)  # float drift
        self.placements = kept
        lanes.occupied[self._row] -= len(done)
        lanes.changes[self._row] += 1
        lanes.placed.remove(done)
        return [p.job for p in done]

    # ------------------------------------------------------------------
    # fault injection (crash/restore, targeted eviction)
    # ------------------------------------------------------------------
    def evict_all(self) -> list[Job]:
        """Drop every placement, releasing all commitment; return the jobs."""
        jobs = [p.job for p in self.placements]
        lanes = self._lanes
        lanes.placed.remove(self.placements)
        self.placements = []
        lanes.occupied[self._row] = 0
        lanes.changes[self._row] += 1
        lanes.committed[self._row] = 0.0
        return jobs

    def evict_job(self, job_id: int) -> Optional[Job]:
        """Drop one job's placement (transient failure); None if absent."""
        for i, p in enumerate(self.placements):
            if p.job.job_id == job_id:
                del self.placements[i]
                lanes = self._lanes
                lanes.occupied[self._row] -= 1
                lanes.changes[self._row] += 1
                lanes.placed.remove([p])
                if not p.opportunistic:
                    committed = lanes.committed[self._row]
                    committed -= p.reserved
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


def _segment_sums(rows: np.ndarray, owner: np.ndarray, m: int) -> np.ndarray:
    """Per-VM sums of ``rows``, each VM's rows added in order from zero,
    as its ``.sum(axis=0)`` does: ``np.bincount`` accumulates its weights
    one by one, here with one bin per (VM, resource) (``np.add.reduceat``
    would sum pairwise)."""
    bins = (owner[:, None] * NUM_RESOURCES + np.arange(NUM_RESOURCES)).ravel()
    weights = np.ascontiguousarray(rows).ravel()
    return np.bincount(bins, weights, m * NUM_RESOURCES).reshape(m, NUM_RESOURCES)


@dataclass(frozen=True)
class SlotBatch(Sequence[SlotOutcome]):
    """One slot of ``m`` VMs: their outcomes as five ``(m, l)`` arrays.

    Item ``j`` is VM ``j``'s :class:`SlotOutcome`, built when read (its
    fields are read-only rows of the arrays; a VM that held no placement
    demanded and served the shared zero row, and its slack is its
    commitment).  ``held`` marks the VMs that held a placement,
    ``finished`` lists, in ascending order, those on which a job
    completed.
    """

    committed: np.ndarray
    primary_demand: np.ndarray
    opportunistic_demand: np.ndarray
    served_demand: np.ndarray
    unused: np.ndarray
    held: np.ndarray
    finished: list[int]

    def __len__(self) -> int:
        return len(self.committed)

    def __getitem__(self, j: int) -> SlotOutcome:
        if not self.held[j]:
            return SlotOutcome(self.committed[j], _ZERO, _ZERO, _ZERO, self.committed[j])
        return SlotOutcome(self.committed[j], self.primary_demand[j],
                           self.opportunistic_demand[j], self.served_demand[j],
                           self.unused[j])

    def totals(self) -> tuple[np.ndarray, np.ndarray]:
        """Served demand and commitment summed over the VMs, row after
        row from zero (a running ``+=``, not a pairwise sum)."""
        first = np.zeros(len(self), dtype=np.intp)
        return (_segment_sums(self.served_demand, first, 1)[0],
                _segment_sums(self.committed, first, 1)[0])


def execute_slots(vms: Sequence[VirtualMachine], slot: int) -> SlotBatch:
    """Serve one slot on every VM of ``vms``: grant, advance jobs, record.

    On each VM primaries are served first, each up to ``min(demand,
    cap)``, scaled back together where they exceed the capacity; riders
    share what is left in proportion to their demand (they hold no
    commitment, so they are squeezed first); every job advances at
    ``min(granted / demand)``.  The VMs must share one
    :class:`ClusterLanes`: the batch reads its placements off the
    :class:`PlacementLanes` columns, and ``owner`` maps a placement row
    to its VM, so a VM's outcome is bit-identical whatever shares its
    batch; it is property-tested against
    :func:`repro.check.differential.reference_outcome`.
    """
    m = len(vms)
    if not m:
        return SlotBatch(*[np.zeros((0, NUM_RESOURCES))] * 5, np.zeros(0, dtype=bool), [])
    lanes = vms[0]._lanes
    vm_rows = np.array([vm._row for vm in vms if vm._lanes is lanes], dtype=np.intp)
    if len(vm_rows) < m:
        raise ValueError("the VMs of one batch must share one ClusterLanes")
    for j in np.flatnonzero(lanes.idle_slots[vm_rows]).tolist():
        vms[j]._write_idle_rows()
    # The placement rows of these VMs, in placement order per VM, and
    # each one's position in ``vms``.
    placed = lanes.placed
    (rows,) = np.nonzero(placed.owner >= 0)
    at = np.full(len(lanes.online), -1)
    at[vm_rows] = np.arange(m)
    owner = at[placed.owner[rows]]
    rows, owner = rows[owner >= 0], owner[owner >= 0]
    order = np.argsort(placed.seq[rows])
    rows, owner = rows[order], owner[order]
    positions = placed.positions(rows)
    demands = placed.usage[placed.start[rows] + positions]
    caps = placed.cap[rows]
    opp = placed.rider[rows][:, None]
    capacity = lanes.capacity[vm_rows]
    committed = lanes.committed[vm_rows]
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
    # speed (rows with no demanded resource reduce over +inf).  The
    # minimum is taken column by column, in ``.min(axis=1)``'s order:
    # numpy reduces a length-3 axis slowly.
    needed = demands > 1e-12
    ratios = np.where(needed, grants / np.where(needed, demands, 1.0), np.inf)
    rates = ratios[:, 0]
    for k in range(1, NUM_RESOURCES):
        rates = np.minimum(rates, ratios[:, k])
    rates = np.clip(rates, 0.0, 1.0)
    served = _segment_sums(np.minimum(grants, demands), owner, m)
    done = placed.advance(rows, rates, positions, slot)

    unused = np.maximum(committed - primary_demand, 0.0)
    held, finished = np.zeros(m, dtype=bool), np.zeros(m, dtype=bool)
    held[owner] = True
    finished[owner[done]] = True
    batch = SlotBatch(committed, primary_demand, opp_demand, served, unused, held,
                      np.flatnonzero(finished).tolist())
    for outcome_rows in (committed, primary_demand, opp_demand, served, unused):
        outcome_rows.setflags(write=False)  # history rows are shared by snapshots
    for vm, row in zip(vms, unused):  # bit for bit an empty VM's commitment
        vm._unused_history.append(row)
    return batch


class SlotOutcomes(Mapping[int, SlotOutcome]):
    """Every live VM's outcome of one tick, keyed by ``vm_id`` in VM order.

    An executed VM's :class:`SlotOutcome` is built from its
    :class:`SlotBatch` row when read; a VM the tick skipped reads
    :data:`IDLE_OUTCOME`.  ``vm_ids`` is the id of each lane row,
    ``live`` the rows online this tick, ``executed`` the lane row of
    each batch item.
    """

    __slots__ = ("_batch", "_vm_ids", "_row_of", "_live", "_at")

    def __init__(self, batch: SlotBatch, vm_ids: np.ndarray, row_of: dict[int, int],
                 live: np.ndarray, executed: np.ndarray) -> None:
        self._batch, self._vm_ids, self._row_of = batch, vm_ids, row_of
        self._live = live
        self._at = np.full(len(live), -1)
        self._at[executed] = np.arange(len(executed))

    def __getitem__(self, vm_id: int) -> SlotOutcome:
        row = self._row_of[vm_id]
        if not self._live[row]:
            raise KeyError(vm_id)
        j = int(self._at[row])
        return IDLE_OUTCOME if j < 0 else self._batch[j]

    def __contains__(self, vm_id: object) -> bool:
        row = self._row_of.get(vm_id)
        return row is not None and bool(self._live[row])

    def __iter__(self) -> Iterator[int]:
        return iter(self._vm_ids[self._live].tolist())

    def __len__(self) -> int:
        return int(np.count_nonzero(self._live))


class PhysicalMachine:
    """A server hosting VMs (bookkeeping only; contention is per-VM).

    The evaluation simulates each cluster node as a PM carrying VMs
    (Section IV's "we simulated a node as a PM").  VM capacities must fit
    within the PM.
    """

    def __init__(self, pm_id: int, capacity: np.ndarray) -> None:
        self.pm_id = pm_id
        self.capacity = as_row(capacity)
        self.vms: list[VirtualMachine] = []
        #: Nominal capacity of the hosted VMs, summed as they are added.
        self._carved = _ZERO

    def add_vm(self, vm: VirtualMachine) -> None:
        """Host a VM, enforcing the PM capacity envelope on nominal
        capacities (a revoked VM frees nothing: its revocation ends)."""
        total = self._carved + vm.base_capacity
        if not fits_within(total, self.capacity):
            raise ValueError(
                f"PM {self.pm_id} capacity {self.capacity} exceeded by VM set {total}"
            )
        vm.pm_id = self.pm_id
        self.vms.append(vm)
        self._carved = total

    def free_capacity(self) -> np.ndarray:
        """PM capacity not yet carved into VMs, a row."""
        return np.maximum(self.capacity - self._carved, 0.0)

    def __repr__(self) -> str:
        return f"PhysicalMachine(id={self.pm_id}, vms={len(self.vms)})"
