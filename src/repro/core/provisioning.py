"""Shared plumbing of the predictive provisioning schedulers.

CORP, RCCR and CloudScale all follow the same per-window rhythm
(Section III / Section IV):

1. every ``L`` slots, poll each VM's usage history (one communication
   operation per VM) and forecast its unused resources for the window;
2. adjust the forecast conservatively (CI lower bound, padding, ...);
3. when new jobs arrive, build schedulable entities (packed pairs for
   CORP, singletons otherwise) and place each on a VM — first trying
   *unlocked predicted unused* resources (opportunistic placement, if
   the scheme supports reuse), then unallocated capacity (primary
   placement with a full reservation);
4. at slot end, compare forecasts to actual unused amounts (Eq. 20) and
   feed the error trackers.

Subclasses provide the forecast, the adjustment, the entity builder and
the VM-choice rule.
"""

from __future__ import annotations

from abc import abstractmethod
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Mapping, Sequence

import numpy as np

from ..check import CHECK
from ..cluster.job import Job
from ..cluster.machine import Placement, SlotOutcome, VirtualMachine
from ..cluster.resources import NUM_RESOURCES
from ..cluster.scheduler import Scheduler
from ..obs import OBS
from .packing import JobEntity, singleton_entities
from .preemption import PreemptionGate
from .vm_selection import CandidateSet, Choice, unused_volume

__all__ = ["ProvisioningSchedulerBase"]

#: The reservation of every opportunistic placement: none, one shared row.
_NO_RESERVATION = np.zeros(NUM_RESOURCES)
_NO_RESERVATION.setflags(write=False)


def _unit(entity: JobEntity, k: int) -> JobEntity:
    """Unit ``k`` of ``entity``: itself (``k == 0``) or its ``k``-th job."""
    return entity if k == 0 else JobEntity(jobs=(entity.jobs[k - 1],))


class _Screen:
    """One tick's queue, unit by unit, with exact fit counts per pool.

    An entity's units are its own demand and, for a packed pair, each
    member's: the entities' own units first, in queue order, then the
    pairs' members two by two (:meth:`unit`).  ``units`` holds them as
    the columns of an ``(l, units)`` array per pool: admission rows for
    the opportunistic pool, requests for the primary one.  The first
    attempt of the tick that finds no VM in a pool lays the units out
    and counts, with one ``(rows, units)`` comparison (``fit``), how
    many live rows of that pool each fits.  Inside ``place_jobs`` rows
    only fall, so :meth:`consumed` keeps the counts exact by re-deriving
    the one row a placement lowered.  ``pools`` and the per-pool lists
    are indexed by ``opportunistic`` (the primary pool first; None when
    no rider is tried).
    """

    def __init__(
        self,
        scheduler: "ProvisioningSchedulerBase",
        entities: list[JobEntity],
        primary: CandidateSet,
        opportunistic: CandidateSet | None,
    ) -> None:
        self.scheduler, self.entities = scheduler, entities
        self.pools = (primary, opportunistic)
        self.units: tuple[np.ndarray, np.ndarray | None] | None = None
        self.fit: list[np.ndarray | None] = [None, None]  # (pool rows, units)
        self.counts: list[np.ndarray | None] = [None, None]

    def unit(self, e: int, k: int) -> int:
        """Index of unit ``k`` (0: the entity, 1 or 2: a member) of entity ``e``."""
        return e if k == 0 else self._member[e] + k

    def failed(self, opportunistic: bool) -> None:
        """An attempt in that pool found no VM: lay the queue out, then
        count that pool (once each)."""
        if self.units is None:
            entities = self.entities
            sizes = np.array([len(e.jobs) for e in entities])
            requests = np.array([job.requested for e in entities for job in e.jobs])
            self.packed = packed = sizes == 2
            first = np.cumsum(sizes) - sizes
            demands = requests[first]
            demands[packed] += requests[first[packed] + 1]  # JobEntity.demand's order
            primary = np.concatenate([demands, requests[np.repeat(packed, sizes)]])
            admitted = None
            if self.pools[True] is not None:
                members = (_unit(e, k) for e in entities if e.is_packed for k in (1, 2))
                admitted = self.scheduler.opportunistic_admission_sizes(
                    chain(entities, members), primary
                )
            self.units = tuple(None if u is None else u.T.copy() for u in (primary, admitted))
            # A pair's members sit after every entity's own unit, two by two.
            self._member = (packed.size + 2 * np.cumsum(packed) - 3).tolist()
        if self.fit[opportunistic] is None:
            pool, units = self.pools[opportunistic], self.units[opportunistic]
            rows, fit, self.counts[opportunistic] = pool.fit_counts(units)
            # A zero row never loses a unit it fits: its mask row may read False.
            self.fit[opportunistic] = np.zeros((len(pool.vms), units.shape[1]), dtype=bool)
            self.fit[opportunistic][rows] = fit

    def consumed(self, opportunistic: bool, row: int) -> None:
        """Row ``row`` of that pool fell: re-derive which units fit it."""
        fit = self.fit[opportunistic]
        if fit is not None:
            pool, units = self.pools[opportunistic], self.units[opportunistic]
            fits = pool.fit_mask(units, row)
            self.counts[opportunistic] -= fit[row] & ~fits
            fit[row] = fits

    def next_entity(self, start: int) -> int | None:
        """The next entity to visit: ``start``, or once every pool tried
        is counted, the first from it with a unit some live row fits.
        The checker re-scans every skipped unit, so it visits all."""
        if start >= len(self.entities):
            return None
        primary, riders = self.counts
        if CHECK.enabled or primary is None or (riders is None and self.pools[True] is not None):
            return start
        live = primary > 0 if riders is None else (primary > 0) | (riders > 0)
        n = len(self.entities)
        alive = live[:n]
        alive[self.packed] |= live[n::2] | live[n + 1::2]
        (hits,) = np.nonzero(alive[start:])
        return start + int(hits[0]) if hits.size else None


@dataclass(slots=True)
class _WindowRecord:
    """One VM's Eq. 20 tracking state for the current window.

    Error samples are only taken while the primary job set is the one
    the forecast covered: a completed job frees real capacity (an
    opportunistic rider is never squeezed by a completion) and a newly
    placed job was never part of the forecast, so churned windows carry
    no information about predictor quality.
    """

    vm: VirtualMachine
    #: The *adjusted* (conservative) forecast, kept for Eq. 20 error
    #: tracking and the Fig. 6 log — Eq. 19 redefines the forecast as
    #: the CI lower bound before Eq. 20's errors are taken, so
    #: conservatism is part of the tracked prediction (schemes without
    #: error handling, like DRA, track their raw forecast).
    forecast: np.ndarray
    raw_forecast: np.ndarray
    #: Commitment and primary job set when the forecast was made.
    committed: np.ndarray
    jobset: frozenset[int]
    #: Running min / sum / count of realized availability over the
    #: window's valid slots — the realized counterpart the forecast is
    #: scored against (see ``actual_aggregate``).
    minimum: np.ndarray | None = None
    total: np.ndarray | None = None
    slots: int = 0
    #: ``vm.placement_changes`` when ``jobset`` was last known current
    #: (-1: never).
    changes: int = -1


class ProvisioningSchedulerBase(Scheduler):
    """Window-driven predictive scheduler skeleton.

    A window's state is written in one place, ``_refresh_forecasts``:
    a tracking record per forecast VM and the opportunistic pool's
    rows.  Placement selects from two :class:`CandidateSet` pools — that
    one, and the run-long mirror of unallocated capacity.
    """

    #: Whether the scheme reallocates predicted-unused resources
    #: opportunistically (CORP and RCCR do; CloudScale and DRA do not).
    supports_opportunistic: bool = True

    #: Whether ``choose_vm`` selects by Eq. 22 unused-resource volume.
    #: The invariant checker only asserts most-matched optimality for
    #: schedulers that claim it (CORP overrides this per its config).
    uses_volume_selection: bool = False

    #: Which realized aggregate the window forecast is compared against
    #: in the Eq. 20 error samples: the window's *mean* availability
    #: (what a forecast of "the amount of unused resource in ΔW" being
    #: consumed by expected-demand riders is accountable to) or its
    #: *min* (the guaranteed-throughout amount; stricter — ablation).
    actual_aggregate: str = "mean"

    def __init__(
        self,
        *,
        window_slots: int = 6,
        error_tolerance: float = 0.75,
        probability_threshold: float = 0.95,
        seed: int = 0,
    ) -> None:
        super().__init__()
        if window_slots < 1:
            raise ValueError("window_slots must be >= 1")
        self.window_slots = window_slots
        self.error_tolerance = error_tolerance
        self.gate = PreemptionGate(error_tolerance, probability_threshold)
        #: Raw (pre-adjustment) forecast errors, the σ̂ source for the
        #: confidence interval (Eq. 18).  Kept separate from ``gate`` —
        #: estimating σ̂ from already-adjusted errors would feed the CI
        #: shift back into its own estimate.
        self.raw_errors = PreemptionGate(error_tolerance, probability_threshold)
        self.rng = np.random.default_rng(seed)
        #: ``vm_id`` -> tracking record of every VM forecast this
        #: window, in refresh order, until its job set churns.
        self._window: dict[int, _WindowRecord] = {}
        #: Candidate pools the placement path selects from.  The primary
        #: pool reads the VMs' unallocated capacity off the cluster lanes
        #: for the whole run.  The opportunistic pool lives for one
        #: window: a row per VM polled at the refresh — its predicted
        #: unused, decremented as riders land (scheduler bookkeeping, not
        #: VM state) and voided once its VM is seen offline.
        self._primary_index: CandidateSet | None = None
        self._opp_pool = CandidateSet([], ())
        #: True while the prediction service is down (fault injection):
        #: no forecasts, no opportunistic placement — provisioning falls
        #: back to the jobs' requested resources.
        self._degraded = False

    def bind(self, sim) -> None:
        """Attach to a simulator, dropping any prior availability index.

        The persistent primary index mirrors one simulator's VM list; a
        rebind (fresh run, takeover replica) must not carry rows from
        the previous cluster.
        """
        super().bind(sim)
        self._primary_index = None

    # ------------------------------------------------------------------
    # subclass hooks
    # ------------------------------------------------------------------
    @abstractmethod
    def predict_vms_unused(self, vms: Sequence[VirtualMachine]) -> list[np.ndarray]:
        """Raw forecasts of the VMs' unused resources for the next window,
        one ``(l,)`` row per VM, in order (the window refresh asks once,
        for every occupied VM)."""

    def adjust_forecast(self, raw: np.ndarray, vm: VirtualMachine) -> np.ndarray:
        """Conservative adjustment (default: none)."""
        return raw

    def make_entities(self, pending: Sequence[Job]) -> list[JobEntity]:
        """Group pending jobs into schedulable entities (default: singletons)."""
        return singleton_entities(pending)

    def choose_vm(
        self, demand: np.ndarray, candidates: CandidateSet
    ) -> Choice | None:
        """Pick a feasible VM for a read-only ``(l,)`` ``demand`` row
        (default: the baselines' uniform random).

        ``candidates`` is the pool being placed into, and only it can
        name the chosen VM's row: an override returns one of its
        selectors' :class:`~repro.cluster.shards.Choice`.
        """
        return candidates.select_random_feasible(demand, self.rng)

    def opportunistic_allowed(self) -> bool:
        """Scheme-level switch on reuse for this window (CORP: Eq. 21)."""
        return True

    def opportunistic_admission_sizes(
        self, entities: Iterable[JobEntity], demands: np.ndarray
    ) -> np.ndarray:
        """How much pool an opportunistic placement of each entity
        consumes: one row per row of ``demands`` (``(n, l)``, the
        entities' demand rows; ``entities`` is built as it is iterated).

        Default: the full request, ``demands`` itself — the conservative
        admission for schemes with no per-job demand model.  CORP
        overrides this with its expected demand (admitting best-effort
        riders at expected rather than worst-case consumption is the
        point of overcommit; riders absorb any squeeze, per the weaker
        SLO class of Section I's opportunistic provisioning).
        """
        return demands

    # ------------------------------------------------------------------
    # window mechanics
    # ------------------------------------------------------------------
    def on_slot_start(self, slot: int) -> None:
        """Refresh forecasts at every window boundary.

        During a predictor outage the scheme degrades gracefully: no
        forecasts are made, opportunistic placement is disabled and any
        prediction-derived state is dropped (``_enter_degraded``).  Recovery
        refreshes forecasts immediately rather than waiting for the next
        window boundary.
        """
        degraded = self._sim is not None and not self.sim.predictor_available
        if degraded != self._degraded:
            self._degraded = degraded
            if degraded:
                self._enter_degraded(slot)
            else:
                OBS.emit(
                    "degraded_mode", slot=slot, scheduler=self.name, active=False
                )
                self._refresh_forecasts()
                return
        if self._degraded:
            return
        if slot % self.window_slots == 0:
            self._refresh_forecasts()
        else:
            self._void_offline_rows()

    def _void_offline_rows(self) -> None:
        """A VM seen offline loses its pool row for the rest of the window.

        The crash evicted every reservation the slack lived in, so the
        forecast describes nothing that survives the restart.  (A
        primary that merely completes early keeps its row.)  Runs every
        tick, so downtime is seen whether or not jobs were pending.
        """
        pool = self._opp_pool
        online = self.sim.lanes.online[pool.lane_rows]
        pool.online[:] = online
        pool.matrix[~online] = 0.0

    def _enter_degraded(self, slot: int) -> None:
        """Drop all prediction-derived state for the outage's duration.

        Window tracking is discarded *without* emitting samples —
        realized availability observed during an outage says nothing
        about predictor quality — and every demand-based grant cap (DRA's
        redistribution, CloudScale's scaling) is lifted: provisioning
        falls back to the jobs' requested resources.
        """
        self._window.clear()
        self._opp_pool = CandidateSet([], ())
        for placement in [p for vm in self.vms for p in vm.placements]:
            if placement.granted_cap is not None:
                placement.granted_cap = None
        OBS.emit("degraded_mode", slot=slot, scheduler=self.name, active=True)
        OBS.count("faults.degraded_mode")

    def _begin_window(self) -> None:
        """Subclass hook: compute what is constant across one refresh.

        Runs once per window, after the previous window's error samples
        landed and before any VM is forecast (the Eq. 18-19 shift scale
        is a property of the error history, not of the VM).
        """

    def _refresh_forecasts(self) -> None:
        """Start a forecast window: poll every online VM, forecast the occupied.

        Each online VM costs one poll and, under opportunistic reuse,
        gets a pool row; only VMs *with placements* (the occupancy lane)
        reach ``predict_vms_unused`` (one call for all of them) and
        ``adjust_forecast`` — an empty VM has no reservation to find
        slack in, so its row stays zero.
        """
        # Emit the previous window's samples before starting a new one.
        self._emit_window_samples()
        self._window.clear()
        self._begin_window()
        # A crashed VM has no usage to poll.
        lanes = self.sim.lanes
        polled = np.flatnonzero(lanes.online)
        # Polling a VM's usage history is one remote operation.
        self.latency.charge_comm(len(polled))
        (held,) = np.nonzero(lanes.occupied[polled])
        occupied = [self.vms[row] for row in polled[held].tolist()]
        forecasts = self.predict_vms_unused(occupied)
        rows = np.zeros((len(polled), NUM_RESOURCES))
        for i, vm, raw in zip(held.tolist(), occupied, forecasts, strict=True):
            raw = np.asarray(raw, dtype=np.float64)
            if raw.shape != (NUM_RESOURCES,):
                raise ValueError("forecast must have one entry per resource")
            committed = vm.committed()
            # No forecast can exceed the commitment it is slack of.
            raw = np.clip(raw, 0.0, committed)
            adjusted = np.clip(self.adjust_forecast(raw, vm), 0.0, None)
            if (committed > 1e-9).any():
                self._window[vm.vm_id] = _WindowRecord(
                    vm, adjusted, raw, committed, self._primary_jobset(vm),
                    changes=vm.placement_changes,
                )
            if self.supports_opportunistic:
                # Opportunistic capacity can never exceed what is actually
                # committed (the slack lives inside reservations).
                committed_slack = committed - vm.opportunistic_demand()
                rows[i] = np.clip(np.minimum(adjusted, committed_slack), 0.0, None)
        if self.supports_opportunistic:
            self._opp_pool = CandidateSet([self.vms[row] for row in polled.tolist()], rows)
        else:
            self._opp_pool = CandidateSet([], ())
        if CHECK.enabled:
            CHECK.checker.observe_pools(self)

    @staticmethod
    def _primary_jobset(vm: VirtualMachine) -> frozenset[int]:
        return frozenset(
            p.job.job_id for p in vm.placements if not p.opportunistic
        )

    def _emit_one(self, record: _WindowRecord) -> None:
        scale = np.maximum(record.committed, 1e-9)
        # The realized availability aggregate the forecast is scored on.
        if self.actual_aggregate == "min":
            actual = record.minimum
        else:
            actual = record.total / record.slots
        actual = actual / scale
        self.gate.record(record.forecast / scale, actual)
        self.raw_errors.record(record.raw_forecast / scale, actual)
        # Fig. 6 log: CPU forecast vs realized unused CPU (the paper's
        # running example resource), commitment fractions.
        if record.committed[0] > 1e-9:
            self.prediction_log.add(record.forecast[0] / scale[0], actual[0])

    def _emit_window_samples(self) -> None:
        """One δ sample per tracked VM per window (Eq. 20/21).

        δ compares the forecast against the realized availability over
        the window (mean or min per ``actual_aggregate``), normalized by
        the VM's commitment so one tolerance ε compares CPU cores and
        storage GBs alike.
        """
        for record in self._window.values():
            if record.slots:
                self._emit_one(record)

    def on_slot_end(self, slot: int, outcomes: Mapping[int, SlotOutcome]) -> None:
        """Score forecasts against realized availability (Eq. 20)."""
        # Accumulate each tracked VM's realized availability minimum for
        # as long as its primary job set stays the one the forecast
        # covered; the first churn (completion or new placement) emits
        # the sample early and stops tracking — a completed job frees
        # real capacity and a new placement was never in the forecast,
        # so later slots carry no information about predictor quality.
        # A placement list whose change count has not moved since the
        # job set was last found current still holds that job set.
        vm_ids: list[int] = []
        current: list[_WindowRecord] = []
        for vm_id, record in list(self._window.items()):
            vm = record.vm
            changes = vm.placement_changes
            # A VM absent from the outcomes crashed this slot (its
            # eviction already churned the jobset, but guard anyway).
            if vm_id not in outcomes or (
                changes != record.changes
                and self._primary_jobset(vm) != record.jobset
            ):
                if record.slots:
                    # Emit the partial-window sample, then stop tracking.
                    self._emit_one(record)
                del self._window[vm_id]
                continue
            record.changes = changes
            vm_ids.append(vm_id)
            current.append(record)
        if not current:
            return
        primary = np.array([outcomes[v].primary_demand for v in vm_ids])
        actual = np.array([record.committed for record in current]) - primary
        for record, row in zip(current, actual):
            if record.slots == 0:
                record.minimum, record.total = row.copy(), row.copy()
            else:
                np.minimum(record.minimum, row, out=record.minimum)
                record.total += row
            record.slots += 1

    # ------------------------------------------------------------------
    # placement
    # ------------------------------------------------------------------
    def place_jobs(self, pending: Sequence[Job], slot: int) -> list[Job]:
        """Place pending jobs entity by entity; returns those placed.

        The primary pool (unallocated capacity) is a run-long
        :class:`~repro.cluster.shards.CandidateSet` over the cluster's
        VMs: :meth:`~repro.cluster.shards.CandidateSet.refresh` re-reads
        it off the cluster lanes in one matrix expression, with no
        per-VM attribute reads.  The opportunistic pool (unlocked
        predicted unused) is the one the window refresh built.  Both
        are updated in place (``consume``) as placements land.

        Under overload most of the queue fits nowhere, every slot: an
        attempt that finds no VM screens the queue against its pool
        (:class:`_Screen`), and the loop skips what fits nowhere.
        """
        if not pending:
            return []
        placed: list[Job] = []
        allow_opportunistic = (
            self.supports_opportunistic
            and not self._degraded
            and self.opportunistic_allowed()
        )
        if self._primary_index is None:
            self._primary_index = CandidateSet.for_vms(self.sim.vms)
        rewritten = self._primary_index.refresh()
        if OBS.enabled:
            OBS.count("index.rows_refreshed", rewritten)
        screen = self._screen(
            self.make_entities(pending),
            self._opp_pool if allow_opportunistic else None,
        )
        e = screen.next_entity(0)
        while e is not None:
            placed.extend(self._place_entity_units(screen, e, slot))
            e = screen.next_entity(e + 1)
        return placed

    def _screen(
        self, entities: list[JobEntity], opportunistic: CandidateSet | None
    ) -> _Screen:
        """The tick's screen (a seam: tests audit it or patch it off)."""
        return _Screen(self, entities, self._primary_index, opportunistic)

    def _place_entity_units(self, screen: _Screen, e: int, slot: int) -> list[Job]:
        """Place entity ``e``: unused pools first, then unallocated capacity.

        A packed pair that fits no single unused pool falls back to
        per-job opportunistic attempts before taking a reservation —
        packing targets fragmentation of *reserved* capacity (Fig. 4),
        and refusing reuse because the pair only fits apart would waste
        the very slack CORP exists to harvest.  Unit ``k`` of an entity
        is the entity itself (``0``) or its ``k``-th member.
        """
        jobs = screen.entities[e].jobs
        members = (1, 2) if len(jobs) == 2 else ()
        left = list(members)
        if screen.pools[True] is not None:
            if self._try(screen, e, 0, slot, opportunistic=True):
                return list(jobs)
            left = [
                k for k in members
                if not self._try(screen, e, k, slot, opportunistic=True)
            ]
        placed = [jobs[k - 1] for k in members if k not in left]
        if members and not left:
            return placed
        whole = len(left) == len(members)  # always, for a singleton
        if self._try(screen, e, 0 if whole else left[0], slot, opportunistic=False):
            return list(jobs) if whole else placed + [jobs[left[0] - 1]]
        if whole:
            for k in left:
                if self._try(screen, e, k, slot, opportunistic=False):
                    placed.append(jobs[k - 1])
        return placed

    def _try(
        self, screen: _Screen, e: int, k: int, slot: int, *, opportunistic: bool
    ) -> bool:
        """One attempt to place unit ``k`` of entity ``e`` into a pool.

        A unit no live row of a counted pool fits is not offered to
        ``choose_vm``: the scan would find nothing and draw no ``rng``.
        """
        entity, pool = screen.entities[e], screen.pools[opportunistic]
        if screen.units is None:
            row = entity.demand if k == 0 else entity.jobs[k - 1].requested
            if opportunistic:
                row = self.opportunistic_admission_sizes((_unit(entity, k),), row[None])[0]
        else:
            unit = screen.unit(e, k)
            row = screen.units[opportunistic][:, unit]
            counts = screen.counts[opportunistic]
            if counts is not None and not counts[unit]:
                if CHECK.enabled:
                    CHECK.checker.observe_refusal(self, _unit(entity, k), slot, pool, row)
                return False
        row.setflags(write=False)
        choice = self.choose_vm(row, pool)
        if choice is None:
            screen.failed(opportunistic)
            return False
        self._place_entity(
            _unit(entity, k), choice, slot, opportunistic=opportunistic,
            candidates=pool, demand=row,
        )
        pool.consume(choice.row, row)
        screen.consumed(opportunistic, choice.row)
        return True

    def _emit_placement(
        self,
        entity: JobEntity,
        choice: Choice,
        slot: int,
        opportunistic: bool,
        candidates: CandidateSet,
    ) -> None:
        """One ``placement`` event per placed job (decision telemetry).

        ``feasible_vms`` is the size of the feasible set the chooser
        counted; ``volume`` is the chosen VM's Eq. 22 availability
        volume, read off its pool row before ``consume`` lowers it
        (computed only here, i.e. only when a sink/profiler listens).
        """
        volume = unused_volume(candidates.matrix[choice.row], self.sim.max_vm_capacity())
        ids = entity.job_ids()
        for job in entity.jobs:
            partner = next((i for i in ids if i != job.job_id), None)
            OBS.emit(
                "placement",
                slot=slot,
                scheduler=self.name,
                job=job.job_id,
                vm=choice.vm.vm_id,
                opportunistic=opportunistic,
                packed=entity.is_packed,
                partner=partner,
                feasible_vms=choice.feasible,
                volume=volume,
            )
        OBS.count(
            "placement.opportunistic" if opportunistic else "placement.primary",
            len(entity.jobs),
        )

    def _place_entity(
        self,
        entity: JobEntity,
        choice: Choice,
        slot: int,
        *,
        opportunistic: bool,
        candidates: CandidateSet,
        demand: np.ndarray,
    ) -> None:
        # Dispatching an entity to a VM is one remote operation.
        self.latency.charge_comm(1)
        if OBS.enabled:
            self._emit_placement(entity, choice, slot, opportunistic, candidates)
        if CHECK.enabled:
            # Before add_placement mutates anything: the availabilities
            # in ``candidates`` still describe the pre-placement state.
            CHECK.checker.observe_placement(
                self, entity, choice, slot,
                opportunistic=opportunistic,
                candidates=candidates, demand=demand,
            )
        vm = choice.vm
        for job in entity.jobs:
            reserved = _NO_RESERVATION if opportunistic else job.requested
            vm.add_placement(
                Placement(job=job, vm=vm, reserved=reserved, opportunistic=opportunistic)
            )
            job.start(slot, opportunistic=opportunistic)
