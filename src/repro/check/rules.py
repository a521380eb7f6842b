"""The invariant rules and the checker that evaluates them at runtime.

Each rule encodes one of the paper's stated guarantees:

``capacity``
    Per-slot capacity conservation (Section II accounting): the sum of
    primary reservations on a VM matches its incrementally maintained
    commitment (its placement count the occupancy lane, its placements
    their placement-lane rows), the
    commitment never exceeds the nominal capacity, the served demand
    never exceeds the effective (revocation-aware) capacity, and the
    unlocked opportunistic pools stay inside the allocated-but-idle
    slack they were carved from.
``jobs``
    Job conservation under faults: every submitted job is, at the end of
    every slot, in exactly one of queued / running / completed /
    rejected / failed / retry-backoff.
``gate``
    Eq. 21 soundness: the preemption gate may only report *unlocked*
    when the empirical ``Pr(0 ≤ δ < ε)`` (plus its binomial standard
    error credit) actually meets ``P_th`` on every resource.
``packing``
    Packing feasibility (Section III-B): the chooser's decision names a
    live pool row that holds the chosen VM, a placed entity's demand
    fits that row's availability, and a primary reservation fits the
    capacity that is genuinely still unreserved (recomputed from the
    placement list, not from the incremental total).
``volume``
    Eq. 22 optimality: when the scheduler selects by unused-resource
    volume, the chosen VM minimizes that volume over the feasible set it
    was offered.
``pipeline``
    Phase ordering for DAG/pipeline scenarios: when a pipeline phase is
    submitted, no job of any earlier phase may still be live (queued,
    running or in retry backoff) — the "phase N completes before phase
    N+1 submits" DAG edge, checked at the submission barrier.
``differential``
    Opt-in reference-vs-vectorized diff (the PR 1 property test as a
    runtime tool): every slot of every VM is re-derived with the
    per-placement reference semantics and compared to the vectorized
    outcome (see :mod:`repro.check.differential`), and every Eq. 22
    VM selection is re-derived with the scalar reference loop of
    :func:`repro.core.vm_selection.select_most_matched` and compared
    to the scheduler's (vectorized) choice — the vectorized selector
    is never its own oracle.

The checker is strictly read-only: it never mutates simulator, VM, job
or scheduler state, so a checked run's summaries are byte-identical to
an unchecked run's on every deterministic field (the wall-clock
``allocation_latency_s`` differs between any two runs, checked or not).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Optional

import numpy as np

from ..cluster.resources import fits_within

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from ..cluster.machine import SlotOutcome, VirtualMachine
    from ..cluster.shards import CandidateSet, Choice
    from ..cluster.simulator import ClusterSimulator
    from ..core.packing import JobEntity
    from ..core.preemption import PreemptionGate
    from .differential import SlotSnapshot

__all__ = [
    "ALL_RULES",
    "DEFAULT_RULES",
    "Violation",
    "InvariantChecker",
    "CheckReport",
]

#: Every known rule name, in reporting order.
ALL_RULES: tuple[str, ...] = (
    "capacity",
    "jobs",
    "gate",
    "packing",
    "volume",
    "pipeline",
    "differential",
)

#: Rules enabled by default — everything except the (expensive)
#: per-slot differential re-execution, which is opt-in.
DEFAULT_RULES: tuple[str, ...] = (
    "capacity",
    "jobs",
    "gate",
    "packing",
    "volume",
    "pipeline",
)


@dataclass(frozen=True)
class Violation:
    """One invariant breach, with enough context to locate it."""

    rule: str
    detail: str
    slot: Optional[int] = None
    scheduler: Optional[str] = None
    vm: Optional[int] = None
    job: Optional[int] = None

    def as_row(self) -> dict[str, object]:
        """Flat dict form for tables and JSON output."""
        return {
            "rule": self.rule,
            "slot": self.slot,
            "scheduler": self.scheduler,
            "vm": self.vm,
            "job": self.job,
            "detail": self.detail,
        }


class InvariantChecker:
    """Evaluates the enabled rules at the simulator's decision points.

    Parameters
    ----------
    rules:
        Rule names to enable (default: :data:`DEFAULT_RULES`).  Unknown
        names raise immediately — a typo silently checking nothing is
        exactly the failure mode this subsystem exists to prevent.
    tolerance:
        Absolute float slack for the accounting comparisons.
    max_violations:
        Violations beyond this many are counted but not stored.
    """

    def __init__(
        self,
        *,
        rules: Iterable[str] | None = None,
        tolerance: float = 1e-6,
        max_violations: int = 200,
    ) -> None:
        chosen = tuple(rules) if rules is not None else DEFAULT_RULES
        unknown = sorted(set(chosen) - set(ALL_RULES))
        if unknown:
            raise ValueError(
                f"unknown invariant rule(s) {unknown}; known: {list(ALL_RULES)}"
            )
        if tolerance <= 0:
            raise ValueError("tolerance must be positive")
        self.rules = frozenset(chosen)
        self.tolerance = tolerance
        self.max_violations = max_violations
        self.violations: list[Violation] = []
        self.n_violations = 0
        #: Per-rule count of evaluations performed (not failures) — a
        #: run that "passes" with zero checks performed proves nothing,
        #: so reports surface these alongside the violations.
        self.checks: dict[str, int] = {rule: 0 for rule in chosen}

    @property
    def ok(self) -> bool:
        """True while no invariant has been violated."""
        return self.n_violations == 0

    def _report(
        self,
        rule: str,
        detail: str,
        *,
        slot: int | None = None,
        scheduler: str | None = None,
        vm: int | None = None,
        job: int | None = None,
    ) -> None:
        self.n_violations += 1
        if len(self.violations) < self.max_violations:
            self.violations.append(
                Violation(
                    rule=rule, detail=detail, slot=slot,
                    scheduler=scheduler, vm=vm, job=job,
                )
            )

    # ------------------------------------------------------------------
    # simulator slot-loop hooks
    # ------------------------------------------------------------------
    def before_execute(self, vm: "VirtualMachine") -> "SlotSnapshot | None":
        """Capture a pre-execution snapshot (differential rule only)."""
        if "differential" not in self.rules:
            return None
        from .differential import capture_snapshot

        return capture_snapshot(vm)

    def after_execute(
        self,
        vm: "VirtualMachine",
        slot: int,
        outcome: "SlotOutcome",
        snapshot: "SlotSnapshot | None" = None,
        *,
        scheduler: str | None = None,
    ) -> None:
        """Per-VM capacity conservation + optional differential diff."""
        tol = self.tolerance
        if "capacity" in self.rules:
            self.checks["capacity"] += 1
            occupied = int(vm._lanes.occupied[vm._row])
            if occupied != len(vm.placements):
                self._report(
                    "capacity",
                    f"occupancy drift: lane {occupied} != "
                    f"{len(vm.placements)} placement(s)",
                    slot=slot, scheduler=scheduler, vm=vm.vm_id,
                )
            drift = self._placement_lane_drift(vm)
            if drift:
                self._report(
                    "capacity", f"placement lane drift: {drift}",
                    slot=slot, scheduler=scheduler, vm=vm.vm_id,
                )
            committed = vm.committed()
            recomputed = vm.reserved_total()
            if np.any(np.abs(committed - recomputed) > tol):
                self._report(
                    "capacity",
                    f"commitment drift: incremental {committed.tolist()} != "
                    f"recomputed {recomputed.tolist()}",
                    slot=slot, scheduler=scheduler, vm=vm.vm_id,
                )
            base = vm.base_capacity
            if np.any(committed > base + tol):
                self._report(
                    "capacity",
                    f"committed {committed.tolist()} exceeds nominal "
                    f"capacity {base.tolist()}",
                    slot=slot, scheduler=scheduler, vm=vm.vm_id,
                )
            cap = vm.capacity
            served = outcome.served_demand
            if np.any(served > cap + tol):
                self._report(
                    "capacity",
                    f"served demand {served.tolist()} exceeds effective "
                    f"capacity {cap.tolist()}",
                    slot=slot, scheduler=scheduler, vm=vm.vm_id,
                )
            expected_unused = np.maximum(
                outcome.committed - outcome.primary_demand, 0.0
            )
            if np.any(np.abs(outcome.unused - expected_unused) > tol):
                self._report(
                    "capacity",
                    f"unused {outcome.unused.tolist()} != "
                    f"max(committed - primary demand, 0) "
                    f"{expected_unused.tolist()}",
                    slot=slot, scheduler=scheduler, vm=vm.vm_id,
                )
        if snapshot is not None:
            self.checks["differential"] += 1
            from .differential import diff_outcome

            for detail in diff_outcome(snapshot, outcome, vm):
                self._report(
                    "differential", detail,
                    slot=slot, scheduler=scheduler, vm=vm.vm_id,
                )

    @staticmethod
    def _placement_lane_drift(vm: "VirtualMachine") -> str:
        """The VM's :class:`~repro.cluster.machine.PlacementLanes` rows
        recounted from its placement list: one row per placement, owned
        by the VM, each with the placement's class, cap and its job's
        progress and nominal slots ("" when they agree)."""
        placed, placements = vm._lanes.placed, vm.placements
        owned = int(np.count_nonzero(placed.owner == vm._row))
        if owned != len(placements):
            return f"{owned} row(s) for {len(placements)} placement(s)"
        for p in placements:
            row, job = p.row, p.job
            if row < 0 or placed.owner[row] != vm._row:
                return f"job {job.job_id} holds no row of this VM"
            if (
                bool(placed.rider[row]) != p.opportunistic
                or not np.array_equal(placed.cap[row], p.effective_cap())
                or placed.progress[row] != job.progress
                or placed.nominal[row] != job.nominal_slots
            ):
                return f"job {job.job_id}'s row disagrees with its placement"
        return ""

    def end_slot(
        self, sim: "ClusterSimulator", slot: int, n_submitted: int
    ) -> None:
        """Job conservation + opportunistic-pool sanity, once per slot.

        ``n_submitted`` counts jobs actually delivered to the system
        (the kernel's submission counter), not the trace length — so the
        accounting also holds on a *truncated* run (``max_slots`` hit
        with arrivals never submitted): jobs still in flight sit in the
        pending/running/backoff buckets, and never-submitted arrivals
        are absent from both sides of the equation.
        """
        if "jobs" in self.rules:
            self.checks["jobs"] += 1
            backlog = 0 if sim.faults is None else sim.faults.backlog_count()
            buckets = {
                "pending": len(sim.pending),
                "running": len(sim.running),
                "completed": len(sim.completed),
                "rejected": len(sim.rejected),
                "failed": len(sim.failed),
                "backoff": backlog,
            }
            accounted = sum(buckets.values())
            if accounted != n_submitted:
                self._report(
                    "jobs",
                    f"job conservation broken: {buckets} sums to "
                    f"{accounted}, but {n_submitted} jobs were submitted",
                    slot=slot, scheduler=sim.scheduler.name,
                )
        if "capacity" in self.rules:
            # The unlocked opportunistic pools live inside commitments:
            # they can never go negative or exceed the VM's nominal
            # capacity.  (They may transiently exceed the *current*
            # commitment mid-window when a primary completes early — the
            # strict committed-slack bound is checked at refresh time by
            # observe_pools.)
            tol = self.tolerance
            for vm, pool in self._pool_rows(sim.scheduler):
                self.checks["capacity"] += 1
                base = vm.base_capacity
                if np.any(pool < -tol) or np.any(pool > base + tol):
                    self._report(
                        "capacity",
                        f"opportunistic pool {pool.tolist()} "
                        f"outside [0, nominal capacity "
                        f"{base.tolist()}]",
                        slot=slot, scheduler=sim.scheduler.name, vm=vm.vm_id,
                    )

    # ------------------------------------------------------------------
    # provisioning hooks
    # ------------------------------------------------------------------
    @staticmethod
    def _pool_rows(
        scheduler: object,
    ) -> Iterable[tuple["VirtualMachine", np.ndarray]]:
        """Every row of the window's opportunistic pool, voided ones too."""
        pool = getattr(scheduler, "_opp_pool", None)
        return () if pool is None else zip(pool.vms, pool.matrix)

    def observe_pools(self, scheduler: object) -> None:
        """At forecast refresh: unlocked pools fit the committed slack.

        This is the strict form of the "unlocked resource never exceeds
        allocated-but-idle capacity" invariant — valid exactly when the
        pools are (re)derived, before mid-window completions can shrink
        the commitment underneath them.
        """
        if "capacity" not in self.rules:
            return
        tol = self.tolerance
        sim = getattr(scheduler, "_sim", None)
        slot = sim.current_slot if sim is not None else None
        for vm, pool in self._pool_rows(scheduler):
            self.checks["capacity"] += 1
            slack = vm.committed()
            if np.any(pool < -tol) or np.any(pool > slack + tol):
                self._report(
                    "capacity",
                    f"refreshed opportunistic pool "
                    f"{pool.tolist()} exceeds committed "
                    f"slack {slack.tolist()}",
                    slot=slot,
                    scheduler=getattr(scheduler, "name", None),
                    vm=vm.vm_id,
                )

    def observe_placement(
        self,
        scheduler: object,
        entity: "JobEntity",
        choice: "Choice",
        slot: int,
        *,
        opportunistic: bool,
        candidates: "CandidateSet",
        demand: np.ndarray,
    ) -> None:
        """Packing feasibility (Section III-B) and Eq. 22 optimality.

        ``choice`` is evidence, not trusted: its row is read only once
        it is seen to hold the chosen VM, live, and the ``volume`` and
        ``differential`` oracles re-scan the pool as pairs (neither reads
        ``choice.feasible``)."""
        name = getattr(scheduler, "name", None)
        vm, row = choice.vm, choice.row
        chosen_avail = None
        live = 0 <= row < len(candidates.vms) and candidates.online[row]
        if live and candidates.vms[row] is vm:
            chosen_avail = candidates.matrix[row].copy()
            chosen_avail.setflags(write=False)
        if "packing" in self.rules:
            self.checks["packing"] += 1
            if chosen_avail is None:
                self._report(
                    "packing", f"pool row {row} does not hold the chosen VM live",
                    slot=slot, scheduler=name, vm=vm.vm_id, job=entity.job_ids()[0],
                )
            elif not fits_within(demand, chosen_avail, atol=self.tolerance):
                self._report(
                    "packing",
                    f"entity demand {demand.tolist()} does not "
                    f"fit the chosen availability "
                    f"{chosen_avail.tolist()}",
                    slot=slot, scheduler=name, vm=vm.vm_id,
                    job=entity.job_ids()[0],
                )
            if not opportunistic:
                # Recompute the genuinely unreserved capacity from the
                # placement list itself — an over-allocation that fooled
                # the (possibly corrupted) incremental accounting cannot
                # fool this.
                free = vm.capacity - vm.reserved_total()
                need = entity.demand
                if np.any(need > free + self.tolerance):
                    self._report(
                        "packing",
                        f"primary reservation {need.tolist()} exceeds "
                        f"unreserved capacity {free.tolist()}",
                        slot=slot, scheduler=name, vm=vm.vm_id,
                        job=entity.job_ids()[0],
                    )
        if (
            "volume" in self.rules
            and chosen_avail is not None
            and getattr(scheduler, "uses_volume_selection", False)
        ):
            sim = getattr(scheduler, "_sim", None)
            if sim is not None:
                from ..core.vm_selection import min_feasible_volume, unused_volume

                self.checks["volume"] += 1
                reference = sim.max_vm_capacity()
                best = min_feasible_volume(demand, candidates, reference)
                chosen_volume = unused_volume(chosen_avail, reference)
                if best is not None and chosen_volume > best + 1e-9:
                    self._report(
                        "volume",
                        f"chosen VM volume {chosen_volume:.6f} is not the "
                        f"feasible minimum {best:.6f} "
                        f"(Eq. 22 most-matched)",
                        slot=slot, scheduler=name, vm=vm.vm_id,
                        job=entity.job_ids()[0],
                    )
        if (
            "differential" in self.rules
            and getattr(scheduler, "uses_volume_selection", False)
        ):
            sim = getattr(scheduler, "_sim", None)
            if sim is not None:
                from ..core.vm_selection import select_most_matched

                # Re-derive the whole choice with the scalar reference
                # loop (iterating the candidate set as plain pairs, so a
                # corrupted CandidateSet fast path cannot vouch for
                # itself) and demand the identical VM, tie-break
                # included — strictly stronger than the volume bound.
                self.checks["differential"] += 1
                expected = select_most_matched(
                    demand, list(candidates), sim.max_vm_capacity()
                )
                if expected is not vm:
                    self._report(
                        "differential",
                        f"vectorized selection chose VM {vm.vm_id}, but "
                        f"the per-placement reference selection chooses "
                        f"VM {expected.vm_id if expected is not None else None} "
                        f"(Eq. 22 most-matched)",
                        slot=slot, scheduler=name, vm=vm.vm_id,
                        job=entity.job_ids()[0],
                    )

    def observe_refusal(
        self, scheduler: object, entity: "JobEntity", slot: int,
        candidates: "CandidateSet", demand: np.ndarray,
    ) -> None:
        """A unit the overload screen skipped (its fit count read 0) must
        have been futile: the full feasibility scan finds no live row."""
        if "packing" not in self.rules:
            return
        self.checks["packing"] += 1
        (fits,) = np.nonzero(candidates.feasible_mask(demand))
        if fits.size:
            self._report(
                "packing",
                f"unit skipped by the screen, but demand "
                f"{demand.tolist()} fits the availability "
                f"{candidates.matrix[fits[0]].tolist()}",
                slot=slot, scheduler=getattr(scheduler, "name", None),
                vm=candidates.vms[fits[0]].vm_id, job=entity.job_ids()[0],
            )

    # ------------------------------------------------------------------
    # pipeline-barrier hook
    # ------------------------------------------------------------------
    def observe_pipeline_submission(
        self,
        sim: "ClusterSimulator",
        *,
        phase: int,
        slot: int,
        job_phase: dict[int, int],
    ) -> None:
        """DAG edge: no earlier-phase job may be live at a phase barrier.

        Called by the pipeline driver right before it submits phase
        ``phase``.  ``job_phase`` maps job id → phase index; jobs of
        phases ``< phase`` found queued, running or backed off mean the
        gate released the next phase early.
        """
        if "pipeline" not in self.rules:
            return
        self.checks["pipeline"] += 1
        backlog = [] if sim.faults is None else sim.faults.backlog_jobs()
        live = list(sim.pending) + list(sim.running) + list(backlog)
        stale = [
            job
            for job in live
            if job_phase.get(job.job_id, phase) < phase
        ]
        if stale:
            worst = min(stale, key=lambda j: j.job_id)
            self._report(
                "pipeline",
                f"phase {phase} submitted with {len(stale)} job(s) of "
                f"earlier phases still live (e.g. job {worst.job_id} of "
                f"phase {job_phase[worst.job_id]}) — the phase-ordering "
                f"DAG edge is broken",
                slot=slot,
                scheduler=sim.scheduler.name,
                job=worst.job_id,
            )

    # ------------------------------------------------------------------
    # preemption-gate hook
    # ------------------------------------------------------------------
    def observe_gate(
        self,
        gate: "PreemptionGate",
        unlocked: bool,
        *,
        scheduler: str | None = None,
        slot: int | None = None,
    ) -> None:
        """Eq. 21: an *unlock* must be backed by the tracked evidence.

        The deny direction is always sound (keeping resources locked can
        cost utilization, never correctness), so only unlocks are
        re-derived — from each tracker's own samples, not through the
        gate's memo, so a memo that missed a write is caught here.
        """
        if "gate" not in self.rules:
            return
        self.checks["gate"] += 1
        if not unlocked:
            return
        from ..core.preemption import gate_evidence

        for kind, tracker in enumerate(gate.trackers):
            p, standard_error, n = gate_evidence(tracker, gate.error_tolerance)
            if n == 0:
                self._report(
                    "gate",
                    f"unlocked with zero error samples on resource {kind}",
                    slot=slot, scheduler=scheduler,
                )
                continue
            if np.isnan(p):  # pragma: no cover - n > 0 implies a value
                self._report(
                    "gate",
                    f"unlocked with undefined Pr(0 <= delta < eps) on "
                    f"resource {kind}",
                    slot=slot, scheduler=scheduler,
                )
                continue
            if p + standard_error < gate.probability_threshold - 1e-12:
                self._report(
                    "gate",
                    f"unlocked on resource {kind} with Pr={p:.4f} "
                    f"(+{standard_error:.4f} s.e., n={n}) below "
                    f"P_th={gate.probability_threshold:.4f}",
                    slot=slot, scheduler=scheduler,
                )


@dataclass
class CheckReport:
    """What one checked run produced: violations, coverage, summaries."""

    violations: list[Violation]
    checks: dict[str, int]
    n_violations: int
    #: Per-method run summaries, identical to what an unchecked
    #: ``compare()`` over the same scenario would return.
    summaries: dict[str, dict[str, float]] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """True when no invariant was violated."""
        return self.n_violations == 0

    @property
    def n_checks(self) -> int:
        """Total rule evaluations performed across the run."""
        return sum(self.checks.values())

    def rows(self) -> list[dict[str, object]]:
        """Stored violations as flat table rows."""
        return [v.as_row() for v in self.violations]
