"""Mutation smoke tests: corrupt the scheduler, watch the checker catch it.

Each test monkeypatches one deliberate bug into the product code and
asserts the invariant checker reports *exactly* the violation class that
bug produces — the checker's own regression test.
"""

from __future__ import annotations

import inspect
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from repro import api
from repro.check.rules import ALL_RULES
from repro.cluster.machine import ClusterLanes, Placement, VirtualMachine
from repro.cluster.profiles import ClusterProfile
from repro.core.preemption import PreemptionGate
from repro.core.provisioning import _Screen
from repro.core.vm_selection import CandidateSet, Choice
from repro.forecast.confidence import PredictionErrorTracker

pytestmark = pytest.mark.slow


def print_rule_row(mutant: str, report) -> None:
    """One row of the rule x mutant table: violations per rule (``-s``)."""
    fired = Counter(v.rule for v in report.violations)
    cells = "  ".join(f"{rule}:{fired[rule]}" for rule in report.checks)
    print(f"\n{mutant:<28}{cells}")


def tight_scenario(jobs: int = 20):
    """A 2-PM / 4-VM cluster the workload genuinely contends for —
    over-allocation bugs only manifest once capacity runs out."""
    scenario = api.build_scenario(jobs=jobs)
    return replace(
        scenario, profile=ClusterProfile.palmetto(n_pms=2, vms_per_pm=2)
    )


class TestOverAllocation:
    def test_ignored_commitments_are_caught(self, monkeypatch):
        """Lanes that forget their commitments admit infeasible primaries.

        ``ClusterLanes.unallocated`` is what the primary pool's refresh
        and ``add_placement``'s guard (through ``VirtualMachine.
        unallocated``) both read; handing out the full capacity there
        disables both, so the scheduler over-commits.  The packing rule
        recomputes the free capacity from the placement list itself and
        must flag it.
        """

        def bogus_unallocated(self: ClusterLanes, rows=slice(None)):
            return self.capacity[rows].copy()  # ignores the committed lane

        monkeypatch.setattr(ClusterLanes, "unallocated", bogus_unallocated)
        report = api.check_run(scenario=tight_scenario(), methods=("DRA",))
        print_rule_row("ignored-commitments", report)
        assert not report.ok
        rules = {v.rule for v in report.violations}
        assert "packing" in rules
        # Over-commitment corrupts capacity accounting too; nothing else.
        assert rules <= {"packing", "capacity"}
        flagged = [v for v in report.violations if v.rule == "packing"]
        assert any("exceeds" in v.detail for v in flagged)


class TestLeakedCommitment:
    def test_only_the_capacity_rule_catches_it(self, monkeypatch):
        """An ``evict_job`` that drops the placement but leaves its
        reservation on the committed lane.  The VM only looks fuller, so
        nothing over-commits (packing) and every job is still accounted
        for (jobs): only the capacity rule's recount of the reservations
        sees the drift."""
        from repro.faults.plan import FaultPlan, JobFailure, RetryPolicy

        original = VirtualMachine.evict_job

        def leaky_evict_job(self: VirtualMachine, job_id: int):
            committed = self._lanes.committed[self._row].copy()
            job = original(self, job_id)
            self._lanes.committed[self._row] = committed
            return job

        plan = FaultPlan(
            events=tuple(
                JobFailure(slot=slot, vm_index=vm)
                for slot in range(2, 12, 3) for vm in range(4)
            ),
            retry=RetryPolicy(max_retries=3, backoff_base_slots=1),
        )
        scenario = tight_scenario(30).with_fault_plan(plan)
        healthy = api.check_run(scenario=scenario, methods=("DRA",))
        assert healthy.ok
        monkeypatch.setattr(VirtualMachine, "evict_job", leaky_evict_job)
        report = api.check_run(scenario=scenario, methods=("DRA",))
        print_rule_row("leaked-commitment", report)
        assert not report.ok
        assert {v.rule for v in report.violations} == {"capacity"}
        assert any("commitment drift" in v.detail for v in report.violations)


class TestStaleOccupancy:
    def test_only_the_capacity_rule_catches_it(self, monkeypatch):
        """An ``evict_job`` that forgets to decrement the occupancy lane.
        The VM then never reads as quiescent and is executed instead of
        counted — the same rows — so the run is unchanged: only the
        capacity rule's recount of the placements against the lane sees
        it."""
        from repro.faults.plan import FaultPlan, JobFailure, RetryPolicy

        original = VirtualMachine.evict_job

        def keeps_the_count(self: VirtualMachine, job_id: int):
            occupied = self._lanes.occupied
            count = occupied[self._row]
            job = original(self, job_id)
            occupied[self._row] = count
            return job

        plan = FaultPlan(
            events=tuple(
                JobFailure(slot=slot, vm_index=vm)
                for slot in range(2, 12, 3) for vm in range(4)
            ),
            retry=RetryPolicy(max_retries=3, backoff_base_slots=1),
        )
        scenario = tight_scenario(30).with_fault_plan(plan)
        healthy = api.check_run(scenario=scenario, methods=("DRA",))
        assert healthy.ok
        monkeypatch.setattr(VirtualMachine, "evict_job", keeps_the_count)
        report = api.check_run(scenario=scenario, methods=("DRA",))
        print_rule_row("stale-occupancy", report)
        assert not report.ok
        assert {v.rule for v in report.violations} == {"capacity"}
        assert all("occupancy drift" in v.detail for v in report.violations)

        def timeless(summaries):  # allocation latency is wall-clock
            return {
                method: {k: v for k, v in row.items() if k != "allocation_latency_s"}
                for method, row in summaries.items()
            }

        assert timeless(report.summaries) == timeless(healthy.summaries)


class TestSilentGiveUp:
    def test_only_the_jobs_rule_catches_it(self, monkeypatch):
        """A ``_give_up`` that fails the job but never files it under
        ``sim.failed``.  The job leaves the queue and its VM cleanly, so
        no VM's books or pool move: only the job-conservation recount
        misses it."""
        from repro.faults.injector import FaultInjector
        from repro.faults.plan import FaultPlan, JobFailure, RetryPolicy

        original = FaultInjector._give_up

        def forgets_the_failure(self, job, slot, sim):
            original(self, job, slot, sim)
            assert sim.failed.pop() is job  # as if never appended

        plan = FaultPlan(
            events=tuple(
                JobFailure(slot=slot, vm_index=vm)
                for slot in range(2, 12, 3) for vm in range(4)
            ),
            retry=RetryPolicy(max_retries=0),
        )
        scenario = tight_scenario(30).with_fault_plan(plan)
        healthy = api.check_run(scenario=scenario, methods=("DRA",))
        assert healthy.ok
        monkeypatch.setattr(FaultInjector, "_give_up", forgets_the_failure)
        report = api.check_run(scenario=scenario, methods=("DRA",))
        print_rule_row("silent-give-up", report)
        assert not report.ok
        assert {v.rule for v in report.violations} == {"jobs"}
        assert all("job conservation" in v.detail for v in report.violations)


class TestStaleCapLane:
    def test_only_the_capacity_rule_catches_it(self, monkeypatch):
        """A ``granted_cap`` write that leaves the placement lanes' cap
        column as it was: DRA's redistributed caps are recorded on the
        placements but never reach the slot, so DRA's jobs run unsqueezed.
        Nothing over-commits, every job is accounted for and the served
        demand stays within capacity: only the capacity rule's recount of
        the placement lanes against the placement list sees it."""
        scenario = tight_scenario(30)
        healthy = api.check_run(scenario=scenario, methods=("DRA",))
        assert healthy.ok

        def keep_the_lane(placement: Placement, cap) -> None:
            placement._granted_cap = cap

        monkeypatch.setattr(
            Placement, "granted_cap", property(Placement.granted_cap.fget, keep_the_lane)
        )
        report = api.check_run(scenario=scenario, methods=("DRA",))
        print_rule_row("stale-cap-lane", report)
        assert not report.ok
        assert {v.rule for v in report.violations} == {"capacity"}
        assert all("placement lane drift" in v.detail for v in report.violations)


class TestStaleRefusals:
    def test_a_list_that_survives_a_rising_row_is_caught(self, monkeypatch):
        """A screen that counts against the lowest rows its pool has ever
        shown — one that survives a rising row — skips units a scan
        would place.  Every skipped unit is re-scanned under the packing
        rule; the books stay balanced (jobs only wait), so nothing else
        may fire."""
        original = _Screen.failed
        lowest = {}

        def survives_rising_rows(self, opportunistic):
            pool = self.pools[opportunistic]
            real = pool.matrix
            seen = lowest.get(pool, real)
            lowest[pool] = np.minimum(seen, real) if seen.shape == real.shape else real
            pool.matrix = lowest[pool].copy()
            try:
                original(self, opportunistic)
            finally:
                pool.matrix = real

        scenario = tight_scenario(30)
        healthy = api.check_run(scenario=scenario, methods=("DRA",))
        assert healthy.ok
        monkeypatch.setattr(_Screen, "failed", survives_rising_rows)
        report = api.check_run(scenario=scenario, methods=("DRA",))
        print_rule_row("stale-screen", report)
        assert not report.ok
        assert {v.rule for v in report.violations} == {"packing"}
        assert all("skipped by the screen" in v.detail for v in report.violations)


class TestBogusUnlock:
    def test_gate_bypass_is_caught(self, monkeypatch, predictor_cache):
        """An Eq. 21 gate that always unlocks must be contradicted by the
        tracked evidence the checker re-derives."""
        monkeypatch.setattr(
            PreemptionGate, "all_unlocked", lambda self: True
        )
        monkeypatch.setattr(
            PredictionErrorTracker,
            "probability_within",
            lambda self, tolerance: 0.0,
        )
        report = api.check_run(
            jobs=12, methods=("CORP",), predictor_cache=predictor_cache
        )
        print_rule_row("gate-bypass", report)
        assert not report.ok
        rules = {v.rule for v in report.violations}
        assert rules == {"gate"}
        details = " ".join(v.detail for v in report.violations)
        assert "zero error samples" in details or "below" in details


class TestStaleGateMemo:
    def test_a_write_that_skips_the_count_is_caught(self, monkeypatch):
        """The gate derives its evidence once per change of the trackers'
        write counts.  A ``record`` that appends its sample but skips the
        count leaves the gate on the evidence it derived after seeding:
        under a predictor that promises every request back as unused,
        the run's samples fall outside ``[0, ε)`` and push the tracked
        ``Pr(0 <= δ < ε)`` below ``P_th``, but the stale gate keeps
        unlocking.  The gate rule re-derives from the trackers' samples,
        not through the memo, so it alone reports it; a healthy run with
        the same predictor locks and stays clean."""
        from repro.forecast.quantile import QuantileHistogramPredictor

        class Overpromising(QuantileHistogramPredictor):
            def _unused_fractions(self, histories):
                return np.ones((len(histories), 3))

        healthy = api.check_run(jobs=120, methods=("CORP",), predictor=Overpromising())
        assert healthy.ok

        def record_without_count(self, predicted, actual):
            delta = float(actual) - float(predicted)
            self._errors.append(delta)
            return delta

        monkeypatch.setattr(PredictionErrorTracker, "record", record_without_count)
        report = api.check_run(jobs=120, methods=("CORP",), predictor=Overpromising())
        print_rule_row("stale-gate-memo", report)
        assert not report.ok
        assert {v.rule for v in report.violations} == {"gate"}
        assert all("below" in v.detail for v in report.violations)


class TestBrokenPipelineBarrier:
    def test_partial_drain_is_caught(self, monkeypatch):
        """A pipeline barrier that stops draining early submits phase
        ``N+1`` while phase-``N`` jobs are still pending/running.  The
        pipeline rule re-derives phase membership at every phase
        submission and must flag exactly that — nothing else in the
        run is corrupted, so no other rule may fire."""
        from repro.experiments.scenarios import pipeline_scenario
        from repro.experiments.workloads import pipeline as pipeline_mod

        def leaky_drain(kernel):
            # Process a handful of events instead of draining to idle:
            # earlier-phase jobs are left live in the simulator.
            for _ in range(3):
                kernel.advance()

        monkeypatch.setattr(pipeline_mod, "_drain_phase", leaky_drain)
        scenario = pipeline_scenario(18, n_phases=3)
        report = api.check_run(scenario=scenario, methods=("DRA",))
        print_rule_row("leaky-barrier", report)
        assert not report.ok
        rules = {v.rule for v in report.violations}
        assert rules == {"pipeline"}
        details = " ".join(v.detail for v in report.violations)
        assert "phase" in details and "DAG" in details

    def test_healthy_barrier_is_clean(self):
        """The unmutated pipeline run passes the same rule set, and the
        rule actually evaluated (one check per submitted phase)."""
        from repro.experiments.scenarios import pipeline_scenario

        scenario = pipeline_scenario(18, n_phases=3)
        report = api.check_run(scenario=scenario, methods=("DRA",))
        assert report.ok
        assert report.checks.get("pipeline", 0) >= 3


def _anti_most_matched(self: CandidateSet, demand, reference):
    """Eq. 22 inverted: the *largest*-volume feasible VM."""
    mask = self.feasible_mask(demand)
    if not mask.any():
        return None
    indices = np.flatnonzero(mask)
    volumes = self.volumes(reference)
    row = int(indices[np.argmax(volumes[indices])])
    return Choice(self.vms[row], row, indices.size)


class TestCorruptedVectorSelector:
    def test_only_the_volume_rule_catches_it_by_default(
        self, monkeypatch, predictor_cache
    ):
        """Without the differential re-derivation, the inverted selector
        still places every entity feasibly and keeps the books: only
        Eq. 22's optimality check over the offered set objects."""
        monkeypatch.setattr(
            CandidateSet, "select_most_matched", _anti_most_matched
        )
        report = api.check_run(
            jobs=15, methods=("CORP",), predictor_cache=predictor_cache,
        )
        print_rule_row("anti-most-matched-volume", report)
        assert not report.ok
        assert {v.rule for v in report.violations} == {"volume"}
        assert all("Eq. 22" in v.detail for v in report.violations)

    def test_anti_most_matched_is_caught(self, monkeypatch, predictor_cache):
        """A vectorized selector that picks the *largest*-volume feasible
        VM (Eq. 22 inverted) must be contradicted by the differential
        rule's per-placement scalar re-derivation."""
        monkeypatch.setattr(
            CandidateSet, "select_most_matched", _anti_most_matched
        )
        report = api.check_run(
            jobs=15, methods=("CORP",), differential=True,
            predictor_cache=predictor_cache,
        )
        print_rule_row("anti-most-matched", report)
        assert not report.ok
        rules = {v.rule for v in report.violations}
        assert "differential" in rules
        flagged = [v for v in report.violations if v.rule == "differential"]
        assert any("reference selection" in v.detail for v in flagged)

    def test_wrong_tie_break_is_caught(self, monkeypatch, predictor_cache):
        """Even a subtle corruption — right volume, wrong tie winner —
        diverges from the reference loop and must be flagged."""

        original = CandidateSet.select_most_matched

        def highest_id_on_ties(self: CandidateSet, demand, reference):
            chosen = original(self, demand, reference)
            if chosen is None:
                return None
            mask = self.feasible_mask(demand)
            indices = np.flatnonzero(mask)
            volumes = self.volumes(reference)
            tied = indices[volumes[indices] <= volumes.min(initial=np.inf,
                                                           where=mask) + 1e-9]
            row = int(tied[np.argmax(self._ids[tied])])
            return Choice(self.vms[row], row, indices.size)

        monkeypatch.setattr(
            CandidateSet, "select_most_matched", highest_id_on_ties
        )
        report = api.check_run(
            jobs=15, methods=("CORP",), differential=True,
            predictor_cache=predictor_cache,
        )
        print_rule_row("wrong-tie-break", report)
        rules = {v.rule for v in report.violations}
        # The 1e-9 tie window is far looser than the reference's 1e-12:
        # near-ties flip to the highest id and the differential rule
        # must notice (the volume rule alone cannot — the chosen VM's
        # volume is still within its tolerance of optimal).
        assert "differential" in rules


class TestMisnamedRow:
    def test_only_the_packing_rule_catches_it(self, monkeypatch, predictor_cache):
        """A most-matched selector whose ``Choice`` names the right VM but
        the next VM's row, in the window's forecast pool (the one without
        lanes: a misnamed primary row over-commits, and ``add_placement``
        refuses that outright).  The VM still gets its rider, so the volume
        and differential oracles, which re-scan the pool, agree with it;
        ``consume`` lowers the wrong row, which only moves later choices
        inside the same pool the oracles scan, and a rider reserves
        nothing.  The packing rule reads a chosen row only once it is seen
        to hold the chosen VM: it alone catches the lie."""
        original = CandidateSet.select_most_matched

        def names_the_next_row(self: CandidateSet, demand, reference):
            choice = original(self, demand, reference)
            if choice is None or self.lanes is not None or len(self.vms) < 2:
                return choice
            return choice._replace(row=(choice.row + 1) % len(self.vms))

        monkeypatch.setattr(CandidateSet, "select_most_matched", names_the_next_row)
        report = api.check_run(
            jobs=15, methods=("CORP",), differential=True,
            predictor_cache=predictor_cache,
        )
        print_rule_row("misnamed-row", report)
        assert not report.ok
        assert {v.rule for v in report.violations} == {"packing"}
        assert all("does not hold the chosen VM" in v.detail for v in report.violations)


class TestUnscaledOpportunists:
    """The surviving slot-execution oracle is independent of the
    vectorized path: mutate one and the other contradicts it."""

    #: (original line, mutated line) of ``machine.execute_slots``.
    #: The first skips the opportunists' scale-back to the capacity the
    #: primaries left.  On its own that also trips the ``capacity`` rule
    #: (served demand exceeds the VM), so the second clips the served
    #: aggregate the way a plausible wrong fix would: the VM's books
    #: balance again, yet opportunists advance faster than the machine
    #: can carry them — visible only in the per-job reference rates.
    MUTATIONS = (
        (
            "grants = np.where(opp, np.minimum(demands * squeeze[owner], caps), grants)",
            "grants = np.where(opp, np.minimum(demands, caps), grants)",
        ),
        (
            "served = _segment_sums(np.minimum(grants, demands), owner, m)",
            "served = np.minimum("
            "_segment_sums(np.minimum(grants, demands), owner, m), capacity)",
        ),
    )

    def test_only_the_differential_rule_catches_it(self, monkeypatch, predictor_cache):
        from repro.cluster import machine

        scenario = tight_scenario(30)
        healthy = api.check_run(
            scenario=scenario, methods=("CORP",), differential=True,
            predictor_cache=predictor_cache,
        )
        assert healthy.ok
        assert healthy.checks.get("differential", 0) > 0

        source = inspect.getsource(machine.execute_slots)
        for original, mutated in self.MUTATIONS:
            assert source.count(original) == 1, original
            source = source.replace(original, mutated)
        namespace: dict = {}
        exec(source, vars(machine), namespace)
        # The tick calls the name it imported; one-VM calls go through
        # the module's.
        monkeypatch.setattr(machine, "execute_slots", namespace["execute_slots"])
        monkeypatch.setattr(
            "repro.service.kernel.execute_slots", namespace["execute_slots"]
        )
        report = api.check_run(
            scenario=scenario, methods=("CORP",), differential=True,
            predictor_cache=predictor_cache,
        )
        print_rule_row("unscaled-opportunists", report)
        assert not report.ok
        assert {v.rule for v in report.violations} == {"differential"}
        assert any("reference" in v.detail for v in report.violations)


class TestRidersNotQuiescent:
    """The kernel skips the rows ``ClusterLanes.quiescent`` names instead
    of executing them."""

    def test_skipping_a_riders_only_vm_is_caught_twice(
        self, monkeypatch, predictor_cache
    ):
        """A quiescence test that drops the occupancy term and looks at
        commitment alone (riders move none) skips a VM whose primaries
        completed before its riders.  The checker still sees every
        skipped VM: the differential rule
        contradicts the idle outcome with the riders' demand.  The books
        balance and nothing over-commits — the riders just never run —
        so no other rule fires, and the lazy-history property test kills
        the same mutant at the VM (``rate_history`` stops growing)."""
        from ..cluster.test_idle_history import test_reads_equal_the_eager_list

        def ignores_riders(lanes: ClusterLanes, rows=slice(None)):
            committed = lanes.committed[rows]
            idle = lanes.online[rows].copy()  # no occupancy term
            for k in range(committed.shape[-1]):
                idle &= committed[..., k] == 0.0
            return idle

        # 40 jobs: several riders outlive their primaries.  A stuck rider
        # never drains, so the horizon is capped well past the healthy
        # run's 35 slots instead of running to the default max_slots.
        scenario = api.build_scenario(jobs=40)
        scenario = replace(
            scenario, sim_config=replace(scenario.sim_config, max_slots=60)
        )
        healthy = api.check_run(
            scenario=scenario, methods=("CORP",), differential=True,
            predictor_cache=predictor_cache,
        )
        assert healthy.ok
        monkeypatch.setattr(ClusterLanes, "quiescent", ignores_riders)
        report = api.check_run(
            scenario=scenario, methods=("CORP",), differential=True,
            predictor_cache=predictor_cache,
        )
        print_rule_row("riders-ignored", report)
        assert not report.ok
        assert {v.rule for v in report.violations} == {"differential"}
        assert any(
            v.detail.startswith("opportunistic_demand")
            for v in report.violations
        )
        with pytest.raises(AssertionError):
            test_reads_equal_the_eager_list()


#: The adequacy half of the rule x mutant table: for every rule, a
#: mutant that it alone catches (each test asserts the violated rule set
#: is exactly that rule).  A rule added to ``ALL_RULES`` without one
#: fails the test below.
EXCLUSIVE_MUTANTS = {
    "capacity": (TestLeakedCommitment.test_only_the_capacity_rule_catches_it,),
    "jobs": (TestSilentGiveUp.test_only_the_jobs_rule_catches_it,),
    "gate": (TestBogusUnlock.test_gate_bypass_is_caught,),
    "packing": (
        TestStaleRefusals.test_a_list_that_survives_a_rising_row_is_caught,
        TestMisnamedRow.test_only_the_packing_rule_catches_it,
    ),
    "volume": (TestCorruptedVectorSelector.test_only_the_volume_rule_catches_it_by_default,),
    "pipeline": (TestBrokenPipelineBarrier.test_partial_drain_is_caught,),
    "differential": (TestUnscaledOpportunists.test_only_the_differential_rule_catches_it,),
}


def test_every_rule_has_an_exclusive_mutant():
    assert set(EXCLUSIVE_MUTANTS) == set(ALL_RULES)
