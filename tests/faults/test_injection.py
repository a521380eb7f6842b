"""Fault injection end-to-end: eviction accounting, determinism, recovery.

Runs real simulations (small trace, small cluster) against hand-built
and sampled :class:`FaultPlan`\\ s, exercising every scheduler the paper
compares.  Structural assertions only — job conservation, counter
consistency, terminal states — so the tests stay robust at test sizes.
"""

import numpy as np
import pytest

from repro import (
    CloudScaleScheduler,
    ClusterProfile,
    ClusterSimulator,
    CorpScheduler,
    DraScheduler,
    METHOD_ORDER,
    RccrScheduler,
    SimulationConfig,
)
from repro.cluster.job import JobState
from repro.faults import (
    CapacityRevocation,
    FaultPlan,
    JobFailure,
    PredictorOutage,
    RetryPolicy,
    VmCrash,
    build_fault_plan,
)
from repro.obs import OBS, MemorySink, attach_sink, detach_sink

from ..conftest import make_short_trace

N_VMS = 8  # palmetto(n_pms=4, vms_per_pm=2)


@pytest.fixture(autouse=True)
def pristine_observer():
    OBS.reset()
    yield
    OBS.reset()


@pytest.fixture(scope="module")
def fault_trace():
    return make_short_trace(n_jobs=30, seed=21)


@pytest.fixture(scope="module")
def fault_history():
    return make_short_trace(
        n_jobs=120, seed=22, arrival_span_s=None, arrival_rate_per_s=0.2
    )


@pytest.fixture(scope="module")
def run(fault_trace, fault_history, fast_corp_config, fitted_predictor):
    """Run one method over the shared workload under an optional plan."""

    def make(name):
        if name == "CORP":
            return CorpScheduler(fast_corp_config, predictor=fitted_predictor)
        if name == "RCCR":
            return RccrScheduler(seed=1)
        if name == "CloudScale":
            return CloudScaleScheduler(seed=1)
        return DraScheduler(seed=1)

    def _run(name, plan=None):
        sim = ClusterSimulator(
            ClusterProfile.palmetto(n_pms=4, vms_per_pm=2),
            make(name),
            SimulationConfig(),
            fault_plan=plan,
        )
        return sim.run(fault_trace, history=fault_history)

    return _run


def comparable(summary):
    """Summary minus the wall-clock field (host-dependent)."""
    return {k: v for k, v in summary.items() if k != "allocation_latency_s"}


CRASH_ALL = FaultPlan(
    events=tuple(VmCrash(slot=4, vm_index=i, downtime_slots=3) for i in range(N_VMS))
)

CHURN = build_fault_plan(seed=13, n_slots=120, intensity=1.0)


class TestEmptyPlanIdentity:
    @pytest.mark.parametrize("method", METHOD_ORDER)
    def test_empty_plan_matches_no_plan(self, run, method):
        """An empty FaultPlan costs nothing and changes nothing."""
        plain = run(method)
        empty = run(method, FaultPlan())
        assert comparable(empty.summary()) == comparable(plain.summary())
        assert empty.resilience is None
        assert "evictions" not in empty.summary()


class TestDeterminism:
    @pytest.mark.parametrize("method", METHOD_ORDER)
    def test_same_seed_same_plan_bit_identical(self, run, method):
        first = run(method, CHURN)
        second = run(method, CHURN)
        assert comparable(first.summary()) == comparable(second.summary())


class TestAccountingInvariants:
    @pytest.mark.parametrize("method", METHOD_ORDER)
    def test_jobs_conserved_under_churn(self, run, method):
        result = run(method, CHURN)
        assert result.all_done, method
        assert (
            result.n_completed + result.n_rejected + result.n_failed
            == result.n_submitted
        )
        assert len(result.jobs) == result.n_submitted
        # Nothing left running or queued: every job either completed,
        # permanently failed, or was rejected (rejected jobs keep their
        # PENDING state but sit in the rejected bucket).
        assert not any(j.state is JobState.RUNNING for j in result.jobs)
        pending = [j for j in result.jobs if j.state is JobState.PENDING]
        assert len(pending) == result.n_rejected

    @pytest.mark.parametrize("method", ("DRA", "CORP"))
    def test_counters_match_per_job_tallies(self, run, method):
        result = run(method, CHURN)
        stats = result.resilience
        assert stats is not None
        assert stats["evictions"] == sum(j.evictions for j in result.jobs)
        assert stats["retries"] == sum(j.retries for j in result.jobs)
        assert stats["gave_up"] == result.n_failed
        assert stats["recovery_latency_slots"] >= 0.0
        assert stats["slo_violations_faulted"] >= stats["gave_up"]

    def test_crash_evicts_and_requeues(self, run):
        """Crashing every VM mid-run evicts in-flight work, which then
        re-places and still finishes (evictions don't burn retries)."""
        result = run("DRA", CRASH_ALL)
        stats = result.resilience
        assert stats["vm_failures"] == float(N_VMS)
        assert stats["evictions"] > 0
        assert result.all_done
        evicted = [j for j in result.jobs if j.evictions > 0]
        assert evicted
        assert all(j.state is JobState.COMPLETED for j in evicted)
        assert stats["retries"] == 0.0  # crash eviction is not a retry


class TestCapacityRevocation:
    def test_capacity_restores_after_revocation(self, fault_trace, fault_history):
        plan = FaultPlan(
            events=tuple(
                CapacityRevocation(
                    slot=3, vm_index=i, fraction=0.5, duration_slots=4
                )
                for i in range(N_VMS)
            )
        )
        sim = ClusterSimulator(
            ClusterProfile.palmetto(n_pms=4, vms_per_pm=2),
            DraScheduler(seed=1),
            SimulationConfig(),
            fault_plan=plan,
        )
        result = sim.run(fault_trace, history=fault_history)
        assert result.all_done
        assert result.resilience["capacity_revocations"] == float(N_VMS)
        for vm in sim.vms:
            assert np.array_equal(vm.capacity, vm.base_capacity)  # scale back to 1.0


class TestPredictorOutage:
    """Regression: a predictor outage must never crash any scheduler."""

    OUTAGE = FaultPlan(
        events=(
            PredictorOutage(slot=2, duration_slots=6),
            PredictorOutage(slot=20, duration_slots=6),
        )
    )

    @pytest.mark.parametrize("method", METHOD_ORDER)
    def test_outage_never_crashes(self, run, method):
        result = run(method, self.OUTAGE)
        assert result.all_done, method
        assert result.resilience["predictor_outage_slots"] > 0

    def test_degraded_mode_events_enter_and_exit(self, run):
        sink = attach_sink(MemorySink())
        try:
            run("CORP", self.OUTAGE)
        finally:
            detach_sink()
        flags = [e.fields["active"] for e in sink.named("degraded_mode")]
        assert True in flags and False in flags
        outages = [e.fields["active"] for e in sink.named("predictor_outage")]
        assert True in flags and False in outages


class TestRetrySemantics:
    def test_job_failure_retries_with_backoff_events(self, run):
        plan = FaultPlan(
            events=tuple(
                JobFailure(slot=s, vm_index=v)
                for s in (3, 4, 5)
                for v in range(N_VMS)
            ),
            retry=RetryPolicy(max_retries=3, backoff_base_slots=1),
        )
        sink = attach_sink(MemorySink())
        try:
            result = run("RCCR", plan)
        finally:
            detach_sink()
        stats = result.resilience
        assert stats["retries"] > 0
        assert sink.named("job_fail")
        assert sink.named("retry")  # backed-off jobs re-entered the queue
        assert result.all_done

    def test_exhausted_retries_give_up(self, run):
        # Hammer every VM every slot with zero tolerance: the first
        # failure each job takes is terminal.
        plan = FaultPlan(
            events=tuple(
                JobFailure(slot=s, vm_index=v)
                for s in range(40)
                for v in range(N_VMS)
            ),
            retry=RetryPolicy(max_retries=0, give_up_slots=30),
        )
        result = run("DRA", plan)
        assert result.n_failed > 0
        assert result.resilience["gave_up"] == result.n_failed
        assert result.all_done
        failed = [j for j in result.jobs if j.state is JobState.FAILED]
        assert len(failed) == result.n_failed
        assert all(j.completion_slot is None for j in failed)
