"""End-to-end simulator behaviour with a minimal greedy scheduler."""

from typing import Sequence

import numpy as np
import pytest

from repro.cluster.job import Job, JobState
from repro.cluster.machine import Placement
from repro.cluster.profiles import ClusterProfile
from repro.cluster.resources import ResourceVector
from repro.cluster.scheduler import Scheduler
from repro.cluster.simulator import ClusterSimulator, SimulationConfig
from repro.cluster.slo import SloSpec
from repro.trace.records import Trace

from ..conftest import make_short_trace
from .test_job import make_record


class GreedyScheduler(Scheduler):
    """First-fit primary-only scheduler — the simplest valid policy."""

    name = "greedy"

    def place_jobs(self, pending: Sequence[Job], slot: int):
        placed = []
        for job in pending:
            for vm in self.vms:
                if vm.can_reserve(job.requested):
                    vm.add_placement(
                        Placement(
                            job=job,
                            vm=vm,
                            reserved=job.requested,
                            opportunistic=False,
                        )
                    )
                    job.start(slot, opportunistic=False)
                    placed.append(job)
                    break
        return placed


@pytest.fixture()
def profile():
    return ClusterProfile.palmetto(n_pms=4, vms_per_pm=2)


def run_greedy(trace: Trace, profile, **cfg_kw):
    sim = ClusterSimulator(profile, GreedyScheduler(), SimulationConfig(**cfg_kw))
    return sim.run(trace)


class TestBasicRun:
    def test_all_jobs_complete(self, profile):
        trace = make_short_trace(n_jobs=20, seed=5)
        result = run_greedy(trace, profile)
        assert result.n_submitted == len(trace)
        assert result.n_completed + result.n_rejected == result.n_submitted
        assert result.all_done

    def test_jobs_complete_in_nominal_time_when_uncontended(self, profile):
        trace = make_short_trace(n_jobs=5, seed=6)
        result = run_greedy(trace, profile)
        for job in result.jobs:
            if job.state is JobState.COMPLETED and job.start_slot == job.submit_slot:
                assert job.response_slots() <= job.nominal_slots + 1

    def test_metrics_recorded_every_slot(self, profile):
        trace = make_short_trace(n_jobs=10, seed=7)
        result = run_greedy(trace, profile)
        assert result.metrics.n_slots == result.n_slots

    def test_utilization_bounded(self, profile):
        trace = make_short_trace(n_jobs=20, seed=8)
        result = run_greedy(trace, profile)
        util = result.summary()["overall_utilization"]
        assert 0.0 < util <= 1.0

    def test_summary_keys(self, profile):
        result = run_greedy(make_short_trace(n_jobs=5, seed=9), profile)
        summary = result.summary()
        for key in (
            "overall_utilization",
            "overall_wastage",
            "slo_violation_rate",
            "allocation_latency_s",
            "utilization_cpu",
            "utilization_mem",
            "utilization_storage",
        ):
            assert key in summary

    def test_empty_prediction_log_reports_no_error_rate(self, profile):
        # The greedy scheduler never logs predictions; an empty log has
        # an undefined (NaN) error rate, which the result must surface
        # as "no metric", never as a perfect 0.0.
        result = run_greedy(make_short_trace(n_jobs=5, seed=13), profile)
        assert result.prediction_error_rate is None
        assert "prediction_error_rate" not in result.summary()

    def test_deterministic_given_seeded_trace(self, profile):
        trace = make_short_trace(n_jobs=15, seed=10)
        a = run_greedy(trace, ClusterProfile.palmetto(n_pms=4, vms_per_pm=2))
        b = run_greedy(trace, ClusterProfile.palmetto(n_pms=4, vms_per_pm=2))
        sa, sb = a.summary(), b.summary()
        # Wall-clock latency is inherently non-deterministic; everything
        # else must match bit-for-bit.
        sa.pop("allocation_latency_s"), sb.pop("allocation_latency_s")
        assert sa == sb


class TestAdmission:
    def test_oversized_job_rejected(self, profile):
        record = make_record(request=(999.0, 1.0, 1.0), duration_s=30.0)
        result = run_greedy(Trace([record]), profile)
        assert result.n_rejected == 1
        assert result.n_completed == 0

    def test_max_vm_capacity(self, profile):
        sim = ClusterSimulator(profile, GreedyScheduler())
        capacity = sim.max_vm_capacity()
        np.testing.assert_array_equal(capacity, profile.vm_capacity.as_array())
        assert not capacity.flags.writeable

    def test_a_revocation_in_force_rejects_nothing_for_good(self, profile):
        """Admission is judged on nominal capacities: a job that fits a
        VM once a revocation ends waits for it instead of being rejected."""
        from repro.service.kernel import SchedulerKernel

        sim = ClusterSimulator(profile, GreedyScheduler())
        kernel = SchedulerKernel(sim, streaming=True)
        for vm in sim.vms:
            vm.set_capacity_scale(0.5)
        request = profile.vm_capacity.as_array() * 0.8
        kernel.submit(make_record(request=tuple(request), duration_s=30.0))
        kernel.advance()  # the submission
        kernel.advance()  # a tick under the revocation: no VM can host it
        assert not sim.rejected and len(sim.pending) == 1
        for vm in sim.vms:
            vm.set_capacity_scale(1.0)
        kernel.run_until_blocked()
        assert [job.state for job in sim.completed] == [JobState.COMPLETED]


class TestQueueing:
    def test_saturated_cluster_queues_jobs(self):
        # One tiny VM; several concurrent jobs must wait their turn.
        tiny = ClusterProfile(
            name="tiny",
            n_pms=1,
            pm_capacity=ResourceVector.of(cpu=4, mem=16, storage=100),
            vms_per_pm=1,
            comm_latency_s=0.0,
        )
        records = [
            make_record(request=(3, 4, 10), duration_s=50.0, task_id=i)
            for i in range(4)
        ]
        result = run_greedy(Trace(records), tiny)
        waits = [j.start_slot - j.submit_slot for j in result.jobs]
        assert max(waits) > 0
        assert result.n_completed == 4

    def test_queueing_creates_slo_violations(self):
        tiny = ClusterProfile(
            name="tiny",
            n_pms=1,
            pm_capacity=ResourceVector.of(cpu=4, mem=16, storage=100),
            vms_per_pm=1,
            comm_latency_s=0.0,
        )
        records = [
            make_record(request=(3, 4, 10), duration_s=50.0, task_id=i)
            for i in range(6)
        ]
        sim = ClusterSimulator(
            tiny, GreedyScheduler(), SimulationConfig(slo=SloSpec(slack_factor=1.1))
        )
        result = sim.run(Trace(records))
        assert result.slo.violation_rate > 0.0


class TestStopConditions:
    def test_max_slots_cap(self, profile):
        trace = make_short_trace(n_jobs=10, seed=11)
        result = run_greedy(trace, profile, max_slots=3)
        assert result.n_slots == 3

    def test_no_drain_stops_at_last_arrival(self, profile):
        trace = make_short_trace(n_jobs=10, seed=12)
        drained = run_greedy(trace, profile, drain=True)
        cut = run_greedy(trace, profile, drain=False)
        assert cut.n_slots <= drained.n_slots

    def test_single_job_runs_exactly_nominal_slots(self, profile):
        # Regression for the slot-loop off-by-one: one uncontended job
        # with a 30 s nominal runtime needs exactly 3 slots — no
        # guaranteed-empty trailing slot may execute after it drains.
        record = make_record(request=(1.0, 1.0, 1.0), duration_s=30.0)
        result = run_greedy(Trace([record]), profile)
        assert result.n_completed == 1
        assert result.n_slots == 3
        assert result.metrics.n_slots == 3

    def test_empty_trace_executes_zero_slots(self, profile):
        # With nothing to arrive and nothing to drain, the loop must
        # stop before executing a single slot (it used to run one).
        result = run_greedy(Trace(), profile)
        assert result.n_slots == 0
        assert result.n_submitted == 0
        assert result.metrics.n_slots == 0
