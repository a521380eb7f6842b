"""A job's logs equal the one-job reference path, whatever the kernel does.

A tick advances its running jobs through ``PlacementLanes.advance``,
which appends each job's rate and usage position.  The reference is
:meth:`Job.advance` on a twin holding the job's pre-slot progress: the
slot's demand row is the twin's :meth:`Job.demand`, its rate is what the
twin's ``advance`` keeps.  Over submissions, ticks, crashes, transient
failures, revocation waves and snapshot restores, every job's
``record.usage[usage_positions]`` must equal the reference rows and its
``rate_history`` the reference rates, bit for bit — across requeues,
which keep both logs.
"""

from array import array

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster.job import Job, JobState
from repro.cluster.machine import PlacementLanes
from repro.experiments.runner import build_kernel
from repro.faults.plan import FaultPlan, JobFailure, RetryPolicy, VmCrash

from .test_placement_lanes import _EVENTS, _STEPS, SCENARIO, TINY_CORP

pytestmark = pytest.mark.slow

#: A transient failure and a crash, both on VMs with running jobs.
REQUEUES = [JobFailure(slot=3, vm_index=0), VmCrash(slot=4, vm_index=1, downtime_slots=2)]


def referenced_advance(demands: dict, rates: dict):
    """``PlacementLanes.advance``, each row also run through a
    :meth:`Job.advance` twin whose demand row and rate are logged."""
    original = PlacementLanes.advance

    def advance(self, rows, slot_rates, positions, slot):
        twins = []
        for row, rate in zip(rows.tolist(), slot_rates.tolist()):
            job = self.jobs[row]
            twin = Job(record=job.record, submit_slot=job.submit_slot)
            twin.state, twin.progress = JobState.RUNNING, job.progress
            demands.setdefault(job.job_id, []).append(twin.demand().tobytes())
            twin.advance(rate, slot)
            rates.setdefault(job.job_id, array("d")).extend(twin.rate_history)
            twins.append((job, twin))
        done = original(self, rows, slot_rates, positions, slot)
        for job, twin in twins:
            assert (job.progress, job.state) == (twin.progress, twin.state)
            assert job.usage_positions[-1] == twin.usage_positions[0]
        return done

    return advance


def assert_logs_match(kernel, demands: dict, rates: dict) -> int:
    """Every job's logs against the reference; the requeued jobs with a
    non-empty log."""
    sim = kernel.sim
    backlog = sim.faults.backlog_jobs() if sim.faults is not None else []
    requeued = 0
    for job in sim.pending + sim.running + sim.completed + sim.failed + backlog:
        rows = job.record.usage[job.usage_positions]
        assert rows.tobytes() == b"".join(demands.get(job.job_id, []))
        assert job.rate_history.tobytes() == rates.get(job.job_id, array("d")).tobytes()
        assert len(job.usage_positions) == len(job.rate_history)
        requeued += bool(job.usage_positions) and job.evictions + job.retries > 0
    return requeued


@settings(max_examples=15, deadline=None)
@given(
    method=st.sampled_from(("DRA", "CloudScale", "RCCR", "CORP")),
    events=_EVENTS,
    steps=_STEPS,
)
@example(
    method="DRA",
    events=REQUEUES,
    steps=[("submit", 12), ("advance", 3), ("snapshot", 0), ("advance", 6)],
)
def test_logs_equal_the_one_job_reference(predictor_cache, method, events, steps):
    plan = FaultPlan(events=tuple(events), retry=RetryPolicy(max_retries=2))
    kernel = build_kernel(
        scenario=SCENARIO.with_fault_plan(plan),
        method=method,
        corp_config=TINY_CORP,
        predictor_cache=predictor_cache,
    )
    records = list(SCENARIO.evaluation_trace())
    demands: dict[int, list[bytes]] = {}
    rates: dict[int, array] = {}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(PlacementLanes, "advance", referenced_advance(demands, rates))
        for action, n in steps:
            if action == "submit":
                for record in records[:n]:
                    kernel.submit(record)
                del records[:n]
            elif action == "advance":
                for _ in range(n):
                    if kernel.advance() is None:
                        break
            else:
                snapshot = kernel.snapshot()
                assert_logs_match(kernel, demands, rates)
                kernel = snapshot.restore()
            assert_logs_match(kernel, demands, rates)
        for record in records:
            kernel.submit(record)
        while kernel.advance() is not None:
            pass
    assert_logs_match(kernel, demands, rates)
    assert demands, "no job ran"


def test_requeue_keeps_both_logs(predictor_cache):
    """A transient failure and a crash requeue jobs that had run: their
    logs still hold every slot they ran before the fault."""
    plan = FaultPlan(events=tuple(REQUEUES), retry=RetryPolicy(max_retries=2))
    kernel = build_kernel(
        scenario=SCENARIO.with_fault_plan(plan), method="DRA",
        corp_config=TINY_CORP, predictor_cache=predictor_cache,
    )
    demands: dict[int, list[bytes]] = {}
    rates: dict[int, array] = {}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(PlacementLanes, "advance", referenced_advance(demands, rates))
        for record in SCENARIO.evaluation_trace():
            kernel.submit(record)
        while kernel.advance() is not None:
            pass
    assert assert_logs_match(kernel, demands, rates) > 0
