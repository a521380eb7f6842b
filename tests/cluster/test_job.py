"""Job lifecycle, demand indexing and the progress-under-contention model."""

import numpy as np
import pytest

from repro.check.differential import SlotSnapshot, reference_outcome
from repro.cluster.job import Job, JobState, utilization_histories
from repro.trace.records import TaskRecord


def make_record(
    *, duration_s=60.0, period_s=10.0, request=(2.0, 4.0, 10.0), util=None, task_id=0
) -> TaskRecord:
    n = max(1, int(np.ceil(duration_s / period_s)))
    req = np.asarray(request, dtype=float)
    if util is None:
        util = np.linspace(0.2, 0.8, n)
    usage = np.clip(np.asarray(util)[:, None] * req[None, :], 0, req)
    return TaskRecord(
        task_id=task_id,
        submit_time_s=0.0,
        duration_s=duration_s,
        requested=req,
        usage=usage,
        sample_period_s=period_s,
    )


def make_job(**kw) -> Job:
    return Job(record=make_record(**kw), submit_slot=0)


class TestLifecycle:
    def test_initial_state(self):
        job = make_job()
        assert job.state is JobState.PENDING
        assert job.start_slot is None
        assert job.completion_slot is None

    def test_nominal_slots(self):
        assert make_job(duration_s=60).nominal_slots == 6
        assert make_job(duration_s=61).nominal_slots == 7
        assert make_job(duration_s=5).nominal_slots == 1

    def test_start(self):
        job = make_job()
        job.start(3, opportunistic=True)
        assert job.state is JobState.RUNNING
        assert job.start_slot == 3
        assert job.opportunistic

    def test_double_start_rejected(self):
        job = make_job()
        job.start(0, opportunistic=False)
        with pytest.raises(RuntimeError):
            job.start(1, opportunistic=False)

    def test_advance_requires_running(self):
        with pytest.raises(RuntimeError):
            make_job().advance(1.0, 0)

    def test_full_speed_completion(self):
        job = make_job(duration_s=30)  # 3 slots
        job.start(0, opportunistic=False)
        for slot in range(3):
            job.advance(1.0, slot)
        assert job.state is JobState.COMPLETED
        assert job.completion_slot == 2
        assert job.response_slots() == 3

    def test_half_speed_doubles_runtime(self):
        job = make_job(duration_s=30)
        job.start(0, opportunistic=False)
        slot = 0
        while job.state is JobState.RUNNING:
            job.advance(0.5, slot)
            slot += 1
        assert job.response_slots() == 6

    def test_queueing_delay_counts_in_response(self):
        job = make_job(duration_s=30)
        job.start(4, opportunistic=False)  # waited 4 slots
        for slot in range(4, 7):
            job.advance(1.0, slot)
        assert job.response_slots() == 7

    def test_rate_clipped(self):
        job = make_job(duration_s=30)
        job.start(0, opportunistic=False)
        job.advance(5.0, 0)  # clipped to 1
        assert job.progress == pytest.approx(1.0)
        job.advance(-1.0, 1)  # clipped to 0
        assert job.progress == pytest.approx(1.0)

    def test_response_none_before_completion(self):
        job = make_job()
        assert job.response_slots() is None


class TestDemand:
    def test_demand_indexed_by_progress(self):
        util = np.array([0.1, 0.5, 0.9])
        job = make_job(duration_s=30, util=util, request=(10, 10, 10))
        job.start(0, opportunistic=False)
        assert job.demand()[0] == pytest.approx(1.0)
        job.advance(1.0, 0)
        assert job.demand()[0] == pytest.approx(5.0)

    def test_slowed_job_replays_demand_curve(self):
        util = np.array([0.1, 0.5, 0.9])
        job = make_job(duration_s=30, util=util, request=(10, 10, 10))
        job.start(0, opportunistic=False)
        job.advance(0.5, 0)
        # progress 0.5 -> still on the first sample
        assert job.demand()[0] == pytest.approx(1.0)
        job.advance(0.5, 1)
        assert job.demand()[0] == pytest.approx(5.0)

    def test_demand_clamps_to_last_sample(self):
        util = np.array([0.2, 0.4])
        job = make_job(duration_s=20, util=util, request=(10, 10, 10))
        job.progress = 99.0  # past the end
        assert job.demand()[0] == pytest.approx(4.0)

    def test_demand_log_recorded_per_slot(self):
        job = make_job(duration_s=30)
        job.start(0, opportunistic=False)
        job.advance(1.0, 0)
        job.advance(0.5, 1)
        job.advance(1.0, 2)
        assert job.usage_positions.tolist() == [0, 1, 1]
        assert job.rate_history.tolist() == [1.0, 0.5, 1.0]
        assert job.demand_rows().tobytes() == job.record.usage[[0, 1, 1]].tobytes()
        assert job.demand_rows(last=1).tobytes() == job.record.usage[[1]].tobytes()

    def test_last_zero_is_an_empty_window(self):
        """``positions[-0:]`` is the whole log: ``last=0`` must not be."""
        job = make_job(duration_s=30)
        job.start(0, opportunistic=False)
        job.advance(1.0, 0)
        job.advance(1.0, 1)
        assert job.demand_rows(last=0).shape == (0, 3)
        assert job.demand_rows(last=2).shape == job.demand_rows(last=5).shape == (2, 3)

    def test_utilization_history_shape_and_range(self):
        job = make_job(duration_s=40)
        job.start(0, opportunistic=False)
        for slot in range(4):
            job.advance(1.0, slot)
        hist = job.utilization_history()
        assert hist.shape == (4, 3)
        assert np.all(hist >= 0) and np.all(hist <= 1)

    def test_utilization_history_empty_before_running(self):
        assert make_job().utilization_history().shape == (0, 3)

    def test_utilization_history_zero_request_resource(self):
        job = make_job(request=(2.0, 0.0, 10.0))
        job.start(0, opportunistic=False)
        job.advance(1.0, 0)
        hist = job.utilization_history()
        assert np.all(hist[:, 1] == 0.0)


def rate(job: Job, granted) -> float:
    """``job``'s rate alone on a roomy VM whose grant cap is ``granted``,
    by the one scalar statement of the rate rule (the slot oracle)."""
    cap = np.asarray(granted, dtype=np.float64)
    snapshot = SlotSnapshot(
        vm_id=0, capacity=np.full(3, 1e9), committed=cap,
        demands=job.demand()[None, :], caps=cap[None, :],
        opportunistic=np.zeros(1, dtype=bool), job_ids=(job.job_id,),
    )
    return float(reference_outcome(snapshot).rates[0])


class TestComputeRate:
    def test_full_grant_full_rate(self):
        job = make_job(util=np.full(6, 0.5), request=(10, 10, 10))
        assert rate(job, [5, 5, 5]) == pytest.approx(1.0)

    def test_min_across_resources(self):
        job = make_job(util=np.full(6, 0.5), request=(10, 10, 10))
        # demand 5 each; grant cpu only half
        assert rate(job, [2.5, 5, 5]) == pytest.approx(0.5)

    def test_zero_demand_resource_ignored(self):
        job = make_job(util=np.full(6, 0.5), request=(10, 0, 10))
        assert rate(job, [5, 0, 5]) == pytest.approx(1.0)

    def test_no_demand_at_all_runs_full_speed(self):
        job = make_job(util=np.zeros(6), request=(10, 10, 10))
        assert rate(job, [0, 0, 0]) == pytest.approx(1.0)

    def test_zero_grant_stalls(self):
        job = make_job(util=np.full(6, 0.5), request=(10, 10, 10))
        assert rate(job, [0, 0, 0]) == 0.0

    def test_overgrant_capped_at_one(self):
        job = make_job(util=np.full(6, 0.2), request=(10, 10, 10))
        assert rate(job, [100, 100, 100]) == 1.0


class TestRepr:
    def test_repr_fields(self):
        job = make_job()
        text = repr(job)
        assert "pending" in text and f"id={job.job_id}" in text


class TestHistoriesInOnePass:
    def test_equal_to_one_job_at_a_time(self):
        """:func:`utilization_histories` is :meth:`Job.utilization_history`
        of every job, bit for bit: empty logs, zero-request resources,
        demand above the request (clipped) and uneven lengths."""
        jobs = [
            make_job(duration_s=40, task_id=1),
            make_job(task_id=2),  # never ran: an empty log
            make_job(request=(2.0, 0.0, 10.0), duration_s=30, task_id=3),
            Job(record=TaskRecord(  # usage above the request: clipped
                task_id=4, submit_time_s=0.0, duration_s=30.0,
                requested=[2.0, 4.0, 10.0],
                usage=np.array([[5.0, 9.0, 30.0], [0.6, 1.2, 3.0], [0.1, 0.2, 0.5]]),
                sample_period_s=10.0,
            ), submit_slot=0),
            make_job(request=(3.0, 5.0, 0.0), duration_s=90, task_id=5),
        ]
        for job, slots in zip(jobs, (4, 0, 2, 3, 7)):
            if slots:
                job.start(0, opportunistic=False)
            for slot in range(slots):
                job.advance(0.5 if slot % 2 else 1.0, slot)
        batch = utilization_histories(jobs)
        assert len(batch) == len(jobs)
        for job, got in zip(jobs, batch):
            want = job.utilization_history()
            assert got.shape == want.shape and got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()

    def test_no_jobs(self):
        assert utilization_histories([]) == []
