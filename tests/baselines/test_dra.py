"""DRA baseline: share-based redistribution with demand caps."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.dra import SHARE_VALUES, DraScheduler
from repro.cluster.job import Job, JobState
from repro.cluster.machine import Placement
from repro.cluster.profiles import ClusterProfile
from repro.cluster.simulator import ClusterSimulator, SimulationConfig

from ..cluster.test_job import make_record
from ..conftest import make_short_trace


def run_dra(n_jobs=30, seed=71, **kw):
    sched = DraScheduler(**kw)
    sim = ClusterSimulator(
        ClusterProfile.palmetto(n_pms=4, vms_per_pm=2), sched, SimulationConfig()
    )
    return sim.run(make_short_trace(n_jobs=n_jobs, seed=seed)), sched


class TestConstruction:
    def test_headroom_validated(self):
        with pytest.raises(ValueError):
            DraScheduler(headroom=0.9)

    @pytest.mark.parametrize("slots", [0, -3])
    def test_history_slots_validated(self, slots):
        """An average over no slots is no estimate (``last=0`` once read
        as the whole log)."""
        with pytest.raises(ValueError, match="history_slots"):
            DraScheduler(history_slots=slots)

    def test_share_mix_is_paper_ratio(self):
        assert SHARE_VALUES == (4.0, 2.0, 1.0)

    def test_no_opportunistic_reuse(self):
        assert DraScheduler.supports_opportunistic is False


class TestShares:
    def test_share_assigned_once(self):
        sched = DraScheduler(seed=1)
        job = Job(record=make_record(task_id=5), submit_slot=0)
        first = sched._share_of(job)
        assert first in SHARE_VALUES
        assert sched._share_of(job) == first

    def test_share_mix_covers_all_values(self):
        sched = DraScheduler(seed=2)
        shares = {
            sched._share_of(Job(record=make_record(task_id=i), submit_slot=0))
            for i in range(50)
        }
        assert shares == set(SHARE_VALUES)


class TestDemandEstimate:
    def test_fresh_job_estimated_at_request(self):
        sched = DraScheduler()
        job = Job(record=make_record(request=(2, 4, 10)), submit_slot=0)
        np.testing.assert_allclose(sched._demand_estimates([job])[0], [2, 4, 10])

    def test_running_average_of_log(self):
        sched = DraScheduler(history_slots=2)
        record = make_record(request=(10, 4, 10), util=[0.1, 0.3, 0.5], duration_s=30)
        job = Job(record=record, submit_slot=0)
        job.usage_positions.extend([0, 1, 2])  # CPU demand 1, 3, 5
        # only last two count
        assert sched._demand_estimates([job])[0, 0] == pytest.approx(4.0)

    def test_no_jobs_no_rows(self):
        assert DraScheduler()._demand_estimates([]).shape == (0, 3)

    @settings(max_examples=60, deadline=None)
    @given(
        logs=st.lists(st.integers(0, 60), min_size=1, max_size=12),
        history_slots=st.integers(1, 40),
        seed=st.integers(0, 2**16),
    )
    def test_stacked_means_are_each_jobs_mean(self, logs, history_slots, seed):
        """One stacked mean per history length, bit-equal to each job's
        own ``.mean(axis=0)`` over its last ``history_slots`` rows."""
        rng = np.random.default_rng(seed)
        jobs = []
        for i, n in enumerate(logs):
            record = make_record(
                request=rng.uniform(0.5, 50.0, 3), util=rng.uniform(0.0, 1.0, 64),
                duration_s=640.0, task_id=i,
            )
            job = Job(record=record, submit_slot=0)
            job.usage_positions.extend(sorted(rng.integers(0, 64, n).tolist()))
            jobs.append(job)
        sched = DraScheduler(history_slots=history_slots)
        got = sched._demand_estimates(jobs)
        for job, row in zip(jobs, got, strict=True):
            if job.usage_positions:
                positions = np.asarray(job.usage_positions)[-history_slots:]
                want = job.record.usage[positions].mean(axis=0)
            else:
                want = job.requested
            assert row.tobytes() == want.tobytes()


class TestRedistribution:
    def test_caps_set_on_running_placements(self):
        result, sched = run_dra(n_jobs=30)
        # Redistribution happened: some completed jobs were capped below
        # their demand at least once (rate < 1 at some slot).
        slowed = [
            j for j in result.jobs
            if j.state is JobState.COMPLETED and j.rate_history
            and min(j.rate_history) < 1.0 - 1e-9
        ]
        assert slowed  # DRA's signature behaviour

    def test_caps_respect_capacity(self):
        sched = DraScheduler(seed=3)
        sim = ClusterSimulator(
            ClusterProfile.palmetto(n_pms=1, vms_per_pm=1), sched, SimulationConfig()
        )
        vm = sim.vms[0]
        jobs = [
            Job(record=make_record(request=(8, 20, 100), task_id=i), submit_slot=0)
            for i in range(2)
        ]
        for job in jobs:
            vm.add_placement(
                Placement(job=job, vm=vm, reserved=job.requested, opportunistic=False)
            )
            job.start(0, opportunistic=False)
        sched._redistribute()
        caps = np.array([p.granted_cap for p in vm.placements])
        assert np.all(caps.sum(axis=0) <= vm.capacity + 1e-6)

    def test_higher_headroom_fewer_squeezes(self):
        tight, _ = run_dra(n_jobs=30, seed=72, headroom=1.0)
        loose, _ = run_dra(n_jobs=30, seed=72, headroom=1.6)
        assert loose.slo.violation_rate <= tight.slo.violation_rate

    def test_predict_vms_unused_nonnegative(self):
        _, sched = run_dra()
        forecasts = sched.predict_vms_unused(sched.vms)
        assert len(forecasts) == len(sched.vms)
        assert all(np.all(forecast >= 0) for forecast in forecasts)


class TestRun:
    def test_completes(self):
        result, _ = run_dra()
        assert result.all_done

    def test_never_opportunistic(self):
        result, _ = run_dra(n_jobs=40)
        assert all(not j.opportunistic for j in result.jobs)
