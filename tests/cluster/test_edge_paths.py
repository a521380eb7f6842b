"""Edge-path coverage: defensive branches in machine/simulator/provisioning."""

import numpy as np
import pytest

from repro.cluster.job import Job
from repro.cluster.machine import Placement, VirtualMachine
from repro.cluster.profiles import ClusterProfile
from repro.cluster.simulator import ClusterSimulator, SimulationConfig

from ..conftest import make_short_trace
from .test_job import make_record
from .test_simulator import GreedyScheduler


class TestPrimaryOverCapacityScaling:
    def test_caps_above_reservation_trigger_proportional_scaling(self):
        """granted_cap above the reservation can push the collective
        primary grant past capacity; the VM must scale grants back."""
        vm = VirtualMachine(0, [8, 32, 360])
        jobs = []
        for i in range(3):
            job = Job(
                record=make_record(
                    request=(8, 8, 8), util=np.full(6, 0.5), task_id=i
                ),
                submit_slot=0,
            )
            # Tiny reservation (fits), huge explicit cap (defensive path).
            vm.add_placement(
                Placement(
                    job=job,
                    vm=vm,
                    reserved=np.ones(3),
                    opportunistic=False,
                    granted_cap=np.full(3, 10.0),
                )
            )
            job.start(0, opportunistic=False)
            jobs.append(job)
        outcome = vm.execute_slot(0)
        # 3 jobs x 4 cores demand = 12 > 8 capacity: grants scaled.
        assert outcome.served_demand[0] <= vm.capacity[0] + 1e-6
        assert all(j.rate_history[0] < 1.0 for j in jobs)


class TestSimulatorDefaults:
    def test_history_defaults_to_trace(self, small_profile):
        trace = make_short_trace(n_jobs=8, seed=55)
        sim = ClusterSimulator(small_profile, GreedyScheduler(), SimulationConfig())
        result = sim.run(trace)  # no history argument
        assert result.all_done

    def test_result_jobs_cover_all_submissions(self, small_profile):
        trace = make_short_trace(n_jobs=12, seed=56)
        sim = ClusterSimulator(small_profile, GreedyScheduler(), SimulationConfig())
        result = sim.run(trace)
        assert len(result.jobs) == result.n_submitted


class TestChurnEmission:
    def test_partial_window_sample_emitted_on_completion(self):
        """A VM whose only primary finishes mid-window still contributes
        its partial-window δ sample before tracking stops."""
        from ..core.test_provisioning import StubScheduler

        profile = ClusterProfile.palmetto(n_pms=1, vms_per_pm=1)
        sched = StubScheduler(window_slots=6)
        sim = ClusterSimulator(profile, sched, SimulationConfig())
        # An 80-second job (8 slots): alive at the slot-6 window
        # boundary (so a forecast tracks it) and completing at slot 7,
        # i.e. one slot into the window — the partial-sample path.
        from repro.trace.records import Trace

        record = make_record(request=(2, 4, 10), duration_s=80.0)
        result = sim.run(Trace([record]))
        assert result.n_completed == 1
        assert sched.gate.trackers[0].n_samples >= 1
        # Tracking stopped at the churn: no stale per-VM state remains.
        assert sched._window == {}
