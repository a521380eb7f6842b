"""Cross-baseline contracts: behaviours Section IV attributes to each scheme."""

import numpy as np
import pytest

from repro.baselines import CloudScaleScheduler, DraScheduler, RccrScheduler
from repro.cluster.profiles import ClusterProfile
from repro.cluster.simulator import ClusterSimulator, SimulationConfig
from repro.core.packing import singleton_entities

from ..cluster.test_job import make_record
from ..conftest import make_short_trace


@pytest.fixture(params=[RccrScheduler, CloudScaleScheduler, DraScheduler])
def baseline(request):
    return request.param(seed=1)


class TestSharedContracts:
    def test_no_baseline_packs(self, baseline):
        """Section IV: all three baselines allocate 'without considering
        job packing'."""
        from repro.cluster.job import Job

        jobs = [
            Job(record=make_record(request=(6, 1, 5), task_id=1), submit_slot=0),
            Job(record=make_record(request=(0.5, 16, 5), task_id=2), submit_slot=0),
        ]
        entities = baseline.make_entities(jobs)
        assert all(not e.is_packed for e in entities)

    def test_random_vm_selection(self, baseline):
        """All three 'randomly chose a VM that can satisfy the resource
        demands' — different seeds must be able to pick different VMs."""
        from repro.cluster.machine import VirtualMachine
        from repro.core.vm_selection import CandidateSet

        vms = [VirtualMachine(i, [10, 10, 10]) for i in range(6)]
        candidates = CandidateSet.from_pairs([(vm, np.full(3, 5.0)) for vm in vms])
        demand = np.ones(3)
        picks = set()
        for seed in range(12):
            sched = type(baseline)(seed=seed)
            picks.add(sched.choose_vm(demand, candidates).vm.vm_id)
        assert len(picks) > 1

    def test_runs_to_completion(self, baseline):
        sim = ClusterSimulator(
            ClusterProfile.palmetto(n_pms=4, vms_per_pm=2),
            baseline,
            SimulationConfig(),
        )
        result = sim.run(make_short_trace(n_jobs=20, seed=111))
        assert result.all_done


class TestReuseContract:
    def test_only_rccr_reuses(self):
        """RCCR is opportunistic; CloudScale and DRA are not."""
        assert RccrScheduler.supports_opportunistic is True
        assert CloudScaleScheduler.supports_opportunistic is False
        assert DraScheduler.supports_opportunistic is False
