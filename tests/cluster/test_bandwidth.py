"""Bandwidth accounting: the Section IV non-bottleneck claim."""

import pytest

from repro.cluster.bandwidth import BandwidthModel
from repro.cluster.machine import PhysicalMachine, Placement, VirtualMachine

from .test_machine import place, running_job


def loaded_pm(n_jobs: int) -> PhysicalMachine:
    pm = PhysicalMachine(0, [160, 640, 7200])
    vm = VirtualMachine(0, [160, 640, 7200])
    pm.add_vm(vm)
    for i in range(n_jobs):
        place(vm, running_job(request=(0.1, 0.1, 0.1), task_id=i))
    return pm


class TestBandwidthModel:
    def test_paper_defaults(self):
        model = BandwidthModel()
        assert model.node_gbps == 1.0
        assert model.per_job_mbps == 0.02
        assert model.node_capacity_mbps == 1000.0

    def test_validation(self):
        with pytest.raises(ValueError):
            BandwidthModel(node_gbps=0.0)
        with pytest.raises(ValueError):
            BandwidthModel(per_job_mbps=-1.0)

    def test_usage_fraction(self):
        model = BandwidthModel()
        pm = loaded_pm(10)
        # 10 jobs x 0.02 MB/s over 1000 MB/s.
        assert model.pm_usage_fraction(pm) == pytest.approx(0.0002)

    def test_usage_by_pm_keys(self):
        model = BandwidthModel()
        usage = model.usage_by_pm([loaded_pm(3)])
        assert set(usage) == {0}

    def test_paper_setting_never_bottlenecks_realistic_loads(self):
        # Even 300 jobs on a single node use 0.6% of its bandwidth.
        model = BandwidthModel()
        assert model.max_supported_jobs_per_node() == 50_000
        assert not model.is_bottleneck([loaded_pm(300)])

    def test_bottleneck_detectable_with_heavy_jobs(self):
        model = BandwidthModel(per_job_mbps=200.0)
        assert model.is_bottleneck([loaded_pm(5)], threshold=0.5)

    def test_zero_per_job_capacity_unbounded(self):
        with pytest.raises(ValueError):
            BandwidthModel(per_job_mbps=0.0).max_supported_jobs_per_node()


class TestLiveSimulation:
    def test_non_bottleneck_holds_during_run(self, small_profile):
        from repro.cluster.simulator import ClusterSimulator, SimulationConfig
        from ..conftest import make_short_trace
        from .test_simulator import GreedyScheduler

        sim = ClusterSimulator(small_profile, GreedyScheduler(), SimulationConfig())
        model = BandwidthModel()
        checks = []
        orig = sim.metrics.record
        def patched(d, c):
            checks.append(model.is_bottleneck(sim.pms))
            orig(d, c)
        sim.metrics.record = patched
        sim.run(make_short_trace(n_jobs=25, seed=77))
        assert checks and not any(checks)
