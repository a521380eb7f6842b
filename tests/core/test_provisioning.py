"""Shared provisioning-scheduler machinery via a controllable stub."""

import numpy as np
import pytest

from repro.cluster.machine import VirtualMachine
from repro.cluster.profiles import ClusterProfile
from repro.cluster.resources import NUM_RESOURCES, ResourceVector
from repro.cluster.simulator import ClusterSimulator, SimulationConfig
from repro.core.provisioning import ProvisioningSchedulerBase

from ..conftest import make_short_trace


class StubScheduler(ProvisioningSchedulerBase):
    """Forecasts a fixed fraction of each VM's commitment."""

    name = "stub"
    supports_opportunistic = True

    def __init__(self, fraction=0.5, **kw):
        super().__init__(**kw)
        self.fraction = fraction
        self.forecast_calls = 0
        self.idle_forecasts = 0
        self.windows = 0
        self.occupied_at_refresh = 0
        self.online_at_refresh = 0

    def _begin_window(self) -> None:
        self.windows += 1
        online = [vm for vm in self.vms if vm.online]
        self.online_at_refresh += len(online)
        self.occupied_at_refresh += sum(1 for vm in online if vm.placements)

    def predict_vm_unused(self, vm: VirtualMachine) -> np.ndarray:
        self.forecast_calls += 1
        self.idle_forecasts += not vm.placements
        return self.fraction * vm.committed()


class NoReuseStub(StubScheduler):
    name = "noreuse"
    supports_opportunistic = False


def run_stub(scheduler, n_jobs=25, seed=41, profile=None):
    profile = profile or ClusterProfile.palmetto(n_pms=4, vms_per_pm=2)
    sim = ClusterSimulator(profile, scheduler, SimulationConfig())
    trace = make_short_trace(n_jobs=n_jobs, seed=seed)
    return sim.run(trace)


class TestWindowMechanics:
    def test_forecasts_refresh_per_window(self):
        sched = StubScheduler(window_slots=6)
        result = run_stub(sched)
        n_windows = -(-result.n_slots // 6)
        n_vms = 8
        assert sched.windows == n_windows
        # The forecast is asked about every VM with placements and about
        # no other: the first window finds the cluster empty.
        assert sched.forecast_calls == sched.occupied_at_refresh
        assert sched.idle_forecasts == 0
        assert 0 < sched.forecast_calls <= (n_windows - 1) * n_vms

    def test_comm_charged_per_vm_poll(self):
        sched = StubScheduler(window_slots=6)
        result = run_stub(sched)
        n_windows = -(-result.n_slots // 6)
        assert sched.online_at_refresh == n_windows * 8
        assert result.all_done
        # One poll per online VM per window — idle VMs included — plus
        # one dispatch per placed (singleton) entity.
        assert sched.latency.comm_ops == n_windows * 8 + len(result.jobs)

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            StubScheduler(window_slots=0)

    def test_forecast_shape_enforced(self):
        class BadStub(StubScheduler):
            def predict_vm_unused(self, vm):
                return np.zeros(2)

        with pytest.raises(ValueError):
            run_stub(BadStub())

    def test_error_samples_collected(self):
        sched = StubScheduler()
        run_stub(sched)
        assert sched.gate.trackers[0].n_samples > 0
        assert sched.raw_errors.trackers[0].n_samples > 0

    def test_forecast_clipped_at_commitment(self):
        # A forecast of 300% of commitment must be capped: available
        # pools can never exceed the committed slack.
        sched = StubScheduler(fraction=3.0)
        run_stub(sched)
        # If any recorded forecast exceeded its commitment, δ would be
        # strongly negative everywhere; instead the clip keeps δ >= -1.
        errors = np.asarray(sched.gate.trackers[0]._errors)
        assert errors.min() >= -1.0 - 1e-9


class TestOpportunisticPlacement:
    def test_reuse_happens_with_generous_pools(self):
        sched = StubScheduler(fraction=0.9)
        result = run_stub(sched, n_jobs=40)
        riders = [j for j in result.jobs if j.opportunistic]
        assert len(riders) > 0

    def test_no_reuse_when_not_supported(self):
        sched = NoReuseStub(fraction=0.9)
        result = run_stub(sched, n_jobs=40)
        assert all(not j.opportunistic for j in result.jobs)

    def test_no_reuse_when_gate_blocks(self):
        class Blocked(StubScheduler):
            def opportunistic_allowed(self):
                return False

        result = run_stub(Blocked(fraction=0.9), n_jobs=40)
        assert all(not j.opportunistic for j in result.jobs)

    def test_pools_decremented_on_placement(self):
        # With pools half the commitment and many concurrent arrivals,
        # total opportunistic admissions per window cannot exceed the
        # aggregate pool.
        sched = StubScheduler(fraction=0.5)
        result = run_stub(sched, n_jobs=40)
        for pool in sched._opp_pool.matrix:
            assert np.all(pool >= -1e-9)

    def test_all_jobs_placed_eventually(self):
        sched = StubScheduler()
        result = run_stub(sched, n_jobs=40)
        assert result.all_done


class TestAggregateModes:
    def test_mean_aggregate_default(self):
        assert StubScheduler().actual_aggregate == "mean"

    def test_min_aggregate_changes_errors(self):
        class MinStub(StubScheduler):
            actual_aggregate = "min"

        mean_sched = StubScheduler(fraction=0.5)
        min_sched = MinStub(fraction=0.5)
        run_stub(mean_sched, seed=42)
        run_stub(min_sched, seed=42)
        mean_err = np.asarray(mean_sched.gate.trackers[0]._errors)
        min_err = np.asarray(min_sched.gate.trackers[0]._errors)
        # The window minimum is never above the window mean.
        assert min_err.mean() <= mean_err.mean() + 1e-9
