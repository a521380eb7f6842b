"""Shared provisioning-scheduler machinery via a controllable stub."""

from dataclasses import replace
from typing import Sequence

import numpy as np
import pytest

from repro import api
from repro.check import CHECK, InvariantChecker
from repro.check.rules import DEFAULT_RULES
from repro.cluster.machine import VirtualMachine
from repro.cluster.profiles import ClusterProfile
from repro.cluster.resources import ResourceVector
from repro.cluster.simulator import ClusterSimulator, SimulationConfig
from repro.core.provisioning import ProvisioningSchedulerBase
from repro.experiments.runner import default_schedulers, run_scenario

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

    def predict_vms_unused(self, vms: Sequence[VirtualMachine]) -> list[np.ndarray]:
        self.forecast_calls += len(vms)
        self.idle_forecasts += sum(not vm.placements for vm in vms)
        return [self.fraction * vm.committed() for vm in vms]


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
            def predict_vms_unused(self, vms):
                return [np.zeros(2) for _ in vms]

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


class TestPlacementSpeaksRows:
    @pytest.mark.parametrize("method", ["CORP", "RCCR", "CloudScale", "DRA"])
    def test_the_decision_path_builds_no_resource_vector(
        self, method, monkeypatch, predictor_cache
    ):
        """From ``place_jobs`` to ``add_placement`` a demand is a row: the
        packer, the admission hook, ``choose_vm``, the pool, the Eq. 22
        reference, the reservation and the checker's packing, volume and
        differential oracles wrap nothing, and neither do the window
        refresh and the baselines' cap writes.  An overloaded 4-VM run
        under the checker; CORP's places riders and packed pairs, RCCR's
        riders, CloudScale's and DRA's write grant caps."""
        scenario = replace(
            api.build_scenario(jobs=60, seed=7),
            profile=ClusterProfile.palmetto(n_pms=2, vms_per_pm=2),
        )
        sched = default_schedulers(
            history=scenario.history_trace(), predictor_cache=predictor_cache, seed=7
        )[method]()
        seen = {"riders": 0, "pairs": 0, "caps": 0}

        def refuse(*args, **kwargs):
            raise AssertionError("the placement path built a ResourceVector")

        def guarded(step):
            def run(*args):
                with monkeypatch.context() as patch:
                    patch.setattr(ResourceVector, "__init__", refuse)
                    out = step(*args)
                for vm in sched.vms:
                    for p in vm.placements:
                        assert not p.reserved.flags.writeable
                        if p.granted_cap is not None:
                            assert not p.granted_cap.flags.writeable
                            seen["caps"] += 1
                return out

            return run

        def place_entity(entity, choice, slot, *, opportunistic, candidates, demand):
            assert isinstance(demand, np.ndarray) and not demand.flags.writeable
            seen["riders"] += opportunistic * len(entity.jobs)
            seen["pairs"] += entity.is_packed
            return place(entity, choice, slot, opportunistic=opportunistic,
                         candidates=candidates, demand=demand)

        place = sched._place_entity
        sched._place_entity = place_entity
        sched.on_slot_start = guarded(sched.on_slot_start)
        sched.place_jobs = guarded(sched.place_jobs)
        checker = InvariantChecker(rules=DEFAULT_RULES + ("differential",))
        with CHECK.session(checker):
            result = run_scenario(scenario, sched)
        assert result.all_done and checker.n_violations == 0
        if method == "CORP":
            assert seen["riders"] and seen["pairs"] and checker.checks["differential"]
        elif method == "RCCR":
            assert seen["riders"]
        else:
            assert seen["caps"]

    @pytest.mark.parametrize("method", ["CORP", "RCCR", "CloudScale", "DRA"])
    def test_a_whole_run_builds_no_resource_vector(
        self, method, monkeypatch, predictor_cache
    ):
        """Once ``build_kernel`` has built the cluster from its profile,
        nothing constructs a vector again: not the tick, the window
        refresh, the faults (a revocation scales ``base_capacity``, a
        crash evicts and requeues), the checker nor the result, through
        ``run_scenario`` and through an ``open_service`` submit / drain."""
        import asyncio

        from repro.experiments import runner
        from repro.faults.plan import CapacityRevocation, FaultPlan, VmCrash

        plan = FaultPlan(events=(
            CapacityRevocation(slot=2, vm_index=1, fraction=0.5, duration_slots=3),
            VmCrash(slot=3, vm_index=2, downtime_slots=2),
        ))
        scenario = replace(
            api.build_scenario(jobs=40, seed=7),
            profile=ClusterProfile.palmetto(n_pms=2, vms_per_pm=2),
        ).with_fault_plan(plan)
        build, init = runner.build_kernel, ResourceVector.__init__
        kernels = []

        def refuse(*args, **kwargs):
            raise AssertionError("a run built a ResourceVector")

        def guarded_build(**kwargs):
            monkeypatch.setattr(ResourceVector, "__init__", init)
            kernels.append(build(**kwargs))
            monkeypatch.setattr(ResourceVector, "__init__", refuse)
            return kernels[-1]

        monkeypatch.setattr(runner, "build_kernel", guarded_build)
        sched = default_schedulers(
            history=scenario.history_trace(), predictor_cache=predictor_cache, seed=7
        )[method]()
        checker = InvariantChecker(rules=DEFAULT_RULES + ("differential",))
        with CHECK.session(checker):
            batch = run_scenario(scenario, sched)

        async def serve():
            async with api.open_service(
                scenario=scenario, method=method, seed=7,
                predictor_cache=predictor_cache,
            ) as svc:
                await svc.submit_trace(scenario.evaluation_trace())
                return await svc.drain()

        served = asyncio.run(serve())
        monkeypatch.undo()
        assert len(kernels) == 2 and checker.n_violations == 0
        for result, kernel in zip((batch, served), kernels):
            assert result.all_done
            assert kernel.sim.lanes.capacity_changes >= 2  # revoked, restored
            assert sum(job.evictions for job in result.jobs) > 0  # the crash
