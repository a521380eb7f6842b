"""Behavioural tests of CORP's end-to-end mechanisms."""

import dataclasses

import numpy as np
import pytest

from repro.cluster.profiles import ClusterProfile
from repro.cluster.simulator import ClusterSimulator, SimulationConfig
from repro.cluster.slo import SloSpec
from repro.core.corp import CorpScheduler

from ..conftest import make_short_trace


def run_corp(config, predictor, profile, trace, history):
    scheduler = CorpScheduler(config, predictor=predictor)
    sim = ClusterSimulator(profile, scheduler, SimulationConfig())
    return sim.run(trace, history=history), scheduler


class TestConservatismKnobs:
    def test_lower_pth_never_reduces_reuse(
        self, fast_corp_config, fitted_predictor, small_profile, history_trace
    ):
        """Relaxing the preemption gate can only admit more riders."""
        trace = make_short_trace(n_jobs=40, seed=101)
        riders = {}
        for p_th in (0.99, 0.5):
            cfg = dataclasses.replace(fast_corp_config, probability_threshold=p_th)
            result, _ = run_corp(
                cfg, fitted_predictor,
                ClusterProfile.palmetto(n_pms=4, vms_per_pm=2), trace, history_trace,
            )
            riders[p_th] = sum(1 for j in result.jobs if j.opportunistic)
        assert riders[0.5] >= riders[0.99]

    def test_higher_confidence_shrinks_pools(
        self, fast_corp_config, fitted_predictor, small_profile, history_trace
    ):
        """A higher η means a larger CI shift, so smaller adjusted pools."""
        import numpy as np

        shifts = {}
        for eta in (0.5, 0.9):
            cfg = dataclasses.replace(fast_corp_config, confidence_level=eta)
            scheduler = CorpScheduler(cfg, predictor=fitted_predictor)
            sim = ClusterSimulator(
                ClusterProfile.palmetto(n_pms=2, vms_per_pm=1),
                scheduler,
                SimulationConfig(),
            )
            scheduler.prepare(history_trace)
            vm = sim.vms[0]
            # Give the VM a primary placement so the RSS shift is nonzero.
            from repro.cluster.machine import Placement
            from repro.cluster.job import Job
            from ..cluster.test_job import make_record

            job = Job(record=make_record(request=(4, 8, 40)), submit_slot=0)
            vm.add_placement(
                Placement(job=job, vm=vm, reserved=job.requested, opportunistic=False)
            )
            job.start(0, opportunistic=False)
            raw = np.array([2.0, 4.0, 20.0])
            shifts[eta] = raw - scheduler.adjust_forecast(raw, vm)
        assert np.all(shifts[0.9] >= shifts[0.5] - 1e-12)


class TestSloPropagation:
    def test_tighter_slo_never_reduces_violations(
        self, fast_corp_config, fitted_predictor, history_trace
    ):
        trace = make_short_trace(n_jobs=40, seed=102)
        rates = {}
        for slack in (1.05, 1.5):
            scheduler = CorpScheduler(fast_corp_config, predictor=fitted_predictor)
            sim = ClusterSimulator(
                ClusterProfile.palmetto(n_pms=2, vms_per_pm=2),
                scheduler,
                SimulationConfig(slo=SloSpec(slack_factor=slack)),
            )
            result = sim.run(trace, history=history_trace)
            rates[slack] = result.slo.violation_rate
        assert rates[1.05] >= rates[1.5]


class TestRiderAccounting:
    def test_riders_add_demand_but_no_commitment(
        self, fast_corp_config, fitted_predictor, history_trace
    ):
        """During slots with riders, cluster commitment must equal the
        sum of primary reservations only."""
        scheduler = CorpScheduler(fast_corp_config, predictor=fitted_predictor)
        profile = ClusterProfile.palmetto(n_pms=3, vms_per_pm=2)
        sim = ClusterSimulator(profile, scheduler, SimulationConfig())
        trace = make_short_trace(n_jobs=40, seed=103)
        result = sim.run(trace, history=history_trace)
        riders = [j for j in result.jobs if j.opportunistic]
        if not riders:
            pytest.skip("no riders admitted at this test size")
        # Committed totals never exceed total capacity even with riders.
        committed = np.asarray(result.metrics._committed)
        total_capacity = profile.n_vms * profile.vm_capacity.as_array()
        assert np.all(committed <= total_capacity[None, :] + 1e-6)

    def test_rider_jobs_complete(self, fast_corp_config, fitted_predictor, history_trace):
        scheduler = CorpScheduler(fast_corp_config, predictor=fitted_predictor)
        sim = ClusterSimulator(
            ClusterProfile.palmetto(n_pms=3, vms_per_pm=2),
            scheduler,
            SimulationConfig(),
        )
        result = sim.run(make_short_trace(n_jobs=40, seed=103), history=history_trace)
        from repro.cluster.job import JobState

        for job in result.jobs:
            if job.opportunistic:
                assert job.state is JobState.COMPLETED


class TestRepeatsParameter:
    def test_fig06_repeats_average(self, predictor_cache):
        from repro.experiments.figures import fig06_prediction_error

        result = fig06_prediction_error(
            job_counts=(20,), repeats=2, cache=predictor_cache
        )
        assert all(len(v) == 1 for v in result.series.values())

    def test_fig06_repeats_validated(self):
        from repro.experiments.figures import fig06_prediction_error

        with pytest.raises(ValueError):
            fig06_prediction_error(job_counts=(20,), repeats=0)
