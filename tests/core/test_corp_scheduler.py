"""CorpScheduler end-to-end behaviour on a small cluster."""

import dataclasses

import numpy as np
import pytest

from repro.cluster.profiles import ClusterProfile
from repro.cluster.resources import NUM_RESOURCES, fits_within
from repro.cluster.simulator import ClusterSimulator, SimulationConfig
from repro.core.corp import CorpScheduler

from ..conftest import make_short_trace


@pytest.fixture()
def corp(fast_corp_config, fitted_predictor):
    return CorpScheduler(fast_corp_config, predictor=fitted_predictor)


@pytest.fixture()
def sim_result(corp, small_profile, history_trace):
    trace = make_short_trace(n_jobs=30, seed=31)
    sim = ClusterSimulator(small_profile, corp, SimulationConfig())
    return sim.run(trace, history=history_trace), corp


class TestRun:
    def test_all_jobs_finish(self, sim_result):
        result, _ = sim_result
        assert result.all_done
        assert result.n_completed > 0

    def test_prediction_log_populated(self, sim_result):
        result, corp = sim_result
        assert len(corp.prediction_log) > 0
        assert result.prediction_error_rate is not None

    def test_gate_trackers_seeded_and_fed(self, sim_result):
        _, corp = sim_result
        for kind in range(NUM_RESOURCES):
            assert corp.gate.trackers[kind].n_samples > 0
            assert corp.raw_errors.trackers[kind].n_samples > 0

    def test_latency_accumulated(self, sim_result):
        result, corp = sim_result
        assert result.allocation_latency_s > 0
        assert corp.latency.comm_ops > 0

    def test_prepare_skips_refit_of_injected_predictor(
        self, fast_corp_config, fitted_predictor, history_trace
    ):
        corp = CorpScheduler(fast_corp_config, predictor=fitted_predictor)
        nets_before = list(fitted_predictor.networks)
        corp.prepare(history_trace)
        assert fitted_predictor.networks == nets_before  # same objects


class TestHooks:
    def test_adjust_forecast_is_conservative(self, corp, small_profile, history_trace):
        sim = ClusterSimulator(small_profile, corp, SimulationConfig())
        corp.prepare(history_trace)
        vm = sim.vms[0]
        raw = np.array([2.0, 8.0, 50.0])
        adjusted = corp.adjust_forecast(raw, vm)
        assert np.all(adjusted <= raw + 1e-12)

    def test_adjust_forecast_noop_without_ci(
        self, fast_corp_config, fitted_predictor, small_profile, history_trace
    ):
        cfg = dataclasses.replace(fast_corp_config, use_confidence_interval=False)
        corp = CorpScheduler(cfg, predictor=fitted_predictor)
        sim = ClusterSimulator(small_profile, corp, SimulationConfig())
        corp.prepare(history_trace)
        raw = np.array([2.0, 8.0, 50.0])
        np.testing.assert_array_equal(corp.adjust_forecast(raw, sim.vms[0]), raw)

    def test_admission_size_discounts_request(self, corp, small_profile, history_trace):
        from repro.core.packing import JobEntity
        from ..cluster.test_job import make_record
        from repro.cluster.job import Job

        sim = ClusterSimulator(small_profile, corp, SimulationConfig())
        corp.prepare(history_trace)
        job = Job(record=make_record(request=(4, 4, 4)), submit_slot=0)
        entity = JobEntity(jobs=(job,))
        (admission,) = corp.opportunistic_admission_sizes((entity,), entity.demand[None])
        assert fits_within(admission, entity.demand)
        assert (admission > 1e-9).any()

    def test_packing_disabled_yields_singletons(
        self, fast_corp_config, fitted_predictor, small_profile, history_trace
    ):
        from repro.cluster.job import Job
        from ..cluster.test_job import make_record

        cfg = dataclasses.replace(fast_corp_config, use_packing=False)
        corp = CorpScheduler(cfg, predictor=fitted_predictor)
        ClusterSimulator(small_profile, corp, SimulationConfig())
        jobs = [
            Job(record=make_record(request=(8, 1, 5), task_id=1), submit_slot=0),
            Job(record=make_record(request=(1, 16, 5), task_id=2), submit_slot=0),
        ]
        entities = corp.make_entities(jobs)
        assert all(not e.is_packed for e in entities)

    def test_packing_enabled_pairs_complementary(
        self, corp, small_profile, history_trace
    ):
        from repro.cluster.job import Job
        from ..cluster.test_job import make_record

        ClusterSimulator(small_profile, corp, SimulationConfig())
        jobs = [
            Job(record=make_record(request=(6, 1, 5), task_id=1), submit_slot=0),
            Job(record=make_record(request=(0.5, 16, 5), task_id=2), submit_slot=0),
        ]
        entities = corp.make_entities(jobs)
        assert len(entities) == 1 and entities[0].is_packed


class TestGateIntegration:
    def test_gate_locked_blocks_opportunistic(
        self, fast_corp_config, fitted_predictor, small_profile, history_trace
    ):
        # A vanishing tolerance makes the band [0, ε) unsatisfiable, so
        # the gate stays locked and no opportunistic placements happen.
        cfg = dataclasses.replace(fast_corp_config, error_tolerance=1e-9)
        corp = CorpScheduler(cfg, predictor=fitted_predictor)
        sim = ClusterSimulator(small_profile, corp, SimulationConfig())
        result = sim.run(make_short_trace(n_jobs=25, seed=32), history=history_trace)
        riders = [j for j in result.jobs if j.opportunistic]
        assert riders == []

    def test_gate_threshold_capped_at_nominal_coverage(
        self, fast_corp_config, fitted_predictor
    ):
        # Eq. 21's threshold cannot exceed the CI's nominal one-sided
        # coverage 1 − θ/2 (at η = 0.9 that is exactly Table II's 0.95).
        cfg = dataclasses.replace(
            fast_corp_config, probability_threshold=1.0, confidence_level=0.9
        )
        corp = CorpScheduler(cfg, predictor=fitted_predictor)
        assert corp.gate.probability_threshold == pytest.approx(0.95)
        cfg_low = dataclasses.replace(
            fast_corp_config, probability_threshold=0.95, confidence_level=0.5
        )
        corp_low = CorpScheduler(cfg_low, predictor=fitted_predictor)
        assert corp_low.gate.probability_threshold == pytest.approx(0.75)
