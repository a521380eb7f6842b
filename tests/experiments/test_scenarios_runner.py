"""Scenario builders and the multi-method runner (fast variants)."""

import hashlib

import numpy as np
import pytest

from repro import api
from repro.cluster.profiles import ClusterProfile
from repro.experiments.runner import (
    METHOD_ORDER,
    PredictorCache,
    RunSpec,
    default_schedulers,
    run_scenario,
    run_specs,
    sweep_specs,
)
from repro.experiments.scenarios import JOB_COUNTS, cluster_scenario, ec2_scenario
from repro.core.config import CorpConfig


def _behavior(result):
    """A run's summary minus the wall-clock latency (differs every run)."""
    summary = result.summary()
    summary.pop("allocation_latency_s", None)
    return summary


@pytest.fixture(scope="module")
def small_scenario():
    return cluster_scenario(
        n_jobs=20, seed=5, profile=ClusterProfile.palmetto(n_pms=4, vms_per_pm=2)
    )


class TestScenarios:
    def test_job_counts_match_paper(self):
        assert JOB_COUNTS == (50, 100, 150, 200, 250, 300)

    def test_cluster_scenario_defaults(self):
        sc = cluster_scenario(100)
        assert sc.n_jobs == 100
        assert sc.profile.name == "palmetto"
        assert "cluster" in sc.name

    def test_ec2_scenario_defaults(self):
        sc = ec2_scenario(100)
        assert sc.profile.name == "ec2"
        assert sc.profile.n_pms == 30

    def test_evaluation_trace_short_only(self, small_scenario):
        trace = small_scenario.evaluation_trace()
        assert len(trace) == 20
        assert trace.short_fraction() == 1.0
        assert all(r.sample_period_s == 10.0 for r in trace)

    def test_subsampling_nested(self):
        # Smaller job counts draw from the same master population.
        profile = ClusterProfile.palmetto(n_pms=4, vms_per_pm=2)
        small = cluster_scenario(50, seed=5, profile=profile).evaluation_trace()
        big = cluster_scenario(300, seed=5, profile=profile).evaluation_trace()
        big_ids = {r.task_id for r in big}
        assert all(r.task_id in big_ids for r in small)

    def test_history_trace_distinct_from_eval(self, small_scenario):
        history = small_scenario.history_trace()
        evaluation = small_scenario.evaluation_trace()
        history_ids = {(r.task_id, r.submit_time_s) for r in history}
        eval_ids = {(r.task_id, r.submit_time_s) for r in evaluation}
        assert history_ids != eval_ids

    @pytest.mark.parametrize("builder", [cluster_scenario, ec2_scenario])
    def test_no_seed_falls_short_of_the_master_trace(self, builder):
        # Seeds 18 and 30 draw enough long jobs to exhaust the first
        # over-generation margin; they used to raise RuntimeError.
        for seed in range(60):
            assert len(builder(300, seed=seed).evaluation_trace()) == 300

    def test_seed_7_trace_digest_pinned(self):
        # Seeds the first draw satisfies must keep their exact records
        # (rounded like the goldens, so the pin holds across platforms).
        digest = hashlib.sha256()
        for r in cluster_scenario(300, seed=7).evaluation_trace():
            times = (round(r.submit_time_s, 6), round(r.duration_s, 6))
            digest.update(repr((r.task_id, *times)).encode())
            digest.update(np.round(r.requested, 9).tobytes())
            digest.update(np.round(r.usage, 9).tobytes())
        assert digest.hexdigest() == (
            "5de7edf6e64281bd79898ef150384355"
            "a6a792b2b035579bb33e0354e0d046d8"
        )


class TestRunner:
    def test_default_schedulers_cover_all_methods(self):
        factories = default_schedulers()
        assert set(factories) == set(METHOD_ORDER)

    def test_predictor_cache_reuses_fit(self, small_scenario):
        cache = PredictorCache()
        history = small_scenario.history_trace()
        cfg = CorpConfig(n_hidden_layers=1, units_per_layer=8, train_max_epochs=3)
        a = cache.get(cfg, history)
        b = cache.get(cfg, history)
        assert a is b

    def test_cache_distinguishes_configs(self, small_scenario):
        cache = PredictorCache()
        history = small_scenario.history_trace()
        a = cache.get(
            CorpConfig(n_hidden_layers=1, units_per_layer=8, train_max_epochs=3),
            history,
        )
        b = cache.get(
            CorpConfig(n_hidden_layers=1, units_per_layer=8, train_max_epochs=3,
                       train_quantile=0.3),
            history,
        )
        assert a is not b

    def test_run_methods_all_four(self, small_scenario):
        # Ported from runner.run_methods: api.compare runs every method
        # on the same trace, in presentation order, off one offline fit.
        cache = PredictorCache()
        results = api.compare(scenario=small_scenario, predictor_cache=cache)
        assert list(results) == list(METHOD_ORDER)
        for method, result in results.items():
            assert result.scheduler_name == method
            assert result.all_done
        assert (cache.misses, len(cache)) == (1, 1)

    def test_cache_shared_across_regenerated_histories(self, small_scenario):
        # Sweeps regenerate the history trace at every point; identical
        # content must hit the same cache entry (one offline fit per
        # sweep), which an object-identity key cannot provide.
        cache = PredictorCache()
        cfg = CorpConfig(n_hidden_layers=1, units_per_layer=8, train_max_epochs=3)
        a = cache.get(cfg, small_scenario.history_trace())
        b = cache.get(cfg, small_scenario.history_trace())
        assert a is b


class TestRunSpecs:
    FAST_CFG = CorpConfig(n_hidden_layers=1, units_per_layer=8, train_max_epochs=3)

    def _specs(self, scenario):
        return sweep_specs(scenarios=[scenario], corp_config=self.FAST_CFG, seed=5)

    def test_sweep_specs_order(self, small_scenario):
        specs = self._specs(small_scenario)
        assert [s.method for s in specs] == list(METHOD_ORDER)
        assert all(s.scenario is small_scenario for s in specs)

    def test_serial_matches_run_methods(self, small_scenario):
        # The spec runner against the run_scenario primitive it is built
        # on: hand-made factories, one shared trace pair (what the
        # removed runner.run_methods did).
        specs = self._specs(small_scenario)
        by_spec = run_specs(specs=specs, predictor_cache=PredictorCache())
        trace = small_scenario.evaluation_trace()
        history = small_scenario.history_trace()
        factories = default_schedulers(
            corp_config=self.FAST_CFG,
            history=history,
            predictor_cache=PredictorCache(),
            seed=5,
        )
        for spec, result in zip(specs, by_spec):
            direct = run_scenario(
                small_scenario,
                factories[spec.method](),
                trace=trace,
                history=history,
            )
            assert _behavior(result) == _behavior(direct)

    #: Every public way to run "all methods on one scenario", as
    #: ``(scenario, cache) -> {method: result}``.  All of them build
    #: RunSpecs and execute through run_specs.
    ENTRY_POINTS = {
        "compare": lambda s, cache: api.compare(
            scenario=s, predictor_cache=cache
        ),
        "compare-workers2": lambda s, cache: api.compare(
            scenario=s, predictor_cache=cache, workers=2
        ),
        "run_one": lambda s, cache: {
            method: api.run_one(
                scenario=s, method=method, seed=7, predictor_cache=cache
            )
            for method in METHOD_ORDER
        },
        "sweep": lambda s, cache: dict(zip(METHOD_ORDER, api.sweep(
            scenarios=[s], seed=7, predictor_cache=cache
        ))),
        "sweep-instance": lambda s, cache: dict(zip(METHOD_ORDER, api.sweep(
            scenarios=[s],
            seed=7,
            predictor_cache=cache,
            predictor=cache.get(CorpConfig(seed=7), s.history_trace()),
        ))),
    }

    @pytest.fixture(scope="class")
    def reference(self, predictor_cache):
        scenario = api.build_scenario(jobs=20, seed=7)
        specs = sweep_specs(scenarios=[scenario], seed=7)
        results = run_specs(specs=specs, predictor_cache=predictor_cache)
        return scenario, {
            spec.method: _behavior(result)
            for spec, result in zip(specs, results)
        }

    @pytest.mark.parametrize("form", sorted(ENTRY_POINTS))
    def test_every_entry_point_is_the_one_path(self, reference, form):
        scenario, expected = reference
        cache = PredictorCache()
        results = self.ENTRY_POINTS[form](scenario, cache)
        assert list(results) == list(METHOD_ORDER)
        assert {m: _behavior(r) for m, r in results.items()} == expected
        # The shared-fit property: one offline fit serves every method
        # (parallel runs prefit in the parent, so it holds there too).
        assert cache.misses == 1

    def test_unknown_method_rejected_when_the_spec_is_built(
        self, small_scenario
    ):
        with pytest.raises(ValueError, match="unknown method 'Borg'"):
            RunSpec(scenario=small_scenario, method="Borg")
        with pytest.raises(ValueError, match="unknown method 'Borg'"):
            sweep_specs(scenarios=[small_scenario], methods=("DRA", "Borg"))

    def test_predictor_instance_rejected_across_processes(
        self, small_scenario
    ):
        from repro.forecast.quantile import QuantileHistogramPredictor

        spec = RunSpec(
            scenario=small_scenario,
            method="DRA",
            predictor=QuantileHistogramPredictor(),
        )
        with pytest.raises(ValueError, match="process boundaries"):
            run_specs(specs=[spec, spec], workers=2)

    def test_parallel_bit_identical_to_serial(self, small_scenario):
        # The tentpole contract: fanning the same specs over worker
        # processes must not change a single summary value (wall-clock
        # allocation latency aside, per the determinism convention).
        specs = self._specs(small_scenario)
        serial = run_specs(specs=specs, workers=0, predictor_cache=PredictorCache())
        parallel = run_specs(specs=specs, workers=2, predictor_cache=PredictorCache())
        assert len(serial) == len(parallel) == len(specs)
        for s, p in zip(serial, parallel):
            assert s.scheduler_name == p.scheduler_name
            ss, ps = s.summary(), p.summary()
            ss.pop("allocation_latency_s"), ps.pop("allocation_latency_s")
            assert ss == ps
