"""One way from a scenario to a prepared kernel.

Three fences around :func:`repro.experiments.runner.build_kernel`:

* every path from a scenario to a summary — ``api.run_one``, a hand
  driven batch kernel, the daemon's ``drain()``, the takeover drill —
  reports the same keys and values, scenario-family metrics included;
* a pipeline scenario cannot be flattened into a batch kernel;
* a scenario's traces are generated once per recipe and bounded.
"""

import asyncio
import dataclasses

import numpy as np
import pytest

from repro import api
from repro.cluster.profiles import ClusterProfile
from repro.core.config import CorpConfig
from repro.experiments import scenarios
from repro.experiments.runner import (
    METHOD_ORDER,
    RunSpec,
    build_kernel,
    finish_result,
    run_scenario,
)
from repro.experiments.scenarios import (
    TRACE_MEMO_SIZE,
    cluster_scenario,
    diurnal_scenario,
    ec2_scenario,
    pipeline_scenario,
    storm_scenario,
)
from repro.faults.takeover import WALL_CLOCK_KEYS
from repro.trace.filters import remove_long_lived
from repro.trace.generator import GoogleTraceGenerator
from repro.trace.records import Trace
from repro.trace.transform import resample_trace

JOBS = 24
SEED = 5
#: Six VMs for 24 jobs: tight enough that the diurnal flash crowd waits
#: (``flash_crowd_p99_wait`` > 0) and the storm evicts something.
PROFILE = ClusterProfile.palmetto(n_pms=3, vms_per_pm=2)
TINY = CorpConfig(n_hidden_layers=1, units_per_layer=8, train_max_epochs=2, seed=3)

FAMILIES = {
    "plain": cluster_scenario,
    "diurnal": diurnal_scenario,
    "storm": storm_scenario,
    "pipeline": pipeline_scenario,
}


def _scenario(family):
    return FAMILIES[family](JOBS, seed=SEED, profile=PROFILE)


def _comparable(summary):
    return {k: v for k, v in summary.items() if k not in WALL_CLOCK_KEYS}


def _run_kwargs(scenario, method, cache):
    return dict(
        scenario=scenario,
        method=method,
        seed=SEED,
        corp_config=TINY,
        predictor_cache=cache,
    )


def _drained(**kwargs):
    async def go():
        async with api.open_service(**kwargs) as svc:
            await svc.submit_trace(kwargs["scenario"].evaluation_trace())
            return await svc.drain()

    return asyncio.run(go())


class TestParity:
    @pytest.mark.parametrize("method", METHOD_ORDER)
    @pytest.mark.parametrize("family", ["plain", "diurnal", "storm"])
    def test_batch_kernel_and_daemon_match_run_one(
        self, family, method, predictor_cache
    ):
        scenario = _scenario(family)
        kwargs = _run_kwargs(scenario, method, predictor_cache)
        expected = _comparable(api.run_one(**kwargs).summary())

        kernel = build_kernel(**kwargs, streaming=False)
        kernel.run_until_blocked()
        by_hand = finish_result(kernel.result(), scenario)
        assert _comparable(by_hand.summary()) == expected

        assert _comparable(_drained(**kwargs).summary()) == expected

    @pytest.mark.parametrize("method", METHOD_ORDER)
    def test_pipeline_run_scenario_matches_run_one(self, method, predictor_cache):
        scenario = _scenario("pipeline")
        expected = api.run_one(**_run_kwargs(scenario, method, predictor_cache))
        scheduler = RunSpec(
            scenario=scenario, method=method, seed=SEED, corp_config=TINY
        ).make_scheduler(predictor_cache)
        by_hand = run_scenario(scenario, scheduler)
        assert "pipeline_stall_slots" in expected.summary()
        assert _comparable(by_hand.summary()) == _comparable(expected.summary())


class TestFamilyHonouredOnEveryPath:
    """Regressions: the drill and the daemon used to drop the family."""

    def test_diurnal_takeover_carries_flash_crowd_wait(self):
        scenario = _scenario("diurnal")
        batch = api.run_one(scenario=scenario, method="RCCR", seed=SEED)
        wait = batch.summary()["flash_crowd_p99_wait"]
        assert wait > 0  # the fixture's point: a crowd that does wait
        report = api.takeover_run(scenario=scenario, method="RCCR", seed=SEED)
        assert report.ok, report.divergence
        assert report.live_summary["flash_crowd_p99_wait"] == wait
        assert report.standby_summary["flash_crowd_p99_wait"] == wait
        assert set(report.live_summary) == set(batch.summary())

    def test_diurnal_drain_carries_flash_crowd_wait(self):
        scenario = _scenario("diurnal")
        batch = api.run_one(scenario=scenario, method="DRA", seed=SEED)
        drained = _drained(scenario=scenario, method="DRA", seed=SEED)
        assert (
            drained.summary()["flash_crowd_p99_wait"]
            == batch.summary()["flash_crowd_p99_wait"]
        )

    def test_takeover_refuses_a_pipeline(self):
        with pytest.raises(ValueError, match="pipeline"):
            api.takeover_run(scenario=_scenario("pipeline"), method="DRA")

    def test_batch_kernel_refuses_a_pipeline(self):
        with pytest.raises(ValueError, match="pipeline"):
            build_kernel(
                scenario=_scenario("pipeline"), method="DRA", streaming=False
            )


def _fresh_evaluation(scenario):
    """``Scenario.evaluation_trace`` without the memo (plain families)."""
    cfg = scenario.trace_config
    master = max(scenario.master_jobs, scenario.n_jobs)
    n_raw = int(master / cfg.short_fraction) + 10
    raw = GoogleTraceGenerator(dataclasses.replace(cfg, n_jobs=n_raw)).generate()
    records = list(remove_long_lived(raw))[:master]
    assert len(records) == master
    picks = np.round(np.linspace(0, master - 1, scenario.n_jobs)).astype(int)
    return resample_trace(
        Trace([records[i] for i in picks]),
        scenario.sim_config.slot_duration_s,
        seed=cfg.seed,
    )


def _fresh_history(scenario):
    raw = GoogleTraceGenerator(scenario.history_config).generate()
    return resample_trace(
        remove_long_lived(raw),
        scenario.sim_config.slot_duration_s,
        seed=scenario.history_config.seed,
    )


class TestTraceMemo:
    @pytest.mark.parametrize(
        "builder",
        [ec2_scenario, *FAMILIES.values()],
        ids=lambda b: b.__name__,
    )
    def test_one_object_per_recipe(self, builder):
        s = builder(JOBS, seed=SEED)
        assert s.history_trace() is s.history_trace()
        assert s.evaluation_trace() is s.evaluation_trace()

    def test_copies_share_and_recipes_differ(self):
        s = cluster_scenario(JOBS, seed=SEED)
        trace = s.evaluation_trace()
        renamed = dataclasses.replace(s, name="x", profile=PROFILE)
        assert renamed.evaluation_trace() is trace
        faulted = s.with_fault_plan(api.build_fault_plan(seed=0))
        assert faulted.evaluation_trace() is trace
        assert ec2_scenario(JOBS, seed=SEED).history_trace() is s.history_trace()

        faster = dataclasses.replace(s.sim_config, slot_duration_s=5.0)
        reshaped = [
            dataclasses.replace(s, n_jobs=JOBS - 1),
            dataclasses.replace(
                s, trace_config=dataclasses.replace(s.trace_config, seed=SEED + 1)
            ),
            dataclasses.replace(s, arrival_pattern=api.DiurnalPattern(seed=SEED)),
            dataclasses.replace(s, sim_config=faster),
        ]
        for other in reshaped:
            assert other.evaluation_trace() is not trace
        assert reshaped[-1].history_trace() is not s.history_trace()

    def test_memoised_content_is_a_fresh_generation(self):
        s = cluster_scenario(JOBS, seed=SEED)
        assert (
            s.evaluation_trace().content_digest()
            == _fresh_evaluation(s).content_digest()
        )
        assert (
            s.history_trace().content_digest()
            == _fresh_history(s).content_digest()
        )

    def test_memo_is_bounded(self):
        first = cluster_scenario(10, seed=100)
        kept = first.evaluation_trace()
        for seed in range(101, 101 + TRACE_MEMO_SIZE):
            cluster_scenario(10, seed=seed).evaluation_trace()
        for memo in (scenarios._evaluation_trace, scenarios._history_trace):
            info = memo.cache_info()
            assert info.maxsize == TRACE_MEMO_SIZE
            assert info.currsize <= TRACE_MEMO_SIZE
        # Evicted, so regenerated: equal content, a new object.
        again = first.evaluation_trace()
        assert again is not kept
        assert again.content_digest() == kept.content_digest()
