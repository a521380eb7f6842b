"""Fault plumbing through repro.api, the scenario sweep and the CLI."""

import pytest

from repro import api
from repro.cluster.profiles import ClusterProfile
from repro.experiments.scenarios import (
    FAULT_INTENSITIES,
    cluster_scenario,
    fault_sweep_scenarios,
)
from repro.faults import FaultPlan, build_fault_plan
from repro.obs import OBS


@pytest.fixture(autouse=True)
def pristine_observer():
    OBS.reset()
    yield
    OBS.reset()


@pytest.fixture(scope="module")
def small_scenario():
    return cluster_scenario(
        n_jobs=20, seed=5, profile=ClusterProfile.palmetto(n_pms=4, vms_per_pm=2)
    )


PLAN = build_fault_plan(seed=7, n_slots=120, intensity=0.8)

RESILIENCE_KEYS = {
    "vm_failures",
    "capacity_revocations",
    "predictor_outage_slots",
    "evictions",
    "retries",
    "gave_up",
    "recovery_latency_slots",
    "slo_violations_faulted",
}


class TestInject:
    def test_inject_returns_new_scenario(self, small_scenario):
        faulted = api.inject(scenario=small_scenario, plan=PLAN)
        assert faulted is not small_scenario
        assert faulted.fault_plan == PLAN
        assert small_scenario.fault_plan is None  # original untouched

    def test_inject_keyword_only(self, small_scenario):
        with pytest.raises(TypeError):
            api.inject(small_scenario, PLAN)

    def test_inject_none_clears(self, small_scenario):
        faulted = api.inject(scenario=small_scenario, plan=PLAN)
        assert api.inject(scenario=faulted, plan=None).fault_plan is None


class TestFaultPlanThroughApi:
    def test_run_one_reports_resilience(self, small_scenario):
        result = api.run_one(
            scenario=small_scenario, method="DRA", fault_plan=PLAN
        )
        assert result.resilience is not None
        assert RESILIENCE_KEYS <= set(result.summary())

    def test_compare_all_methods_report_resilience(self, small_scenario):
        results = api.compare(scenario=small_scenario, fault_plan=PLAN)
        assert set(results) == set(api.METHOD_ORDER)
        for name, result in results.items():
            assert result.resilience is not None, name
            assert RESILIENCE_KEYS <= set(result.summary()), name

    def test_compare_deterministic_under_plan(self, small_scenario):
        def snapshots():
            results = api.compare(
                scenario=small_scenario, methods=("DRA", "RCCR"), fault_plan=PLAN
            )
            return {
                name: {
                    k: v
                    for k, v in r.summary().items()
                    if k != "allocation_latency_s"
                }
                for name, r in results.items()
            }

        assert snapshots() == snapshots()

    def test_no_plan_keeps_summary_shape(self, small_scenario):
        result = api.run_one(scenario=small_scenario, method="DRA")
        assert result.resilience is None
        assert not (RESILIENCE_KEYS & set(result.summary()))


class TestFaultSweepScenarios:
    def test_default_intensity_grid(self, small_scenario):
        points = fault_sweep_scenarios(small_scenario)
        assert len(points) == len(FAULT_INTENSITIES)
        assert [p.name for p in points] == [
            f"{small_scenario.name}-faults{i:g}" for i in FAULT_INTENSITIES
        ]

    def test_zero_intensity_is_control(self, small_scenario):
        points = fault_sweep_scenarios(small_scenario, intensities=(0.0, 0.5))
        assert points[0].fault_plan is None
        assert isinstance(points[1].fault_plan, FaultPlan)
        assert points[1].fault_plan

    def test_same_workload_every_point(self, small_scenario):
        for point in fault_sweep_scenarios(small_scenario):
            assert point.n_jobs == small_scenario.n_jobs
            assert point.trace_config == small_scenario.trace_config


@pytest.mark.slow
class TestCliFaults:
    def test_compare_faults_quick(self, capsys, cli_store):
        from repro.__main__ import main

        code = main([
            "compare", "--faults", "0.5", "--quick",
            "--jobs", "12", "--seed", "3", "--store", cli_store,
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "resilience under fault intensity 0.5" in out
        assert "evictions" in out and "retries" in out

    def test_compare_without_faults_has_no_resilience_table(self, capsys, cli_store):
        from repro.__main__ import main

        assert main(
            ["compare", "--jobs", "12", "--seed", "3", "--store", cli_store]
        ) == 0
        assert "resilience" not in capsys.readouterr().out
