"""Spot-revocation storm regressions: waves, builders, no-op plans.

The load-bearing invariant: a plan of nothing but *empty-cohort* waves
is exactly the empty plan — no injector is built, no resilience keys
appear, and the summary is byte-identical to a fault-free run.  Plus
the storm builder's determinism, the wave's serialization round-trip,
and the ``storm_*`` counters appearing exactly when waves ran.
"""

from __future__ import annotations

import json

import pytest

from repro import api
from repro.experiments.scenarios import fault_sweep_scenarios, storm_scenario
from repro.faults.plan import (
    FaultPlan,
    RevocationWave,
    build_revocation_storm,
)


def small_scenario(jobs: int = 20):
    return api.build_scenario(jobs=jobs)


class TestEmptyCohortWaves:
    def test_empty_wave_plan_is_falsy(self):
        plan = FaultPlan(events=(RevocationWave(slot=5, vm_indices=()),))
        assert len(plan) == 0
        assert not plan

    def test_mixed_plan_keeps_only_real_waves(self):
        plan = FaultPlan(
            events=(
                RevocationWave(slot=9, vm_indices=()),
                RevocationWave(slot=3, vm_indices=(1, 2)),
                RevocationWave(slot=6, vm_indices=()),
            )
        )
        assert len(plan) == 1
        assert plan.events[0].slot == 3

    def test_empty_wave_run_is_byte_identical_to_fault_free(self):
        """No injector, no resilience keys, identical metrics."""
        scenario = small_scenario()
        plan = FaultPlan(
            events=(
                RevocationWave(slot=2, vm_indices=()),
                RevocationWave(slot=8, vm_indices=()),
            )
        )
        plain = api.run_one(scenario=scenario, method="DRA")
        waved = api.run_one(scenario=scenario, method="DRA", fault_plan=plan)
        assert waved.resilience is None
        plain_summary = plain.summary()
        waved_summary = waved.summary()
        # allocation_latency_s is wall-clock, different on every run.
        plain_summary.pop("allocation_latency_s", None)
        waved_summary.pop("allocation_latency_s", None)
        assert waved_summary == plain_summary

    def test_intensity_zero_scenario_carries_no_plan(self):
        scenario = storm_scenario(20, intensity=0.0)
        assert scenario.fault_plan is None

    def test_negative_intensity_is_rejected_not_the_control_run(self):
        base = storm_scenario(20, intensity=0.0)
        with pytest.raises(ValueError, match="intensity must be >= 0"):
            storm_scenario(20, intensity=-1)
        with pytest.raises(ValueError, match="intensity must be >= 0"):
            api.storm_sweep_scenarios(base, intensities=[-1])
        with pytest.raises(ValueError, match="intensity must be >= 0"):
            fault_sweep_scenarios(base, intensities=[0, -0.5])


class TestStormBuilder:
    def test_deterministic_per_seed(self):
        a = build_revocation_storm(seed=3, n_slots=300, intensity=0.7)
        b = build_revocation_storm(seed=3, n_slots=300, intensity=0.7)
        assert a.to_dicts() == b.to_dicts()

    def test_seeds_differ(self):
        a = build_revocation_storm(seed=1, n_slots=300, intensity=1.0)
        b = build_revocation_storm(seed=2, n_slots=300, intensity=1.0)
        assert a.to_dicts() != b.to_dicts()

    def test_intensity_scales_the_storm(self):
        calm = build_revocation_storm(seed=0, n_slots=400, intensity=0.25)
        wild = build_revocation_storm(seed=0, n_slots=400, intensity=1.0)
        assert len(wild) >= len(calm)
        assert all(isinstance(e, RevocationWave) for e in wild.events)
        assert all(len(e.vm_indices) >= 1 for e in wild.events)

    def test_zero_intensity_is_empty(self):
        assert not build_revocation_storm(seed=0, intensity=0.0)

    def test_wave_round_trips_through_json(self):
        plan = build_revocation_storm(seed=5, n_slots=200, intensity=0.5)
        assert plan, "seed 5 must produce at least one wave"
        payload = json.loads(json.dumps(plan.to_dicts()))
        rebuilt = FaultPlan.from_dicts(payload, retry=plan.retry)
        assert rebuilt == plan

    def test_empty_cohort_rejected_by_validation(self):
        with pytest.raises(ValueError):
            RevocationWave(slot=-1, vm_indices=(1,))
        with pytest.raises(ValueError):
            RevocationWave(slot=0, vm_indices=(1,), crash_fraction=1.5)


class TestStormCounters:
    def test_storm_keys_present_exactly_when_waves_ran(self):
        scenario = storm_scenario(20, intensity=0.5)
        assert scenario.fault_plan is not None
        result = api.run_one(scenario=scenario, method="DRA")
        summary = result.summary()
        assert summary["storm_waves"] >= 1
        assert summary["storm_vms_hit"] >= 1
        assert "storm_recovery_slots" in summary
        plain = api.run_one(scenario=small_scenario(), method="DRA")
        assert not any(k.startswith("storm_") for k in plain.summary())

    def test_crash_only_wave_hits_whole_cohort(self):
        plan = FaultPlan(
            events=(
                RevocationWave(
                    slot=4, vm_indices=(0, 1, 2), crash_fraction=1.0
                ),
            )
        )
        result = api.run_one(
            scenario=small_scenario(), method="DRA", fault_plan=plan
        )
        summary = result.summary()
        assert summary["storm_waves"] == 1
        assert summary["storm_vms_hit"] == 3
