"""RCCR baseline: ETS + CI, random feasible VM, opportunistic reuse."""

import numpy as np
import pytest

from repro.cluster.profiles import ClusterProfile
from repro.cluster.simulator import ClusterSimulator, SimulationConfig
from repro.baselines.rccr import RccrScheduler

from ..conftest import make_short_trace


def run_rccr(history, n_jobs=30, seed=51, **kw):
    sched = RccrScheduler(**kw)
    sim = ClusterSimulator(
        ClusterProfile.palmetto(n_pms=4, vms_per_pm=2), sched, SimulationConfig()
    )
    trace = make_short_trace(n_jobs=n_jobs, seed=seed)
    return sim.run(trace, history=history), sched


class TestConstruction:
    def test_validation(self):
        with pytest.raises(ValueError):
            RccrScheduler(history_slots=1)

    def test_simple_es_default(self):
        from ..forecast.oracles.ets import SimpleExponentialSmoothing

        ramp = np.arange(12.0)
        level = SimpleExponentialSmoothing(0.3).fit(ramp).forecast(6)
        forecast = RccrScheduler()._forecast(ramp.reshape(1, 12, 1))
        assert forecast[0, 0] == level

    def test_holt_when_beta_positive(self):
        from ..forecast.oracles.ets import HoltLinear

        ramp = np.arange(12.0)
        trend = HoltLinear(0.3, 0.2).fit(ramp).forecast(6)
        forecast = RccrScheduler(beta=0.2)._forecast(ramp.reshape(1, 12, 1))
        assert forecast[0, 0] == trend > ramp[-1]


class TestPrepare:
    def test_seeds_trackers_from_history(self, history_trace):
        sched = RccrScheduler()
        ClusterSimulator(
            ClusterProfile.palmetto(n_pms=2, vms_per_pm=1), sched, SimulationConfig()
        )
        sched.prepare(history_trace)
        assert sched.raw_errors.trackers[0].n_samples > 0
        assert sched.gate.trackers[0].n_samples > 0


class TestRun:
    def test_completes(self, history_trace):
        result, _ = run_rccr(history_trace)
        assert result.all_done

    def test_predictions_logged(self, history_trace):
        result, sched = run_rccr(history_trace)
        assert len(sched.prediction_log) > 0

    def test_no_packing(self, history_trace):
        _, sched = run_rccr(history_trace)
        from repro.cluster.job import Job
        from ..cluster.test_job import make_record

        jobs = [
            Job(record=make_record(request=(6, 1, 5), task_id=1), submit_slot=0),
            Job(record=make_record(request=(0.5, 16, 5), task_id=2), submit_slot=0),
        ]
        entities = sched.make_entities(jobs)
        assert all(not e.is_packed for e in entities)

    def test_adjustment_conservative(self, history_trace):
        result, sched = run_rccr(history_trace)
        vm = sched.vms[0]
        raw = np.array([2.0, 4.0, 20.0])
        assert np.all(sched.adjust_forecast(raw, vm) <= raw + 1e-12)

    def test_confidence_level_monotone_in_aggressiveness(self, history_trace):
        _, conservative = run_rccr(history_trace, confidence_level=0.9, seed=52)
        _, aggressive = run_rccr(history_trace, confidence_level=0.5, seed=52)
        # Lower confidence -> smaller CI shift -> forecasts shaved less.
        vm_c = conservative.vms[0]
        vm_a = aggressive.vms[0]
        raw = np.array([2.0, 4.0, 20.0])
        # Compare the shift magnitude on a synthetic committed VM: the
        # trackers differ per run, so compare z values directly instead.
        assert conservative._z > aggressive._z
