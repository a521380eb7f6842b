"""CloudScale baseline: PRESS prediction, adaptive padding, demand caps."""

import numpy as np
import pytest

from repro.baselines.cloudscale import CloudScaleScheduler
from repro.cluster.job import JobState
from repro.cluster.profiles import ClusterProfile
from repro.cluster.simulator import ClusterSimulator, SimulationConfig

from ..conftest import make_short_trace


def run_cloudscale(n_jobs=30, seed=61, **kw):
    sched = CloudScaleScheduler(**kw)
    sim = ClusterSimulator(
        ClusterProfile.palmetto(n_pms=4, vms_per_pm=2), sched, SimulationConfig()
    )
    return sim.run(make_short_trace(n_jobs=n_jobs, seed=seed)), sched


class TestConstruction:
    def test_validation(self):
        with pytest.raises(ValueError):
            CloudScaleScheduler(history_slots=1)

    def test_no_opportunistic_reuse(self):
        assert CloudScaleScheduler.supports_opportunistic is False


class TestRun:
    def test_completes(self):
        result, _ = run_cloudscale()
        assert result.all_done

    def test_never_places_opportunistically(self):
        result, _ = run_cloudscale(n_jobs=40)
        assert all(not j.opportunistic for j in result.jobs)

    def test_caps_applied_to_running_jobs(self):
        result, sched = run_cloudscale(n_jobs=40)
        # By the end, at least some placements were capped during the run
        # — observable as jobs that ran below full speed at some slot.
        rates = [
            min(j.rate_history)
            for j in result.jobs
            if j.state is JobState.COMPLETED and j.rate_history
        ]
        assert min(rates) <= 1.0  # and caps exist structurally:
        assert len(sched._padding) > 0

    def test_padding_trackers_lazily_created(self):
        _, sched = run_cloudscale()
        assert all(
            isinstance(key, tuple) and len(key) == 2 for key in sched._padding
        )

    def test_adjustment_subtracts_pad(self):
        _, sched = run_cloudscale()
        vm = sched.vms[0]
        raw = np.array([5.0, 5.0, 5.0])
        adjusted = sched.adjust_forecast(raw, vm)
        assert np.all(adjusted <= raw + 1e-12)

    def test_predict_series_handles_flat(self):
        sched = CloudScaleScheduler()
        flat = np.full((1, 20, 1), 2.0)
        assert sched._forecast(flat)[0, 0] == pytest.approx(2.0, abs=1.0)

    def test_predict_series_nonnegative(self):
        sched = CloudScaleScheduler()
        rng = np.random.default_rng(0)
        series = rng.normal(0.1, 0.5, (1, 40, 1))
        assert sched._forecast(series)[0, 0] >= 0.0

    def test_young_jobs_keep_full_request(self):
        # _apply_demand_caps leaves jobs with <2 observed slots uncapped.
        result, sched = run_cloudscale(n_jobs=10, seed=62)
        # Jobs completed (some within one window) and no crash: the
        # None-cap branch executed. Structural smoke assertion:
        assert result.n_completed > 0
