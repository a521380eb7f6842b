"""The ``"auto"`` online predictor selector (rolling Eq. 20 arbitration)."""

import numpy as np
import pytest

from repro import api
from repro.cluster.profiles import ClusterProfile
from repro.cluster.resources import NUM_RESOURCES, ResourceVector
from repro.core.config import CorpConfig
from repro.experiments.scenarios import cluster_scenario
from repro.faults.plan import FaultPlan, PredictorOutage
from repro.forecast.base import Predictor
from repro.forecast.selection import DEFAULT_CANDIDATES, OnlinePredictorSelector
from repro.obs.events import MemorySink


class _StubPredictor(Predictor):
    """Constant-fraction forecaster with controllable seed errors."""

    family = "stub"
    capabilities = frozenset()

    min_history_slots = 0

    def __init__(self, fraction: float, seed_delta: float, n_seed: int = 10):
        self.fraction = fraction
        self.seed_errors = [
            np.full(n_seed, seed_delta) for _ in range(NUM_RESOURCES)
        ]
        self.prior_unused_fraction = np.full(NUM_RESOURCES, fraction)

    def fit(self, history, **kwargs):
        return self

    def _unused_fractions(self, histories):
        return np.full((len(histories), NUM_RESOURCES), self.fraction)


def _stub_selector(**overrides):
    """corp-stub predicts badly live but has good seed errors; the
    quantile-stub is its mirror image — so backtests flip the ranking."""
    cfg = CorpConfig(
        window_slots=2, error_tolerance=0.1, min_history_slots=1
    )
    kwargs = dict(
        config=cfg,
        candidates=("corp", "quantile"),
        hysteresis=0.05,
        min_dwell_windows=1,
    )
    kwargs.update(overrides)
    selector = OnlinePredictorSelector(**kwargs)
    stubs = {
        "corp": _StubPredictor(fraction=0.0, seed_delta=0.05),
        "quantile": _StubPredictor(fraction=0.55, seed_delta=0.5),
    }
    selector.fit(None, fit_candidate=lambda name: stubs[name])
    return selector


def _drive_backtests(selector, n: int) -> None:
    # Constant 40% utilization: the held-out window's actual unused
    # fraction is 0.6 — the corp stub (predicts 0.0) misses it, the
    # quantile stub (predicts 0.55) lands within tolerance.
    util = np.full((4, NUM_RESOURCES), 0.4)
    request = ResourceVector.full(1.0)
    for _ in range(n):
        selector.predict_job_unused(util, request)


class TestConstruction:
    def test_validation(self):
        with pytest.raises(ValueError, match="at least one"):
            OnlinePredictorSelector(candidates=())
        with pytest.raises(ValueError, match="hysteresis"):
            OnlinePredictorSelector(hysteresis=-0.1)
        with pytest.raises(ValueError, match="min_dwell"):
            OnlinePredictorSelector(min_dwell_windows=0)

    def test_default_candidates(self):
        selector = OnlinePredictorSelector()
        assert selector.candidate_names == DEFAULT_CANDIDATES

    def test_unfitted(self):
        selector = OnlinePredictorSelector()
        assert not selector.fitted
        with pytest.raises(RuntimeError, match="not fitted"):
            selector.predict_job_unused(
                np.zeros((4, NUM_RESOURCES)), ResourceVector.full(1.0)
            )


class TestArbitration:
    def test_initial_active_has_best_seed_errors(self):
        selector = _stub_selector()
        assert selector.active == "corp"
        assert selector.error_rate("corp") == pytest.approx(0.0)
        assert selector.error_rate("quantile") == pytest.approx(1.0)

    def test_active_candidate_answers(self):
        selector = _stub_selector()
        got = selector.predict_job_unused(
            np.full((1, NUM_RESOURCES), 0.4), ResourceVector.full(2.0)
        )
        np.testing.assert_allclose(got.as_array(), 0.0)  # corp stub

    def test_backtests_flip_ranking_and_switch(self):
        selector = _stub_selector()
        _drive_backtests(selector, 15)
        assert selector.error_rate("corp") > selector.error_rate("quantile")
        selector.observe_slot(2)
        assert selector.active == "quantile"
        assert len(selector.switch_log) == 1
        record = selector.switch_log[0]
        assert record["slot"] == 2
        assert record["previous"] == "corp"
        assert record["active"] == "quantile"
        assert set(record["scores"]) == {"corp", "quantile"}

    def test_switch_emits_obs_event(self):
        selector = _stub_selector()
        _drive_backtests(selector, 15)
        sink = MemorySink()
        with api.capture_events(sink):
            selector.observe_slot(2)
        switches = [e for e in sink.events if e.name == "predictor_switch"]
        assert len(switches) == 1
        assert switches[0].to_dict()["active"] == "quantile"

    def test_non_boundary_slots_are_ignored(self):
        selector = _stub_selector()
        _drive_backtests(selector, 15)
        selector.observe_slot(0)
        selector.observe_slot(3)
        assert selector.active == "corp"
        assert selector.switch_log == []

    def test_hysteresis_blocks_marginal_switch(self):
        selector = _stub_selector(hysteresis=10.0)
        _drive_backtests(selector, 15)
        selector.observe_slot(2)
        assert selector.active == "corp"
        assert selector.switch_log == []

    def test_min_dwell_delays_switch(self):
        selector = _stub_selector(min_dwell_windows=3)
        _drive_backtests(selector, 15)
        selector.observe_slot(2)
        selector.observe_slot(4)
        assert selector.active == "corp"
        selector.observe_slot(6)
        assert selector.active == "quantile"
        assert selector.switch_log[0]["slot"] == 6

    def test_reset_restores_post_fit_state(self):
        selector = _stub_selector()
        _drive_backtests(selector, 15)
        selector.observe_slot(2)
        assert selector.active == "quantile"
        selector.reset()
        assert selector.active == "corp"
        assert selector.switch_log == []
        # Trackers are re-seeded from the candidates' seed errors only.
        assert selector.error_rate("corp") == pytest.approx(0.0)
        assert selector.error_rate("quantile") == pytest.approx(1.0)

    def test_seed_statistics_follow_the_active_candidate(self):
        selector = _stub_selector()
        np.testing.assert_array_equal(
            selector.seed_errors[0],
            selector.candidate("corp").seed_errors[0],
        )
        _drive_backtests(selector, 15)
        selector.observe_slot(2)
        np.testing.assert_array_equal(
            selector.seed_errors[0],
            selector.candidate("quantile").seed_errors[0],
        )


@pytest.fixture(scope="module")
def tiny_scenario():
    return cluster_scenario(
        20, seed=5, profile=ClusterProfile.palmetto(n_pms=4, vms_per_pm=2)
    )


def _behavior(result):
    """Summary minus the wall-clock field (timing is not replayable)."""
    summary = result.summary()
    summary.pop("allocation_latency_s", None)
    return summary


def _fresh_selector():
    # No DNN candidate: keeps the end-to-end runs fast while still
    # exercising fit-on-history, backtesting and slot-boundary switching.
    return OnlinePredictorSelector(
        config=CorpConfig(seed=5),
        candidates=("quantile", "classify"),
        hysteresis=0.0,
        min_dwell_windows=1,
    )


class TestEndToEnd:
    def test_same_seed_and_trace_same_switch_slots(self, tiny_scenario):
        runs = []
        for _ in range(2):
            selector = _fresh_selector()
            result = api.run_one(
                scenario=tiny_scenario, method="CORP", predictor=selector
            )
            runs.append((selector.switch_log, _behavior(result)))
        assert runs[0][0] == runs[1][0]
        assert runs[0][1] == runs[1][1]

    def test_switch_events_match_switch_log(self, tiny_scenario):
        selector = _fresh_selector()
        sink = MemorySink()
        with api.capture_events(sink):
            api.run_one(
                scenario=tiny_scenario, method="CORP", predictor=selector
            )
        events = [
            {
                key: value
                for key, value in e.to_dict().items()
                if key in ("slot", "previous", "active", "scores")
            }
            for e in sink.events
            if e.name == "predictor_switch"
        ]
        assert events == selector.switch_log

    def test_outage_slots_skip_arbitration(self, tiny_scenario):
        # A predictor outage freezes forecast consumption (Section V's
        # degraded mode); the selector must not arbitrate on slots it
        # never observed.
        outage = PredictorOutage(slot=2, duration_slots=8)
        plan = FaultPlan(events=(outage,))
        runs = []
        for _ in range(2):
            selector = _fresh_selector()
            result = api.run_one(
                scenario=tiny_scenario,
                method="CORP",
                predictor=selector,
                fault_plan=plan,
            )
            assert result.all_done
            blocked = range(outage.slot, outage.slot + outage.duration_slots)
            assert all(
                record["slot"] not in blocked
                for record in selector.switch_log
            )
            runs.append((selector.switch_log, _behavior(result)))
        assert runs[0] == runs[1]
