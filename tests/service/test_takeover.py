"""Standby-takeover drill: a snapshot-restored kernel must not diverge."""

import json

import pytest

from repro import api
from repro.faults.takeover import TakeoverReport, takeover_run


class TestTakeoverDeterminism:
    @pytest.mark.parametrize("method", ["RCCR", "DRA"])
    def test_standby_matches_live(self, small_scenario, method):
        report = takeover_run(scenario=small_scenario, method=method)
        assert isinstance(report, TakeoverReport)
        assert report.ok, report.divergence
        assert report.takeover_slot > 0
        assert report.events_after_takeover > 0
        assert report.live_summary  # non-empty summaries on both sides
        assert report.standby_summary

    def test_corp_standby_matches_live(
        self, small_scenario, tiny_corp_config, predictor_cache
    ):
        report = takeover_run(
            scenario=small_scenario,
            method="CORP",
            corp_config=tiny_corp_config,
            predictor_cache=predictor_cache,
        )
        assert report.ok, report.divergence

    def test_faulted_standby_matches_live(self, small_scenario):
        # the standby must also resume mid-flight fault-injector state
        plan = api.build_fault_plan(seed=0, intensity=0.5)
        report = takeover_run(
            scenario=small_scenario, method="RCCR", fault_plan=plan
        )
        assert report.ok, report.divergence
        assert "evictions" in report.live_summary

    def test_explicit_takeover_slot(self, small_scenario):
        report = takeover_run(
            scenario=small_scenario, method="DRA", takeover_slot=1
        )
        assert report.ok, report.divergence
        assert report.takeover_slot == 1


class TestTakeoverReport:
    def test_as_dict_is_json_ready(self, small_scenario):
        report = takeover_run(scenario=small_scenario, method="DRA")
        payload = report.as_dict()
        assert payload["ok"] is True
        assert payload["method"] == "DRA"
        json.dumps(payload)  # must serialize without casting

    def test_api_reexport(self):
        assert api.takeover_run is takeover_run
        assert api.TakeoverReport is TakeoverReport

    def test_unknown_testbed_rejected(self):
        with pytest.raises(ValueError):
            takeover_run(testbed="borg")
