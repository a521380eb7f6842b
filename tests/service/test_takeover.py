"""Standby-takeover drill: a snapshot-restored kernel must not diverge."""

import json

import pytest

import numpy as np

from repro import ClusterProfile, api, cluster_scenario
from repro.experiments.runner import build_kernel
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


class TestPendingIdleRows:
    """200 VMs for 24 jobs: at the snapshot most VMs hold nothing but a
    count of skipped slots.  RCCR is the reader — its window refresh
    forecasts from ``unused_history(last=history_slots)``."""

    TAKEOVER_SLOT = 9  # mid-window: RCCR refreshes every 6 slots

    @pytest.fixture(scope="class")
    def scenario(self):
        return cluster_scenario(
            24, seed=7, profile=ClusterProfile.hyperscale(n_pms=25)
        )

    def test_standby_matches_live(self, scenario):
        report = takeover_run(
            scenario=scenario, method="RCCR", takeover_slot=self.TAKEOVER_SLOT
        )
        assert report.ok, report.divergence
        assert report.events_after_takeover > 0

    def test_restored_kernels_share_no_history(self, scenario):
        live = build_kernel(
            scenario=scenario, method="RCCR", seed=7, streaming=False
        )
        while live.next_slot < self.TAKEOVER_SLOT:
            live.advance()
        pending = [vm.pending_idle_slots for vm in live.sim.vms]
        assert sum(n > 0 for n in pending) > 150
        snapshot = live.snapshot()
        first, second = snapshot.restore(), snapshot.restore()
        assert [vm.pending_idle_slots for vm in second.sim.vms] == pending
        first.run_until_blocked()
        # The first standby ran on; the second and the live kernel still
        # read the histories they had at the snapshot.
        for ran, kept, origin, n in zip(
            first.sim.vms, second.sim.vms, live.sim.vms, pending
        ):
            assert kept.pending_idle_slots == origin.pending_idle_slots == n
            history = kept.unused_history()
            assert np.array_equal(history, origin.unused_history())
            assert len(ran.unused_history()) > len(history)


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
