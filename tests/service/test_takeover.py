"""Standby-takeover drill: a snapshot-restored kernel must not diverge."""

import json

import pytest

import numpy as np

from repro import ClusterProfile, api, cluster_scenario
from repro.experiments.runner import build_kernel
from repro.faults.takeover import TakeoverReport, takeover_run
from repro.service import kernel as kernel_module
from repro.service.kernel import KernelSnapshot

from .test_snapshot_sharing import assert_shares_only_unchanging, churned_kernel


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


class TestPerJobComparison:
    def test_equal_totals_with_a_differing_job_diverge(
        self, small_scenario, monkeypatch
    ):
        # A standby that differs from the live run in one job only: no
        # summary key reads a job's ``opportunistic`` flag, so the
        # summaries agree and only the per-job comparison can tell.
        restore = KernelSnapshot.restore

        def perturbed(snapshot):
            standby = restore(snapshot)
            standby.sim.running[0].opportunistic ^= True
            return standby

        monkeypatch.setattr(KernelSnapshot, "restore", perturbed)
        report = takeover_run(scenario=small_scenario, method="DRA")
        assert report.divergence == {"jobs_differing": (0, 1)}
        assert not report.ok


class TestLeakyMemoIsCaught:
    """Negative control: a memo that also shares the running jobs.

    That is the bug cheap snapshots could introduce.  The live kernel
    finishes the shared jobs before the standby resumes, so the standby
    re-advances a job that is no longer running and raises before either
    the summary or the per-job comparison is reached: the summary-only
    drill caught this bug on its own, by failing loudly.
    """

    @pytest.fixture()
    def leaky(self, monkeypatch):
        honest = kernel_module._shared_memo

        def leaky_memo(kernel):
            memo = honest(kernel)
            memo.update((id(job), job) for job in kernel.sim.running)
            return memo

        monkeypatch.setattr(kernel_module, "_shared_memo", leaky_memo)

    def test_drill_fails_under_faults(self, small_scenario, leaky):
        plan = api.build_fault_plan(seed=0, intensity=0.5)
        with pytest.raises(RuntimeError, match="is not running"):
            takeover_run(scenario=small_scenario, method="RCCR", fault_plan=plan)

    def test_sharing_fence_fails(
        self, small_scenario, tiny_corp_config, predictor_cache, leaky
    ):
        live = churned_kernel(small_scenario, tiny_corp_config, predictor_cache)
        with pytest.raises(AssertionError, match="shared mutable state"):
            assert_shares_only_unchanging(live, live.snapshot().restore())


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
