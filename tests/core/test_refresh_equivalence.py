"""A window refresh does the per-VM loop's work minus the redundant part.

``reference_refresh`` is the loop as it stood when every online VM went
through predict -> clip -> adjust -> clip, CORP forecast a VM with one
``predict_job_unused`` call per primary job, and CORP / RCCR recomputed
their error scale per VM.  The live ``_refresh_forecasts`` (one
``predict_vms_unused`` call, CORP's a single predictor batch) must leave
the same state behind, array for array, count for count.
"""

import copy
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.baselines.cloudscale import CloudScaleScheduler
from repro.baselines.dra import DraScheduler
from repro.baselines.rccr import RccrScheduler
from repro.check import CHECK, InvariantChecker
from repro.cluster.job import Job
from repro.cluster.machine import Placement
from repro.cluster.profiles import ClusterProfile
from repro.cluster.resources import NUM_RESOURCES
from repro.cluster.simulator import ClusterSimulator, SimulationConfig
from repro.core.corp import CorpScheduler
from repro.core.provisioning import _WindowRecord
from repro.core.vm_selection import CandidateSet
from repro.obs import OBS

from ..cluster.test_job import make_record

#: The six per-VM views of one window's state: four fields of the
#: ``_window`` records, their running actuals, and the pool's rows.
RECORD_FIELDS = ("forecast", "raw_forecast", "committed", "jobset")


def window_state(sched):
    records = sched._window
    pool = sched._opp_pool
    state = {
        name: {vm_id: getattr(r, name) for vm_id, r in records.items()}
        for name in RECORD_FIELDS
    }
    state["actual"] = {
        vm_id: (r.minimum, r.total, r.slots)
        for vm_id, r in records.items()
        if r.slots
    }
    state["pool"] = {vm.vm_id: row for vm, row in zip(pool.vms, pool.matrix)}
    return state


#: idle = never used; vacated = evicted before the refresh (idle, with
#: history); riders_only = opportunistic placements and no commitment.
KINDS = ("idle", "occupied", "riders_only", "mixed", "vacated", "offline")


# ----------------------------------------------------------------------
# the parent's loop, transcribed
# ----------------------------------------------------------------------
def reference_adjust(sched, raw, vm):
    if isinstance(sched, CorpScheduler):
        if not sched.config.use_confidence_interval:
            return raw
        theta_half = sched.config.significance_level / 2.0
        sum_sq = np.zeros_like(raw)
        for p in vm.placements:
            if not p.opportunistic:
                sum_sq += p.job.requested ** 2
        rss = np.sqrt(sum_sq)
        shift = np.zeros_like(raw)
        for k, tracker in enumerate(sched.raw_errors.trackers):
            errors = sched.predictor.seed_errors[k]
            if errors.size >= 20:
                job_scale = max(-float(np.quantile(errors, theta_half)), 0.0)
            else:
                job_scale = tracker.sigma() * sched._z
            shift[k] = job_scale * rss[k]
        return raw - shift
    if isinstance(sched, RccrScheduler):
        return raw - sched.raw_errors.sigmas() * sched._z * vm.committed()
    return sched.adjust_forecast(raw, vm)


def reference_predict(sched, vm):
    if isinstance(sched, CorpScheduler):
        total = np.zeros(NUM_RESOURCES)
        for placement in vm.placements:
            if placement.opportunistic:
                continue
            job = placement.job
            sched.latency.charge_comm(1)
            forecast = sched.predictor.predict_job_unused(
                job.utilization_history(), job.requested
            )
            total += forecast
        return total
    return sched.predict_vms_unused([vm])[0]


def reference_refresh(sched):
    sched._emit_window_samples()
    sched._window.clear()
    pool = {}
    for vm in sched.vms:
        if not vm.online:
            continue
        sched.latency.charge_comm(1)
        raw = np.asarray(reference_predict(sched, vm), dtype=np.float64)
        committed = vm.committed()
        raw = np.clip(raw, 0.0, committed)
        adjusted = np.clip(reference_adjust(sched, raw, vm), 0.0, None)
        if (committed > 1e-9).any():
            sched._window[vm.vm_id] = _WindowRecord(
                vm=vm,
                forecast=adjusted,
                raw_forecast=raw,
                committed=committed,
                jobset=frozenset(
                    p.job.job_id for p in vm.placements if not p.opportunistic
                ),
            )
        if not sched.supports_opportunistic:
            continue
        committed_slack = committed - vm.opportunistic_demand()
        pool[vm] = np.clip(np.minimum(adjusted, committed_slack), 0.0, None)
    sched._opp_pool = CandidateSet(list(pool), list(pool.values()))
    if CHECK.enabled:
        CHECK.checker.observe_pools(sched)


# ----------------------------------------------------------------------
# small clusters in a mid-run state
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def prepared(fast_corp_config, fitted_predictor, history_trace):
    """One prepared (unbound) scheduler per method; examples deep-copy it."""
    few = copy.copy(fitted_predictor)
    few.seed_errors = [e[:10] for e in fitted_predictor.seed_errors]
    schedulers = {
        "CORP": CorpScheduler(fast_corp_config, predictor=fitted_predictor),
        "CORP-few-errors": CorpScheduler(fast_corp_config, predictor=few),
        "RCCR": RccrScheduler(seed=3),
        "CloudScale": CloudScaleScheduler(seed=3),
        "DRA": DraScheduler(seed=3),
    }
    for sched in schedulers.values():
        sched.prepare(history_trace)
    assert fitted_predictor.seed_errors[0].size >= 20  # the quantile branch
    return schedulers


def build_cluster(sched, kinds, seed, warm_slots):
    """Bind ``sched`` to one VM per kind, run a partial window, then churn."""
    sim = ClusterSimulator(
        ClusterProfile.palmetto(n_pms=len(kinds), vms_per_pm=1),
        sched,
        SimulationConfig(),
    )
    rng = np.random.default_rng(seed)
    ids = itertools.count()

    def place(vm, opportunistic):
        # 40 samples outlast every warm-up, so no job completes and a
        # VM's commitment is exactly zero unless something is placed.
        record = make_record(
            duration_s=400.0,
            request=rng.uniform([0.5, 1.0, 5.0], [3.0, 12.0, 100.0]),
            util=rng.uniform(0.1, 0.9, 40),
            task_id=next(ids),
        )
        job = Job(record=record, submit_slot=0)
        reserved = np.zeros(NUM_RESOURCES) if opportunistic else job.requested
        vm.add_placement(
            Placement(job=job, vm=vm, reserved=reserved, opportunistic=opportunistic)
        )
        job.start(0, opportunistic=opportunistic)

    for vm, kind in zip(sim.vms, kinds):
        if kind in ("occupied", "mixed", "vacated"):
            for _ in range(int(rng.integers(1, 3))):
                place(vm, opportunistic=False)
        if kind in ("riders_only", "mixed"):
            place(vm, opportunistic=True)
    for slot in range(warm_slots):
        sim.current_slot = slot
        sched.on_slot_start(slot)
        outcomes = {vm.vm_id: vm.execute_slot(slot) for vm in sim.vms if vm.online}
        sched.on_slot_end(slot, outcomes)
    for vm, kind in zip(sim.vms, kinds):
        if kind == "vacated":
            vm.evict_all()
        elif kind == "offline":
            vm.crash()
    return sim


def observable_state(sched, checker):
    trackers = sched.gate.trackers + sched.raw_errors.trackers
    return {
        **window_state(sched),
        "comm_ops": sched.latency.comm_ops,
        "capacity_checks": checker.checks["capacity"],
        "violations": list(checker.violations),
        "error_samples": [list(t._errors) for t in trackers],
        "prediction_log": (sched.prediction_log.predicted, sched.prediction_log.actual),
    }


def assert_same(got, want):
    assert got.keys() == want.keys()
    for name in got:
        if not isinstance(got[name], dict):
            assert got[name] == want[name], name
            continue
        assert list(got[name]) == list(want[name]), name  # same VMs, same order
        for vm_id, value in got[name].items():
            if isinstance(value, np.ndarray):
                assert np.array_equal(value, want[name][vm_id]), (name, vm_id)
            else:
                assert value == want[name][vm_id], (name, vm_id)


METHODS = ["CORP", "CORP-few-errors", "RCCR", "CloudScale", "DRA"]
#: The forecast counters ``Predictor.predict_jobs_unused`` bumps.
PREDICTOR_COUNTERS = (
    "predictor.predict", "predictor.prior_fallback", "predictor.hmm_correction",
)


class TestRefreshMatchesThePerVmLoop:
    @pytest.mark.parametrize("method", METHODS)
    @settings(max_examples=25)
    @given(
        kinds=st.lists(st.sampled_from(KINDS), min_size=1, max_size=7),
        seed=st.integers(0, 2**16),
        warm_slots=st.integers(1, 8),
    )
    def test_same_state_same_charges_same_checks(
        self, prepared, method, kinds, seed, warm_slots
    ):
        live = copy.deepcopy(prepared[method])
        build_cluster(live, kinds, seed, warm_slots)
        reference = copy.deepcopy(live)
        with CHECK.session(InvariantChecker()) as live_checker:
            live._refresh_forecasts()
        with CHECK.session(InvariantChecker()) as reference_checker:
            reference_refresh(reference)
        got = observable_state(live, live_checker)
        assert_same(got, observable_state(reference, reference_checker))
        online = [vm for vm in live.vms if vm.online]
        assert got["violations"] == []
        if live.supports_opportunistic:
            # Every online VM keeps a pool row (idle ones all-zero), and
            # the checker looks at each of them.
            assert list(got["pool"]) == [vm.vm_id for vm in online]
            assert got["capacity_checks"] == len(online)
        else:
            assert got["pool"] == {}

    @settings(max_examples=10)
    @given(
        kinds=st.lists(st.sampled_from(KINDS), min_size=1, max_size=7),
        seed=st.integers(0, 2**16),
        warm_slots=st.integers(1, 8),
    )
    def test_same_predictor_counters_with_obs_on(
        self, prepared, kinds, seed, warm_slots
    ):
        live = copy.deepcopy(prepared["CORP"])
        build_cluster(live, kinds, seed, warm_slots)
        reference = copy.deepcopy(live)
        counts = []
        for refresh in (live._refresh_forecasts, lambda: reference_refresh(reference)):
            obs.reset()  # counters are process-global
            obs.enable_profiling()
            try:
                refresh()
                counts.append({name: OBS.counters.get(name) for name in PREDICTOR_COUNTERS})
            finally:
                obs.reset()
        assert counts[0] == counts[1]
        assert_same(window_state(live), window_state(reference))


# ----------------------------------------------------------------------
# per-refresh constants
# ----------------------------------------------------------------------
class CountingErrors(list):
    """``seed_errors`` that counts how often a resource's row is read."""

    reads = 0

    def __getitem__(self, index):
        self.reads += 1
        return super().__getitem__(index)


class TestErrorScaleIsPerRefresh:
    @pytest.mark.parametrize("n_vms", [3, 24])
    def test_seed_errors_read_once_per_resource(
        self, fast_corp_config, fitted_predictor, history_trace, n_vms
    ):
        predictor = copy.copy(fitted_predictor)
        predictor.seed_errors = CountingErrors(fitted_predictor.seed_errors)
        sched = CorpScheduler(fast_corp_config, predictor=predictor)
        sched.prepare(history_trace)
        build_cluster(sched, ["occupied"] * n_vms, seed=n_vms, warm_slots=2)
        predictor.seed_errors.reads = 0
        sched._refresh_forecasts()
        assert len(sched._window) == n_vms  # every VM was adjusted
        assert predictor.seed_errors.reads == NUM_RESOURCES


class TestCiShiftGauge:
    def test_one_reading_per_refresh_over_the_adjusted_vms(
        self, fast_corp_config, fitted_predictor, history_trace
    ):
        sched = CorpScheduler(fast_corp_config, predictor=fitted_predictor)
        sched.prepare(history_trace)
        # The last VM polled is idle: a per-VM gauge would end on 0.0.
        sim = build_cluster(
            sched, ["occupied", "idle", "mixed", "riders_only", "idle"],
            seed=5, warm_slots=1,
        )
        obs.reset()  # counters are process-global
        obs.enable_profiling()
        try:
            sched._refresh_forecasts()
            adjusted = OBS.counters.get("forecast.ci_adjusted")
            gauge = OBS.counters.get_gauge("forecast.ci_shift_mean")
        finally:
            obs.reset()
        shifts = []
        for vm in sim.vms:
            if vm.placements:
                shift = -sched.adjust_forecast(np.zeros(NUM_RESOURCES), vm)
                shifts.append(float(shift.mean()))
        assert adjusted == 3  # the VMs with placements, riders-only included
        assert shifts[0] > 0.0 and shifts[2] == 0.0
        assert gauge == pytest.approx(sum(shifts) / 3)
