"""RCCR and CloudScale forecast in blocks, bit-identical to per-series fits.

A window refresh makes one kernel call per history length, CloudScale's
demand caps one per demand-log length and RCCR's offline seeding one
per prefix length.  The loops they replaced, one ``Forecaster`` object
per VM (or job) and resource, are kept here as oracles and checked at
every call of a real run; so is DRA's per-job running average, which
its forecast and its redistribution now take in one stacked mean.
"""

import copy
import warnings

import numpy as np
import pytest

from repro.baselines.cloudscale import CloudScaleScheduler
from repro.baselines.dra import SHARE_VALUES, DraScheduler
from repro.baselines.rccr import RccrScheduler
from repro.cluster.profiles import ClusterProfile
from repro.cluster.resources import NUM_RESOURCES
from repro.cluster.simulator import ClusterSimulator, SimulationConfig
from repro.trace.records import Trace

from ..cluster.test_job import make_record
from ..conftest import make_short_trace
from ..forecast.oracles.ets import HoltLinear, SimpleExponentialSmoothing
from ..forecast.oracles.fft_signature import FftSignaturePredictor
from ..forecast.oracles.markov_chain import MarkovChainPredictor


def ets_oracle(sched: RccrScheduler, series: np.ndarray) -> float:
    if sched.beta <= 0.0:
        ets = SimpleExponentialSmoothing(sched.alpha)
    else:
        ets = HoltLinear(sched.alpha, sched.beta)
    return max(ets.fit(series).forecast(sched.window_slots), 0.0)


def press_oracle(sched: CloudScaleScheduler, series: np.ndarray) -> float:
    fft = FftSignaturePredictor(sched.signature_threshold).fit(series)
    if fft.has_signature:
        return max(fft.forecast(sched.window_slots), 0.0)
    markov = MarkovChainPredictor(sched.n_bins).fit(series)
    return max(markov.forecast(sched.window_slots), 0.0)


def vm_oracle(sched, vm) -> np.ndarray:
    """The per-VM, per-resource loop both schedulers ran."""
    history = vm.unused_history(last=sched.history_slots)
    out = np.zeros(NUM_RESOURCES)
    if history.shape[0] < 2:
        return out
    series_oracle = ets_oracle if isinstance(sched, RccrScheduler) else press_oracle
    for k in range(NUM_RESOURCES):
        out[k] = series_oracle(sched, history[:, k])
    return out


def caps_oracle(sched: CloudScaleScheduler) -> list:
    caps = []
    for vm in sched.vms:
        for placement in vm.placements:
            job = placement.job
            history = job.record.usage[job.usage_positions[-sched.history_slots :]]
            if len(history) < 2:
                caps.append(None)
                continue
            cap = np.empty(NUM_RESOURCES)
            for k in range(NUM_RESOURCES):
                markov = MarkovChainPredictor(sched.n_bins).fit(history[:, k])
                predicted = max(markov.forecast(sched.window_slots), 0.0)
                cap[k] = predicted + sched._pad_tracker(vm.vm_id, k).pad()
            caps.append(np.minimum(cap, placement.job.requested))
    return caps


def run(sched, history, n_jobs=40, seed=51):
    sim = ClusterSimulator(
        ClusterProfile.palmetto(n_pms=4, vms_per_pm=2), sched, SimulationConfig()
    )
    return sim.run(make_short_trace(n_jobs=n_jobs, seed=seed), history=history)


def same_bits(got, want) -> None:
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    assert got.tobytes() == want.tobytes(), (got, want)


@pytest.mark.parametrize(
    "make",
    [RccrScheduler, lambda: RccrScheduler(beta=0.2), CloudScaleScheduler],
    ids=["rccr-ses", "rccr-holt", "cloudscale"],
)
def test_every_window_matches_the_per_vm_loop(make, history_trace, monkeypatch):
    sched = make()
    batched = type(sched).predict_vms_unused
    seen = []

    def checked(self, vms):
        want = [vm_oracle(self, vm) for vm in vms]
        got = batched(self, vms)
        for g, w in zip(got, want, strict=True):
            same_bits(g, w)
        seen.append(len(vms))
        return got

    monkeypatch.setattr(type(sched), "predict_vms_unused", checked)
    assert run(sched, history_trace).all_done
    assert sum(seen) > 20


def test_demand_caps_match_the_per_job_loop(history_trace, monkeypatch):
    batched = CloudScaleScheduler._apply_demand_caps
    seen = []

    def checked(self):
        want = caps_oracle(self)
        batched(self)
        got = [p.granted_cap for vm in self.vms for p in vm.placements]
        for g, w in zip(got, want, strict=True):
            if w is None:
                assert g is None
            else:
                same_bits(g, w)
                assert not g.flags.writeable
        seen.append(sum(w is not None for w in want))

    monkeypatch.setattr(CloudScaleScheduler, "_apply_demand_caps", checked)
    run(CloudScaleScheduler(), history_trace)
    assert sum(seen) > 10


def prepare_oracle(sched: RccrScheduler, history) -> np.ndarray:
    """The per-prefix, per-resource error samples the seeding loop drew."""
    horizon = sched.window_slots
    samples = []
    for record in history:
        series = 1.0 - record.utilization_series()
        n = series.shape[0]
        if n < 2 * horizon + 2:
            continue
        for split in range(horizon + 2, n - horizon, horizon):
            errs = np.empty(series.shape[1])
            for k in range(series.shape[1]):
                forecast = ets_oracle(sched, series[:split, k])
                errs[k] = series[split : split + horizon, k].mean() - forecast
            samples.append(errs)
        if len(samples) >= 150:
            break
    arr = np.asarray(samples)
    half = (arr.shape[0] // 2) * 2
    return 0.5 * (arr[:half:2] + arr[1:half:2])


def prepared(sched, history):
    ClusterSimulator(
        ClusterProfile.palmetto(n_pms=2, vms_per_pm=1), sched, SimulationConfig()
    )
    sched.prepare(history)
    return sched


class TestPrepare:
    @pytest.mark.parametrize("beta", [0.0, 0.2])
    def test_seeds_match_the_per_prefix_loop(self, history_trace, beta):
        sched = prepared(RccrScheduler(beta=beta), history_trace)
        want = prepare_oracle(sched, history_trace)
        assert want.shape[0] >= 2
        for k in range(NUM_RESOURCES):
            same_bits(list(sched.raw_errors.trackers[k]._errors), want[:, k])
            shift = float(np.std(want[:, k], ddof=1)) * sched._z
            same_bits(list(sched.gate.trackers[k]._errors), want[:, k] + shift)

    def test_one_error_row_seeds_finite_gates(self):
        # 25 slots give two scored prefixes, which pair-average to one
        # row: σ̂ of one sample is 0, so the gate gets no CI shift.
        history = Trace([make_record(duration_s=250.0)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sched = prepared(RccrScheduler(), history)
        for k in range(NUM_RESOURCES):
            gate = list(sched.gate.trackers[k]._errors)
            assert len(gate) == 1 and np.isfinite(gate).all()
            assert gate == list(sched.raw_errors.trackers[k]._errors)


def dra_estimate_oracle(sched: DraScheduler, job) -> np.ndarray:
    """DRA's per-job running average of its recent demand (the request
    while it has none)."""
    if not job.usage_positions:
        return job.requested.copy()
    return job.record.usage[job.usage_positions[-sched.history_slots :]].mean(axis=0)


def dra_vm_oracle(sched: DraScheduler, vm) -> np.ndarray:
    total = np.zeros(NUM_RESOURCES)
    for p in vm.placements:
        if not p.opportunistic:
            total += dra_estimate_oracle(sched, p.job)
    return np.clip(vm.committed() - total, 0.0, None)


def dra_caps_oracle(sched: DraScheduler) -> list:
    """The per-VM redistribution, on the shares the scheduler holds."""
    caps = []
    for vm in sched.vms:
        placements = [p for p in vm.placements if not p.opportunistic]
        if not placements:
            continue
        targets = np.array([
            np.minimum(p.job.requested, sched.headroom * dra_estimate_oracle(sched, p.job))
            for p in placements
        ])
        shares = np.array([sched._shares[p.job.job_id] for p in placements])
        total, capped = targets.sum(axis=0), targets.copy()
        for k in range(NUM_RESOURCES):
            if total[k] > vm.capacity[k] + 1e-12:
                capped[:, k] = np.minimum(targets[:, k], shares / shares.sum() * vm.capacity[k])
        caps.extend(capped)
    return caps


def test_dra_matches_the_per_job_loop(monkeypatch):
    """Every window forecast and every redistribution of a real run, bit
    for bit, with the shares drawn in placement order, VM by VM."""
    forecast, redistribute = DraScheduler.predict_vms_unused, DraScheduler._redistribute
    seen = {"vms": 0, "caps": 0}

    def checked_forecast(self, vms):
        want = [dra_vm_oracle(self, vm) for vm in vms]
        got = forecast(self, vms)
        for g, w in zip(got, want, strict=True):
            same_bits(g, w)
        seen["vms"] += len(vms)
        return got

    def checked_redistribute(self):
        rng, shares = copy.deepcopy(self.rng), dict(self._shares)
        for vm in self.vms:
            for p in vm.placements:
                if not p.opportunistic and p.job.job_id not in shares:
                    shares[p.job.job_id] = SHARE_VALUES[int(rng.integers(len(SHARE_VALUES)))]
        redistribute(self)
        assert self._shares == shares
        assert self.rng.bit_generator.state == rng.bit_generator.state
        got = [p.granted_cap for vm in self.vms for p in vm.placements if not p.opportunistic]
        for g, w in zip(got, dra_caps_oracle(self), strict=True):
            same_bits(g, w)
        seen["caps"] += len(got)

    monkeypatch.setattr(DraScheduler, "predict_vms_unused", checked_forecast)
    monkeypatch.setattr(DraScheduler, "_redistribute", checked_redistribute)
    assert run(DraScheduler(history_slots=4), None).all_done
    assert seen["vms"] > 20 and seen["caps"] > 20
