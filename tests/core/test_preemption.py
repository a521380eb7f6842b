"""Eq. 21 preemption gate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.resources import ResourceKind
from repro.cluster.scheduler import share_within
from repro.core.preemption import PreemptionGate
from repro.forecast.confidence import PredictionErrorTracker


def make_gate(eps=0.5, p_th=0.95):
    return PreemptionGate(error_tolerance=eps, probability_threshold=p_th)


class TestValidation:
    def test_bad_tolerance(self):
        with pytest.raises(ValueError):
            PreemptionGate(0.0, 0.95)

    def test_bad_threshold(self):
        with pytest.raises(ValueError):
            PreemptionGate(0.5, 0.0)
        with pytest.raises(ValueError):
            PreemptionGate(0.5, 1.5)


class TestRecording:
    def test_record_shape_checked(self):
        gate = make_gate()
        with pytest.raises(ValueError):
            gate.record(np.zeros(2), np.zeros(3))

    def test_record_fills_all_trackers(self):
        gate = make_gate()
        gate.record(np.zeros(3), np.ones(3))
        for kind in ResourceKind:
            assert gate.trackers[kind].n_samples == 1

    def test_sigmas_vector(self):
        gate = make_gate()
        for v in (0.0, 1.0):
            gate.record(np.zeros(3), np.full(3, v))
        sig = gate.sigmas()
        assert sig.shape == (3,)
        assert np.all(sig > 0)


class TestUnlocking:
    def test_empty_gate_locked(self):
        gate = make_gate()
        assert not gate.unlocked(ResourceKind.CPU)
        assert not gate.all_unlocked()

    def test_unlocks_on_good_samples(self):
        gate = make_gate(eps=0.5, p_th=0.9)
        for _ in range(100):
            gate.record(np.zeros(3), np.full(3, 0.1))  # δ=0.1 in band
        assert gate.all_unlocked()

    def test_stays_locked_on_overpredictions(self):
        gate = make_gate(eps=0.5, p_th=0.9)
        for _ in range(100):
            gate.record(np.zeros(3), np.full(3, -0.2))  # δ<0
        assert not gate.all_unlocked()

    def test_stays_locked_on_excessive_conservatism(self):
        gate = make_gate(eps=0.5, p_th=0.9)
        for _ in range(100):
            gate.record(np.zeros(3), np.full(3, 0.9))  # δ >= ε
        assert not gate.all_unlocked()

    def test_one_bad_resource_locks_all(self):
        gate = make_gate(eps=0.5, p_th=0.9)
        for _ in range(100):
            gate.record(np.zeros(3), np.array([0.1, 0.1, -0.3]))
        assert gate.unlocked(ResourceKind.CPU)
        assert not gate.unlocked(ResourceKind.STORAGE)
        assert not gate.all_unlocked()

    def test_probability_matches_tracker(self):
        gate = make_gate(eps=0.5)
        deltas = [0.1, 0.2, 0.7, -0.1]
        for d in deltas:
            gate.record(np.zeros(3), np.full(3, d))
        assert gate.probability(ResourceKind.CPU) == pytest.approx(0.5)

    def test_sampling_error_credit(self):
        # With few samples the binomial SE credit can push a
        # just-below-threshold estimate over the line.
        gate = make_gate(eps=0.5, p_th=0.95)
        for _ in range(19):
            gate.record(np.zeros(3), np.full(3, 0.1))
        gate.record(np.zeros(3), np.full(3, -0.2))  # p̂ = 0.95 - 1/20...
        # p̂ = 0.95; SE > 0 → unlocked
        assert gate.probability(ResourceKind.CPU) == pytest.approx(0.95)
        assert gate.unlocked(ResourceKind.CPU)

    def test_threshold_monotonicity(self):
        lenient = make_gate(eps=0.5, p_th=0.5)
        strict = make_gate(eps=0.5, p_th=0.999)
        for _ in range(50):
            sample = (np.zeros(3), np.full(3, 0.1))
            lenient.record(*sample)
            strict.record(*sample)
        # δ always in band: both unlock.
        assert lenient.all_unlocked() and strict.all_unlocked()
        # Now poison 30% of samples.
        for _ in range(25):
            sample = (np.zeros(3), np.full(3, -1.0))
            lenient.record(*sample)
            strict.record(*sample)
        assert lenient.all_unlocked()
        assert not strict.all_unlocked()


#: One step on a gate: a δ sample per resource, a seed of one tracker,
#: or a read through one of the gate's entry points.
_floats = st.floats(-2.0, 2.0, allow_nan=False)
_steps = st.one_of(
    st.tuples(st.just("record"), st.lists(_floats, min_size=3, max_size=3)),
    st.tuples(
        st.just("seed"), st.integers(0, 2), st.lists(_floats, max_size=8)
    ),
    st.tuples(st.just("read"), st.sampled_from(
        ["all_unlocked", "evidence", "probability", "unlocked"]
    )),
)


class TestEvidenceMemo:
    @settings(max_examples=60, deadline=None)
    @given(steps=st.lists(_steps, max_size=40), window=st.integers(2, 6))
    def test_memo_equals_a_fresh_count_after_any_interleaving(self, steps, window):
        """Whatever mix of writes and reads came before, the gate's
        evidence is ``share_within`` over each tracker's samples now."""
        gate = make_gate(eps=0.5, p_th=0.6)
        gate.trackers = [PredictionErrorTracker(window=window) for _ in range(3)]
        for step in steps:
            if step[0] == "record":
                gate.record(np.zeros(3), np.array(step[1]))
            elif step[0] == "seed":
                gate.trackers[step[1]].seed(np.array(step[2]))
            else:
                getattr(gate, step[1])(*(() if step[1] == "all_unlocked" else (0,)))
            for kind in ResourceKind:
                samples = list(gate.trackers[kind]._errors)
                fresh = share_within(samples, gate.error_tolerance)
                p, _, n = gate.evidence(kind)
                assert n == len(samples)
                assert (np.isnan(p) and np.isnan(fresh)) or p == fresh
                assert gate.probability(kind) is p
            assert gate.all_unlocked() == all(gate.unlocked(k) for k in ResourceKind)

    def test_reads_between_writes_reuse_one_derivation(self, monkeypatch):
        gate = make_gate()
        gate.record(np.zeros(3), np.full(3, 0.1))
        calls = []
        real = PredictionErrorTracker.probability_within

        def counted(self, tolerance):
            calls.append(self)
            return real(self, tolerance)

        monkeypatch.setattr(PredictionErrorTracker, "probability_within", counted)
        gate.all_unlocked()
        gate.evidence(ResourceKind.CPU)
        gate.probability(ResourceKind.MEM)
        assert len(calls) == 3  # one per resource, once
        gate.trackers[1].record(0.0, 0.2)
        gate.all_unlocked()
        assert len(calls) == 6
