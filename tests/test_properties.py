"""Hypothesis property tests on cross-module invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.job import Job, JobState
from repro.cluster.machine import Placement, VirtualMachine
from repro.cluster.resources import fits_within
from repro.core.packing import deviation, pack_jobs
from repro.core.vm_selection import (
    min_feasible_volume,
    select_most_matched,
    unused_volume,
)
from repro.hmm.discretize import ThresholdBands
from repro.hmm.forward_backward import forward_backward
from repro.hmm.model import default_fluctuation_model
from repro.hmm.viterbi import viterbi

from .cluster.test_job import make_record

request = st.tuples(
    st.floats(0.1, 8.0), st.floats(0.1, 16.0), st.floats(0.5, 100.0)
)


def jobs_from_requests(requests):
    return [
        Job(record=make_record(request=r, task_id=i), submit_slot=0)
        for i, r in enumerate(requests)
    ]


class TestPackingProperties:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(request, min_size=0, max_size=9))
    def test_partition_property(self, requests):
        """Packing partitions the job set: every job in exactly one entity."""
        jobs = jobs_from_requests(requests)
        entities = pack_jobs(jobs)
        ids = sorted(j for e in entities for j in e.job_ids())
        assert ids == sorted(j.job_id for j in jobs)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(request, min_size=2, max_size=9))
    def test_packed_pairs_have_distinct_dominants(self, requests):
        from repro.core.packing import dominant_resource

        jobs = jobs_from_requests(requests)
        for entity in pack_jobs(jobs):
            if entity.is_packed:
                a, b = entity.jobs
                assert dominant_resource(a.requested) != dominant_resource(
                    b.requested
                )

    @settings(max_examples=40, deadline=None)
    @given(st.lists(request, min_size=1, max_size=9))
    def test_entity_demand_is_member_sum(self, requests):
        jobs = jobs_from_requests(requests)
        for entity in pack_jobs(jobs):
            expected = sum(j.requested for j in entity.jobs)
            np.testing.assert_array_equal(entity.demand, expected)


class TestDeviationProperties:
    """Paper Eq. DV(j, i) — the complementary-packing score."""

    @settings(max_examples=60, deadline=None)
    @given(request, request)
    def test_symmetric(self, a, b):
        va, vb = np.array(a), np.array(b)
        assert deviation(va, vb) == pytest.approx(deviation(vb, va))
        reference = np.array([8, 16, 100])
        assert deviation(va, vb, reference) == pytest.approx(
            deviation(vb, va, reference)
        )

    @settings(max_examples=60, deadline=None)
    @given(request, request)
    def test_non_negative(self, a, b):
        assert deviation(np.array(a), np.array(b)) >= 0.0

    @settings(max_examples=40, deadline=None)
    @given(request)
    def test_self_deviation_is_zero(self, a):
        va = np.array(a)
        assert deviation(va, va) == pytest.approx(0.0, abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(request, request)
    def test_closed_form(self, a, b):
        """DV equals its algebraic simplification Σ_k (d_jk − d_ik)² / 2."""
        va, vb = np.asarray(a), np.asarray(b)
        expected = float(np.sum((va - vb) ** 2) / 2)
        assert deviation(np.array(a), np.array(b)) == pytest.approx(
            expected
        )


class TestVolumeProperties:
    """Paper Eq. 22 — the unused-resource volume ordering."""

    @settings(max_examples=60, deadline=None)
    @given(request, request)
    def test_monotone_in_availability(self, a, b):
        """Elementwise-larger availability never has smaller volume."""
        reference = np.array([8, 16, 100])
        lo = np.array(np.minimum(a, b))
        hi = np.array(np.maximum(a, b))
        assert unused_volume(lo, reference) <= unused_volume(hi, reference) + 1e-12

    @settings(max_examples=60, deadline=None)
    @given(request, st.floats(1.0, 10.0))
    def test_antitone_in_reference(self, a, scale):
        """Scaling the reference capacity up scales every volume down."""
        available = np.array(a)
        reference = np.array([8, 16, 100])
        bigger = reference * scale
        assert (
            unused_volume(available, bigger)
            <= unused_volume(available, reference) + 1e-12
        )

    @settings(max_examples=40, deadline=None)
    @given(st.lists(request, min_size=1, max_size=8), request)
    def test_min_feasible_volume_matches_selection(self, availables, demand):
        """The chosen VM's volume is exactly the feasible minimum."""
        reference = np.array([8, 16, 100])
        vms = [VirtualMachine(i, reference) for i in range(len(availables))]
        candidates = [(vm, np.array(a)) for vm, a in zip(vms, availables)]
        demand_v = np.array(demand)
        best = min_feasible_volume(demand_v, candidates, reference)
        chosen = select_most_matched(demand_v, candidates, reference)
        if best is None:
            assert chosen is None
        else:
            chosen_avail = {vm.vm_id: a for vm, a in candidates}[chosen.vm_id]
            assert unused_volume(chosen_avail, reference) == pytest.approx(best)


class TestSelectionProperties:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(request, min_size=1, max_size=8), request)
    def test_most_matched_is_feasible_and_minimal(self, availables, demand):
        reference = np.array([8, 16, 100])
        vms = [VirtualMachine(i, reference) for i in range(len(availables))]
        candidates = [(vm, np.array(a)) for vm, a in zip(vms, availables)]
        demand_v = np.array(demand)
        chosen = select_most_matched(demand_v, candidates, reference)
        feasible = [
            (vm, a) for vm, a in candidates if fits_within(demand_v, a)
        ]
        if not feasible:
            assert chosen is None
        else:
            assert chosen is not None
            chosen_avail = dict((vm.vm_id, a) for vm, a in candidates)[chosen.vm_id]
            best = min(unused_volume(a, reference) for _, a in feasible)
            assert unused_volume(chosen_avail, reference) == pytest.approx(best)


class TestVmExecutionProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(st.floats(0.05, 0.95), min_size=1, max_size=4),
        st.lists(st.floats(0.05, 0.95), min_size=0, max_size=3),
    )
    def test_served_demand_never_exceeds_capacity(self, primary_utils, rider_utils):
        vm = VirtualMachine(0, [8, 16, 100])
        for i, util in enumerate(primary_utils):
            req = (8 / len(primary_utils), 16 / len(primary_utils), 100 / len(primary_utils))
            job = Job(
                record=make_record(request=req, util=np.full(6, util), task_id=i),
                submit_slot=0,
            )
            vm.add_placement(
                Placement(job=job, vm=vm, reserved=job.requested, opportunistic=False)
            )
            job.start(0, opportunistic=False)
        for i, util in enumerate(rider_utils):
            job = Job(
                record=make_record(request=(2, 4, 10), util=np.full(6, util),
                                   task_id=100 + i),
                submit_slot=0,
            )
            vm.add_placement(
                Placement(
                    job=job, vm=vm, reserved=np.zeros(3),
                    opportunistic=True,
                )
            )
            job.start(0, opportunistic=True)
        outcome = vm.execute_slot(0)
        assert np.all(
            outcome.served_demand <= vm.capacity + 1e-6
        )
        assert np.all(outcome.committed <= vm.capacity + 1e-9)

    @settings(max_examples=25, deadline=None)
    @given(st.floats(0.1, 1.0))
    def test_rates_bounded(self, util):
        vm = VirtualMachine(0, [8, 16, 100])
        job = Job(
            record=make_record(request=(4, 8, 50), util=np.full(6, util)),
            submit_slot=0,
        )
        vm.add_placement(
            Placement(job=job, vm=vm, reserved=job.requested, opportunistic=False)
        )
        job.start(0, opportunistic=False)
        vm.execute_slot(0)
        assert 0.0 <= job.rate_history[0] <= 1.0


class TestHmmProperties:
    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(0, 2), min_size=1, max_size=40))
    def test_viterbi_never_beats_total_likelihood(self, obs):
        """P(best path, O) <= P(O): the Viterbi path is one term of the sum."""
        model = default_fluctuation_model()
        obs = np.asarray(obs)
        best = viterbi(model, obs).log_probability
        total = forward_backward(model, obs).log_likelihood
        assert best <= total + 1e-9

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(0, 2), min_size=1, max_size=40))
    def test_gamma_is_distribution(self, obs):
        model = default_fluctuation_model()
        gamma = forward_backward(model, np.asarray(obs)).gamma
        assert np.all(gamma >= -1e-12)
        np.testing.assert_allclose(gamma.sum(axis=1), 1.0)


class TestBandsProperties:
    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(0, 100, allow_nan=False), min_size=2, max_size=50))
    def test_thresholds_ordered(self, values):
        bands = ThresholdBands.from_history(np.asarray(values))
        assert bands.minimum <= bands.lower_threshold <= bands.mean
        assert bands.mean <= bands.upper_threshold <= bands.maximum
        assert bands.correction_magnitude() >= 0.0


class TestJobProgressProperties:
    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(0.1, 1.0), min_size=1, max_size=60))
    def test_completion_time_matches_rates(self, rates):
        """A job completes exactly when cumulative rate reaches its work."""
        job = Job(record=make_record(duration_s=30.0), submit_slot=0)  # 3 slots
        job.start(0, opportunistic=False)
        slot = 0
        for rate in rates:
            if job.state is not JobState.RUNNING:
                break
            job.advance(rate, slot)
            slot += 1
        if job.state is JobState.COMPLETED:
            consumed = sum(rates[: slot])
            assert consumed >= job.nominal_slots - 1e-6
