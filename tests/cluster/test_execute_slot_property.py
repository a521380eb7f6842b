"""Vectorized slot execution vs the per-placement reference.

The batch in :func:`repro.cluster.machine.execute_slots` must be
semantically interchangeable with the per-placement reference semantics
(:func:`repro.check.differential.reference_outcome`, the one scalar
oracle), and a VM's slot must come out byte for byte the same whatever
else shares its batch.  These tests drive both over randomized placement
mixes designed to hit every branch: primaries whose collective demand
exceeds capacity (over-capacity scaling), opportunists squeezed into
leftover room, per-placement ``granted_cap`` ceilings, revoked capacity
and empty VMs holding commitment residue.
"""

import copy
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check.differential import capture_snapshot, diff_outcome, reference_outcome
from repro.cluster.machine import (
    ClusterLanes,
    SlotOutcome,
    VirtualMachine,
    _segment_sums,
    execute_slots,
)
from repro.cluster.resources import NUM_RESOURCES

from .test_machine import make_vm, place, running_job

N_SLOTS = 4


def build_vm(seed: int, *, riders_only: bool = False, vm_id: int = 0) -> VirtualMachine:
    """A VM with a randomized placement mix, reproducible from ``seed``."""
    rng = np.random.default_rng(seed)
    vm = make_vm(capacity=tuple(rng.uniform(4.0, 12.0, size=3)), vm_id=vm_id)
    n = int(rng.integers(1, 8))
    for i in range(n):
        opportunistic = riders_only or bool(rng.random() < 0.4)
        request = tuple(rng.uniform(0.5, 6.0, size=3))
        util = rng.uniform(0.0, 1.2, size=8)
        duration = float(rng.choice([10.0, 30.0, 60.0]))
        job = running_job(
            request=request, util=util, duration_s=duration, task_id=i
        )
        cap = None
        if rng.random() < 0.3:
            cap = rng.uniform(0.2, 4.0, size=3)
        if opportunistic:
            place(vm, job, opportunistic=True, cap=cap)
            continue
        # Reserving only a fraction of the request lets the collective
        # primary demand exceed capacity, exercising the scaling branch.
        reserved = job.requested * float(rng.uniform(0.1, 1.0))
        if not vm.can_reserve(reserved):
            place(vm, job, opportunistic=True, cap=cap)
            continue
        place(vm, job, reserved=reserved, cap=cap)
    return vm


def reference_execute_slot(vm: VirtualMachine, slot: int):
    """Run one slot of ``vm`` through the oracle alone.

    The reference is pure, so its per-job rates are applied here to make
    the twin's jobs progress, complete and change demand from slot to
    slot exactly as the reference dictates.
    """
    snapshot = capture_snapshot(vm)
    ref = reference_outcome(snapshot)
    for p, rate in zip(vm.placements, ref.rates):
        p.job.advance(float(rate), slot)
    return snapshot, ref


def assert_outcomes_match(outcome, snapshot, ref):
    for field, want in (
        ("committed", snapshot.committed),
        ("primary_demand", ref.primary_demand),
        ("opportunistic_demand", ref.opportunistic_demand),
        ("served_demand", ref.served_demand),
        ("unused", ref.unused),
    ):
        np.testing.assert_allclose(
            getattr(outcome, field),
            want,
            rtol=1e-12,
            atol=1e-12,
            err_msg=field,
        )


@pytest.mark.parametrize("seed", range(40))
def test_vectorized_matches_reference(seed):
    vec_vm = build_vm(seed)
    ref_vm = build_vm(seed)  # independent twin: jobs mutate as they run
    ref_unused = []
    for slot in range(N_SLOTS):
        vec_out = vec_vm.execute_slot(slot)
        snapshot, ref = reference_execute_slot(ref_vm, slot)
        assert_outcomes_match(vec_out, snapshot, ref)
        ref_unused.append(ref.unused)
        # Per-job effects must agree too: rates, progress, completion.
        for pv, pr in zip(vec_vm.placements, ref_vm.placements):
            assert pv.job.job_id == pr.job.job_id
            np.testing.assert_allclose(
                pv.job.rate_history, pr.job.rate_history, rtol=1e-12
            )
            assert pv.job.progress == pytest.approx(pr.job.progress, rel=1e-12)
            assert pv.job.state is pr.job.state
        vec_done = {j.record.task_id for j in vec_vm.remove_completed()}
        ref_done = {j.record.task_id for j in ref_vm.remove_completed()}
        assert vec_done == ref_done
    np.testing.assert_allclose(vec_vm.unused_history(), ref_unused, rtol=1e-12)


def test_empty_vm_fast_path_matches_reference():
    vec_vm, ref_vm = make_vm(), make_vm()
    snapshot, ref = reference_execute_slot(ref_vm, 0)
    assert_outcomes_match(vec_vm.execute_slot(0), snapshot, ref)
    np.testing.assert_array_equal(vec_vm.unused_history(), [ref.unused])


def test_max_vm_capacity_cache_matches_uncached():
    from repro.cluster.profiles import ClusterProfile
    from repro.cluster.simulator import ClusterSimulator

    from .test_simulator import GreedyScheduler

    sim = ClusterSimulator(
        ClusterProfile.palmetto(n_pms=2, vms_per_pm=2), GreedyScheduler()
    )
    uncached = np.max([vm.capacity for vm in sim.vms], axis=0)
    assert np.array_equal(sim.max_vm_capacity(), uncached)
    # Second read hits the memo; a changed VM set invalidates it.
    assert np.array_equal(sim.max_vm_capacity(), uncached)
    sim.vms = sim.vms[:1]
    assert np.array_equal(sim.max_vm_capacity(), sim.vms[0].capacity)


def residue_vm(vm_id: int) -> VirtualMachine:
    """An empty VM whose released reservations left float residue in its
    commitment (0.3 + 0.1 - 0.3 - 0.1 = 2.8e-17): not quiescent."""
    vm = make_vm(vm_id=vm_id)
    for task_id, amount in ((1, 0.3), (2, 0.1)):
        place(vm, running_job(request=(amount,) * 3, task_id=task_id))
    vm.evict_job(1)
    vm.evict_job(2)
    assert not vm.placements and vm.committed().any()
    return vm


#: One VM of a batch: placement-mix seed, kind, capacity scale (a
#: revocation below 1.0) and idle slots pending from earlier skips.
_VM_SPECS = st.tuples(
    st.integers(0, 2**16),
    st.sampled_from(("mixed", "riders_only", "residue")),
    st.sampled_from((1.0, 1.0, 0.5, 0.25)),
    st.integers(0, 3),
)


def build_batch(specs) -> list[VirtualMachine]:
    vms = []
    for vm_id, (seed, kind, scale, pending) in enumerate(specs):
        vm = (
            residue_vm(vm_id) if kind == "residue"
            else build_vm(seed, riders_only=kind == "riders_only", vm_id=vm_id)
        )
        if scale < 1.0:
            vm.set_capacity_scale(scale)
        vm.pending_idle_slots = pending
        vms.append(vm)
    ClusterLanes.of(vms)  # one set of lanes, as in a cluster
    return vms


def _job_state(vm: VirtualMachine):
    return [
        (
            p.job.job_id, p.job.progress.hex(), p.job.state,
            [rate.hex() for rate in p.job.rate_history],
            p.job.record.usage[p.job.usage_positions].tobytes(),
        )
        for p in vm.placements
    ]


class TestOneBatch:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(_VM_SPECS, min_size=1, max_size=8))
    def test_a_batch_is_its_vms_one_at_a_time(self, specs):
        """``execute_slots(vms)`` equals one-VM calls on a copy, byte for
        byte, and the per-placement reference within ``DIFF_ATOL``."""
        vms = build_batch(specs)
        twins = copy.deepcopy(vms)
        for slot in range(3):
            snapshots = [capture_snapshot(vm) for vm in vms]
            batch = execute_slots(vms, slot)
            singles = [vm.execute_slot(slot) for vm in twins]
            assert len(batch) == len(vms)
            for vm, twin, snapshot, got, want in zip(
                vms, twins, snapshots, batch, singles
            ):
                for field in fields(SlotOutcome):
                    row = getattr(got, field.name)
                    assert not row.flags.writeable
                    assert row.tobytes() == getattr(want, field.name).tobytes()
                assert got.committed.tobytes() == snapshot.committed.tobytes()
                assert diff_outcome(snapshot, got, vm) == []
                assert _job_state(vm) == _job_state(twin)
                vm.remove_completed()
                twin.remove_completed()
        for vm, twin in zip(vms, twins):
            assert vm.unused_history().tobytes() == twin.unused_history().tobytes()

    def test_an_empty_batch_is_no_outcome(self):
        assert list(execute_slots([], 0)) == []


#: Ragged ``(k, 3)`` segments of non-negative values spanning many
#: magnitudes, so a pairwise sum and an in-order one round apart.
_SEGMENTS = st.lists(
    st.lists(
        st.tuples(*[st.floats(0.0, 1e9, allow_nan=False)] * NUM_RESOURCES),
        max_size=40,
    ),
    min_size=1,
    max_size=8,
)


class TestSegmentSums:
    @settings(max_examples=200, deadline=None)
    @given(_SEGMENTS)
    def test_each_segment_adds_as_its_sum_over_rows(self, segments):
        """The per-VM sum of the batch is byte-equal to ``.sum(axis=0)``
        over that VM's rows, the sum one VM at a time used to take.  A
        numpy that changes either order fails here, not in the goldens."""
        blocks = [np.array(seg, dtype=float).reshape(-1, NUM_RESOURCES) for seg in segments]
        owner = np.repeat(np.arange(len(blocks)), [len(b) for b in blocks])
        sums = _segment_sums(np.concatenate(blocks), owner, len(blocks))
        for got, block in zip(sums, blocks):
            assert got.tobytes() == block.sum(axis=0).tobytes()
