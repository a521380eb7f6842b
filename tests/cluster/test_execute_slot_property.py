"""Vectorized ``execute_slot`` vs the per-placement reference.

The vectorized hot path in :meth:`VirtualMachine.execute_slot` must be
semantically interchangeable with the per-placement reference semantics
(:func:`repro.check.differential.reference_outcome`, the one scalar
oracle).  These tests drive both over randomized placement mixes
designed to hit every branch: primaries whose collective demand exceeds
capacity (over-capacity scaling), opportunists squeezed into leftover
room, and per-placement ``granted_cap`` ceilings.
"""

import numpy as np
import pytest

from repro.check.differential import capture_snapshot, reference_outcome
from repro.cluster.machine import VirtualMachine
from repro.cluster.resources import ResourceVector

from .test_machine import make_vm, place, running_job

N_SLOTS = 4


def build_vm(seed: int) -> VirtualMachine:
    """A VM with a randomized placement mix, reproducible from ``seed``."""
    rng = np.random.default_rng(seed)
    vm = make_vm(capacity=tuple(rng.uniform(4.0, 12.0, size=3)))
    n = int(rng.integers(1, 8))
    for i in range(n):
        opportunistic = bool(rng.random() < 0.4)
        request = tuple(rng.uniform(0.5, 6.0, size=3))
        util = rng.uniform(0.0, 1.2, size=8)
        duration = float(rng.choice([10.0, 30.0, 60.0]))
        job = running_job(
            request=request, util=util, duration_s=duration, task_id=i
        )
        cap = None
        if rng.random() < 0.3:
            cap = ResourceVector(rng.uniform(0.2, 4.0, size=3))
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
    uncached = ResourceVector(np.max([vm.capacity for vm in sim.vms], axis=0))
    assert sim.max_vm_capacity() == uncached
    # Second read hits the memo; a changed VM set invalidates it.
    assert sim.max_vm_capacity() == uncached
    sim.vms = sim.vms[:1]
    assert sim.max_vm_capacity() == ResourceVector(sim.vms[0].capacity)
