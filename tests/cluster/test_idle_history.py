"""Idle slots are a pending count, and every read still sees the rows.

A caller that finds a VM :attr:`~VirtualMachine.quiescent` bumps
``pending_idle_slots`` instead of calling ``execute_slot`` (the kernel's
tick does).  ``eager_row`` is what ``execute_slot`` appended for every
slot before that, transcribed: one list of them, kept by the test, is
what ``unused_history`` must keep reading for any interleaving of
placements, completions, faults and skipped or executed slots.
"""

import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.job import JobState
from repro.cluster.machine import IDLE_OUTCOME, VirtualMachine
from repro.cluster.resources import NUM_RESOURCES

from .test_machine import make_vm, place, running_job

#: Non-dyadic, so releasing reservations out of order leaves float
#: residue in the commitment (0.3 + 0.1 - 0.3 - 0.1 = 2.8e-17).
_REQUESTS = ((0.3, 0.3, 0.3), (0.1, 0.1, 0.1), (1.3, 2.6, 11.1), (2.0, 4.0, 10.0))
_LASTS = (None, 0, 1, 30)


def eager_row(vm: VirtualMachine) -> np.ndarray:
    """The history row one slot appends: ``max(committed - demand, 0)``."""
    demands = np.array(
        [p.job.demand() for p in vm.placements if not p.opportunistic]
    ).reshape(-1, NUM_RESOURCES)
    return np.maximum(vm.committed() - demands.sum(axis=0), 0.0)


def kernel_slot(vm: VirtualMachine, slot: int):
    """One online VM's share of ``SchedulerKernel._run_tick``."""
    if vm.quiescent:
        vm.pending_idle_slots += 1
        outcome = IDLE_OUTCOME
    else:
        outcome = vm.execute_slot(slot)
    vm.remove_completed()
    return outcome


def direct_slot(vm: VirtualMachine, slot: int):
    """The same slot through ``execute_slot``, quiescent or not."""
    outcome = vm.execute_slot(slot)
    vm.remove_completed()
    return outcome


def assert_reads_equal(vm: VirtualMachine, rows: list[np.ndarray]) -> None:
    for last in _LASTS:
        want = rows if last is None else rows[-last:] if last else []
        got = vm.unused_history(last=last)
        assert got.shape == (len(want), NUM_RESOURCES)
        assert np.array_equal(got, np.array(want).reshape(-1, NUM_RESOURCES))


_OPS = st.one_of(
    st.tuples(st.just("primary"), st.sampled_from(_REQUESTS)),
    st.tuples(st.just("rider"), st.sampled_from(_REQUESTS)),
    st.tuples(st.sampled_from(("complete", "evict")), st.integers(0, 5)),
    st.tuples(st.sampled_from(("crash", "restore")), st.none()),
    st.tuples(st.just("scale"), st.sampled_from((0.25, 0.5, 1.0))),
    st.tuples(st.just("skip"), st.integers(1, 40)),
    st.tuples(st.just("execute"), st.integers(1, 3)),
    # Reads write the pending rows out, so they are an operation too: a
    # count must survive any run of the others unread.
    st.tuples(st.just("read"), st.none()),
)


# A plain function, and one failure reported: tests/check/test_mutation.py
# calls it under a mutant and expects a bare AssertionError.
@settings(max_examples=300, report_multiple_bugs=False)
@given(ops=st.lists(_OPS, min_size=1, max_size=25))
def test_reads_equal_the_eager_list(ops):
    vm = make_vm()
    rows: list[np.ndarray] = []
    task_ids = itertools.count()
    slots = itertools.count()
    jobs, served = {}, {}

    def run_slots(n, step):
        for _ in range(n):
            if not vm.online:
                return  # the kernel executes no slot on a crashed VM
            rows.append(eager_row(vm))
            for p in vm.placements:
                served[p.job.job_id] += 1
            step(vm, next(slots))
            # Every placement was served, riders on an otherwise empty
            # VM included: a skipped VM held nothing.
            for job_id, n_served in served.items():
                assert len(jobs[job_id].rate_history) == n_served

    for op, arg in ops:
        if op in ("primary", "rider"):
            job = running_job(
                request=arg, duration_s=30.0, task_id=next(task_ids)
            )
            rider = op == "rider"
            if vm.online and (rider or vm.can_reserve(job.requested)):
                place(vm, job, opportunistic=rider)
                jobs[job.job_id], served[job.job_id] = job, 0
        elif op == "complete" and vm.placements:
            job = vm.placements[arg % len(vm.placements)].job
            job.state = JobState.COMPLETED
            assert vm.remove_completed() == [job]
        elif op == "evict" and vm.placements:
            job = vm.placements[arg % len(vm.placements)].job
            assert vm.evict_job(job.job_id) is job
        elif op == "crash":
            vm.crash()
            rows.clear()
        elif op == "restore":
            vm.restore()
        elif op == "scale":
            vm.set_capacity_scale(arg)
        elif op == "skip":
            run_slots(arg, kernel_slot)
        elif op == "execute":
            run_slots(arg, direct_slot)
        elif op == "read":
            assert_reads_equal(vm, rows)
    assert_reads_equal(vm, rows)


class TestIdleStretches:
    def test_crash_drops_the_pending_count(self):
        vm = make_vm()
        for slot in range(5):
            assert kernel_slot(vm, slot) is IDLE_OUTCOME
        assert vm.pending_idle_slots == 5
        vm.crash()
        vm.restore()
        assert vm.unused_history().shape == (0, NUM_RESOURCES)
        kernel_slot(vm, 5)
        assert vm.unused_history().shape == (1, NUM_RESOURCES)

    def test_pending_rows_precede_the_next_real_row(self):
        vm = make_vm()
        for slot in range(3):
            kernel_slot(vm, slot)
        place(vm, running_job(request=(4, 4, 4), util=np.full(6, 0.5)))
        kernel_slot(vm, 3)
        np.testing.assert_array_equal(
            vm.unused_history(), [[0, 0, 0]] * 3 + [[2, 2, 2]]
        )

    def test_a_riders_only_vm_is_executed(self):
        vm = make_vm()
        rider = running_job()
        place(vm, rider, opportunistic=True)
        assert not vm.quiescent
        assert kernel_slot(vm, 0) is not IDLE_OUTCOME
        assert len(rider.rate_history) == 1

    def test_float_residue_keeps_an_empty_vm_eager(self):
        vm = make_vm()
        first = running_job(request=(0.3, 0.3, 0.3), task_id=1)
        second = running_job(request=(0.1, 0.1, 0.1), task_id=2)
        place(vm, first)
        place(vm, second)
        vm.evict_job(first.job_id)
        vm.evict_job(second.job_id)
        residue = vm.committed()
        assert residue.any() and not vm.placements
        assert not vm.quiescent
        outcome = kernel_slot(vm, 0)
        np.testing.assert_array_equal(outcome.committed, vm.committed())
        np.testing.assert_array_equal(vm.unused_history(), [residue])
        # A crash zeroes the commitment exactly: quiescent once restored.
        vm.crash()
        vm.restore()
        assert vm.quiescent
