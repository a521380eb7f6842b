"""A snapshot copies the live state and shares what never changes again.

``SchedulerKernel.snapshot`` and ``KernelSnapshot.restore`` deep-copy
the kernel, but finished jobs, trace records, the fault plan and its
events, the fitted predictor and the entries of every append-only log —
VM history rows, the metrics recorder's per-slot rows, SLO outcome
tuples — are handed over as they are.  A job's rate and usage-position
logs are typed arrays: they hold no objects and copy whole.  This module
pins both
halves on a CORP run under job failures, a crash and a revocation wave,
snapshotted while jobs are pending, running, backed off, completed and
failed at once: the unchanging objects are one object across the live
kernel, the snapshot and every restore; nothing else is shared; and no
side's run reaches into another's.

The unchanging set is spelled out here, independently of the kernel's
own memo helper, so a helper that shares too much fails this module.
"""

import gc
from enum import Enum
from types import BuiltinFunctionType, FunctionType, ModuleType

import numpy as np
import pytest

from repro.experiments.runner import build_kernel
from repro.faults.plan import FaultPlan, JobFailure, RetryPolicy, RevocationWave, VmCrash

#: Eight VMs: failures on the first four every slot from 2 to 7 (a job
#: failing twice gives up), half of VMs 1-4 crashed and half squeezed
#: at slot 4, VM 5 crashed at slot 6.
PLAN = FaultPlan(
    events=tuple(
        JobFailure(slot=slot, vm_index=vm) for slot in range(2, 8) for vm in range(4)
    )
    + (
        RevocationWave(slot=4, vm_indices=(1, 2, 3, 4), downtime_slots=3),
        VmCrash(slot=6, vm_index=5, downtime_slots=2),
    ),
    retry=RetryPolicy(max_retries=1, backoff_base_slots=2),
)

#: Shared by ``copy.deepcopy`` and immutable, so never a leak.
_ATOMS = (
    type, ModuleType, FunctionType, BuiltinFunctionType, Enum,
    str, bytes, int, float, bool, type(None),
)


def churned_kernel(scenario, corp_config, predictor_cache):
    """A CORP kernel stepped until every job population is non-empty."""
    kernel = build_kernel(
        scenario=scenario.with_fault_plan(PLAN),
        method="CORP",
        corp_config=corp_config,
        predictor_cache=predictor_cache,
        streaming=False,
    )
    sim = kernel.sim
    while not (
        sim.pending and sim.running and sim.completed and sim.failed
        and sim.faults.has_backlog()
    ):
        assert kernel.advance() is not None, "the plan churned too little"
    return kernel


def _terminal(kernel):
    sim = kernel.sim
    return sim.completed + sim.failed + sim.rejected


def _in_flight(kernel):
    sim = kernel.sim
    return sim.pending + sim.running + sim.faults.backlog_jobs()


def shared_rows(kernel):
    """The array entries of the logs, by kind."""
    sim = kernel.sim
    return {
        "vm history": [row for vm in sim.vms for row in vm._unused_history],
        "metrics demand": list(sim.metrics._demand),
        "metrics committed": list(sim.metrics._committed),
    }


def unchanging(kernel):
    """What a snapshot may share, in a fixed order."""
    sim = kernel.sim
    jobs = _terminal(kernel) + _in_flight(kernel)
    plan = sim.faults.plan
    return (
        _terminal(kernel)
        + [job.record for job in jobs]
        + [record for *_, record in kernel._queue if record is not None]
        + [row for rows in shared_rows(kernel).values() for row in rows]
        + [sim.slo_tracker.outcomes[key] for key in sorted(sim.slo_tracker.outcomes)]
        + [plan, plan.retry, *plan.events, sim.scheduler.predictor]
    )


def _reachable(*roots):
    seen = {}
    stack = list(roots)
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, _ATOMS):
            continue
        seen[id(obj)] = obj
        stack.extend(gc.get_referents(obj))
    return seen


def assert_shares_only_unchanging(live, copy):
    """``copy`` shares nothing with ``live`` but the unchanging objects.

    A shared tuple is no leak by itself (``deepcopy`` returns a tuple
    whose items all came back as they were); what it holds is checked
    on its own.
    """
    graph = _reachable(copy)
    shared = graph.keys() & _reachable(live).keys()
    allowed = _reachable(*unchanging(live))
    leaked = sorted(
        type(obj).__name__
        for key, obj in graph.items()
        if key in shared and key not in allowed and not isinstance(obj, tuple)
    )
    assert not leaked, f"shared mutable state: {leaked}"


def _fields(job):
    return (
        job.state, job.submit_slot, job.start_slot, job.completion_slot,
        job.progress, job.opportunistic, job.retries, job.evictions,
        job.first_fault_slot, job.rate_history.tobytes(),
        job.record.usage[job.usage_positions].tobytes(),
    )


def _outcomes(kernel):
    return {job.job_id: _fields(job) for job in kernel.result().jobs}


@pytest.fixture()
def live(small_scenario, tiny_corp_config, predictor_cache):
    return churned_kernel(small_scenario, tiny_corp_config, predictor_cache)


class TestSharedObjects:
    def test_unchanging_objects_are_one_object(self, live):
        snapshot = live.snapshot()
        expected = unchanging(live)
        assert len(expected) > len(_terminal(live)) > 0
        for copy in (snapshot._kernel, snapshot.restore(), snapshot.restore()):
            got = unchanging(copy)
            assert len(got) == len(expected)
            assert all(a is b for a, b in zip(got, expected))

    def test_live_state_is_not_shared(self, live):
        snapshot = live.snapshot()
        first, second = snapshot.restore(), snapshot.restore()
        for copy in (snapshot._kernel, first, second):
            sched, origin = copy.sim.scheduler, live.sim.scheduler
            pairs = [
                *zip(_in_flight(copy), _in_flight(live)),
                *zip(copy.sim.vms, live.sim.vms),
                *(
                    pair
                    for a, b in zip(copy.sim.vms, live.sim.vms)
                    for pair in zip(a.placements, b.placements)
                ),
                (sched, origin),
                (sched._primary_index, origin._primary_index),
                (sched._opp_pool, origin._opp_pool),
                (sched.rng, origin.rng),
                (copy.sim.faults, live.sim.faults),
                (copy.sim.lanes, live.sim.lanes),
                *(
                    (getattr(copy.sim.lanes, lane), getattr(live.sim.lanes, lane))
                    for lane in ("capacity", "committed", "online")
                ),
            ]
            assert all(a is not b for a, b in pairs)
            assert any(vm.placements for vm in live.sim.vms)
            assert_shares_only_unchanging(live, copy)
        assert_shares_only_unchanging(first, second)

    def test_history_rows_are_read_only(self, live):
        snapshot = live.snapshot()
        for copy in (snapshot._kernel, snapshot.restore()):
            for kind, rows in shared_rows(copy).items():
                assert rows, kind
                for row in rows:
                    with pytest.raises(ValueError, match="read-only"):
                        row[0] = 1.0


class TestLanesAlias:
    def test_a_placement_on_a_restored_vm_reaches_only_its_kernel(self, live):
        """A restored kernel's VMs and primary pool read one lane set of
        their own: a VM that kept a view of a lane row would write a
        detached copy after ``deepcopy``, and its pool would not see it."""
        from repro.cluster.machine import Placement

        snapshot = live.snapshot()
        kernels = (live, snapshot.restore(), snapshot.restore())
        pools = [kernel.sim.scheduler._primary_index for kernel in kernels]
        for pool in pools:
            pool.refresh()
        before = [pool.matrix.copy() for pool in pools]
        restored = kernels[1].sim
        row, vm = next(
            (row, vm) for row, vm in enumerate(restored.vms)
            if vm.online and (vm.unallocated() > 1e-9).any()
        )
        assert vm._lanes is restored.lanes is pools[1].lanes
        vm.add_placement(Placement(
            job=restored.pending[0], vm=vm,
            reserved=vm.unallocated() * 0.5,
            opportunistic=False,
        ))
        assert pools[1].refresh() == 1
        assert np.array_equal(pools[1].matrix[row], vm.unallocated())
        assert not np.array_equal(pools[1].matrix[row], before[1][row])
        for i in (0, 2):
            assert pools[i].refresh() == 0
            assert np.array_equal(pools[i].matrix, before[i])


class TestRunsDoNotReachAcross:
    def test_standby_and_live_leave_each_other_alone(self, live):
        terminal = [_fields(job) for job in _terminal(live)]
        snapshot = live.snapshot()
        standby, spare = snapshot.restore(), snapshot.restore()
        spare_before = [_fields(job) for job in _in_flight(spare)]

        standby.run_until_blocked()
        assert standby.finished
        # The standby finished every job it inherited; the live kernel's
        # finished jobs and the spare restore's queue read as before.
        assert [_fields(job) for job in _terminal(live)] == terminal
        assert [_fields(job) for job in _in_flight(spare)] == spare_before

        standby_terminal = [_fields(job) for job in _terminal(standby)]
        live.run_until_blocked()
        assert [_fields(job) for job in _terminal(standby)] == standby_terminal

        # Two restores of one snapshot do not interfere: the spare ends
        # exactly where the standby and the live kernel ended.
        spare.run_until_blocked()
        assert _outcomes(spare) == _outcomes(standby) == _outcomes(live)
        assert np.array_equal(
            spare.sim.metrics.per_slot_overall(),
            live.sim.metrics.per_slot_overall(),
        )
