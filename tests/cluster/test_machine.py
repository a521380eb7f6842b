"""VM/PM accounting, placement rules and slot execution semantics."""

import numpy as np
import pytest

from repro.cluster.job import Job, JobState
from repro.cluster.machine import PhysicalMachine, Placement, VirtualMachine
from repro.cluster.resources import ResourceVector

from .test_job import make_record


def make_vm(capacity=(8.0, 32.0, 360.0), vm_id=0) -> VirtualMachine:
    return VirtualMachine(vm_id, capacity)


def running_job(*, request=(2, 4, 10), util=None, duration_s=60.0, task_id=0) -> Job:
    job = Job(
        record=make_record(
            request=request, util=util, duration_s=duration_s, task_id=task_id
        ),
        submit_slot=0,
    )
    return job


def place(vm, job, *, opportunistic=False, reserved=None, cap=None, slot=0):
    reserved = (
        np.zeros(3)
        if opportunistic
        else (reserved if reserved is not None else job.requested)
    )
    p = Placement(job=job, vm=vm, reserved=reserved, opportunistic=opportunistic,
                  granted_cap=cap)
    vm.add_placement(p)
    job.start(slot, opportunistic=opportunistic)
    return p


class TestVmConstruction:
    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            VirtualMachine(0, [0, 0, 0])

    def test_rejects_negative_capacity(self):
        with pytest.raises(ValueError):
            VirtualMachine(0, [-1, 2, 3])

    @pytest.mark.parametrize(
        "capacity",
        [np.ones((1, 3)), np.ones(2), np.array([1, 1, 1], dtype=object), [True] * 3],
        ids=["(1, 3)", "(2,)", "object", "bool"],
    )
    def test_rejects_anything_but_three_real_numbers(self, capacity):
        with pytest.raises(ValueError, match="3 real entries"):
            VirtualMachine(0, capacity)

    def test_base_capacity_is_a_read_only_copy(self):
        capacity = np.array([8.0, 32, 360])
        vm = VirtualMachine(0, capacity)
        capacity[0] = 1.0
        assert vm.base_capacity.dtype == np.float64
        np.testing.assert_array_equal(vm.base_capacity, [8, 32, 360])
        with pytest.raises(ValueError, match="read-only"):
            vm.base_capacity[0] = 1.0


class TestCommitmentAccounting:
    def test_empty_vm(self):
        vm = make_vm()
        np.testing.assert_array_equal(vm.committed(), [0, 0, 0])
        np.testing.assert_array_equal(vm.unallocated(), vm.capacity)

    def test_primary_commits(self):
        vm = make_vm()
        place(vm, running_job(request=(2, 4, 10)))
        np.testing.assert_array_equal(vm.committed(), [2, 4, 10])
        np.testing.assert_array_equal(vm.unallocated(), [6, 28, 350])

    def test_opportunistic_does_not_commit(self):
        vm = make_vm()
        place(vm, running_job(), opportunistic=True)
        np.testing.assert_array_equal(vm.committed(), [0, 0, 0])

    def test_can_reserve_respects_unallocated(self):
        vm = make_vm(capacity=(4, 8, 20))
        place(vm, running_job(request=(3, 4, 10)))
        assert vm.can_reserve(np.array([1.0, 4, 10]))
        assert not vm.can_reserve(np.array([2.0, 4, 10]))

    def test_overcommit_primary_rejected(self):
        vm = make_vm(capacity=(4, 8, 20))
        place(vm, running_job(request=(3, 4, 10), task_id=1))
        job2 = running_job(request=(2, 2, 2), task_id=2)
        with pytest.raises(ValueError):
            vm.add_placement(
                Placement(job=job2, vm=vm, reserved=job2.requested, opportunistic=False)
            )

    def test_placement_on_wrong_vm_rejected(self):
        vm1, vm2 = make_vm(vm_id=1), make_vm(vm_id=2)
        job = running_job()
        with pytest.raises(ValueError):
            vm1.add_placement(
                Placement(job=job, vm=vm2, reserved=job.requested, opportunistic=False)
            )

    def test_actual_unused(self):
        """The history row a slot appends is ``r − d`` (Section II)."""
        vm = make_vm(capacity=(10, 10, 10))
        place(vm, running_job(request=(10, 10, 10), util=np.full(6, 0.4)))
        vm.execute_slot(0)
        np.testing.assert_allclose(vm.unused_history(), [[6, 6, 6]])


class TestSlotExecution:
    def test_idle_slot_shares_read_only_zero_rows(self):
        vm = make_vm()
        first, second = vm.execute_slot(0), vm.execute_slot(1)
        assert first.primary_demand is second.served_demand  # one shared zero
        row = first.primary_demand
        assert not row.flags.writeable
        assert not row.any()
        # The history handed to predictors is a fresh, writable array per
        # read, for executed and for skipped (pending) slots alike.
        vm.pending_idle_slots += 2
        history = vm.unused_history()
        history[:] = 1.0
        again = vm.unused_history()
        assert again is not history and again.shape == (4, 3)
        assert not again.any()

    def test_primary_gets_full_demand(self):
        vm = make_vm()
        job = running_job(request=(4, 4, 4), util=np.full(6, 0.5))
        place(vm, job)
        outcome = vm.execute_slot(0)
        assert job.rate_history[-1] == pytest.approx(1.0)
        np.testing.assert_allclose(outcome.primary_demand, [2, 2, 2])

    def test_granted_cap_squeezes_primary(self):
        vm = make_vm()
        job = running_job(request=(4, 4, 4), util=np.full(6, 0.5))
        place(vm, job, cap=np.array([1.0, 4, 4]))  # cpu cap half the demand
        vm.execute_slot(0)
        assert job.rate_history[-1] == pytest.approx(0.5)

    def test_opportunistic_served_from_leftover(self):
        vm = make_vm(capacity=(4, 16, 100))
        primary = running_job(request=(4, 8, 50), util=np.full(6, 0.25), task_id=1)
        rider = running_job(request=(3, 3, 3), util=np.full(6, 0.5), task_id=2)
        place(vm, primary)
        place(vm, rider, opportunistic=True)
        vm.execute_slot(0)
        # leftover cpu = 4 - 1 = 3 >= rider demand 1.5 -> full speed
        assert rider.rate_history[-1] == pytest.approx(1.0)

    def test_opportunistic_squeezed_when_capacity_tight(self):
        vm = make_vm(capacity=(4, 16, 100))
        primary = running_job(request=(4, 8, 50), util=np.full(6, 0.75), task_id=1)
        rider = running_job(request=(4, 4, 4), util=np.full(6, 0.5), task_id=2)
        place(vm, primary)
        place(vm, rider, opportunistic=True)
        vm.execute_slot(0)
        # leftover cpu = 4 - 3 = 1; rider demand 2 -> rate 0.5
        assert primary.rate_history[-1] == pytest.approx(1.0)
        assert rider.rate_history[-1] == pytest.approx(0.5)

    def test_riders_share_leftover_proportionally(self):
        vm = make_vm(capacity=(4, 16, 100))
        primary = running_job(request=(4, 8, 50), util=np.full(6, 0.5), task_id=1)
        r1 = running_job(request=(4, 4, 4), util=np.full(6, 0.5), task_id=2)
        r2 = running_job(request=(4, 4, 4), util=np.full(6, 0.5), task_id=3)
        place(vm, primary)
        place(vm, r1, opportunistic=True)
        place(vm, r2, opportunistic=True)
        vm.execute_slot(0)
        # leftover cpu 2; rider demand 2+2=4 -> each at rate 0.5
        assert r1.rate_history[-1] == pytest.approx(0.5)
        assert r2.rate_history[-1] == pytest.approx(0.5)

    def test_outcome_unused_tracks_committed_minus_demand(self):
        vm = make_vm()
        place(vm, running_job(request=(8, 8, 8), util=np.full(6, 0.25)))
        outcome = vm.execute_slot(0)
        np.testing.assert_allclose(outcome.unused, [6, 6, 6])

    def test_history_accumulates(self):
        vm = make_vm()
        place(vm, running_job(request=(8, 8, 8), util=np.full(6, 0.5)))
        vm.execute_slot(0)
        vm.execute_slot(1)
        assert vm.unused_history().shape == (2, 3)
        assert vm.unused_history(last=1).shape == (1, 3)

    def test_empty_vm_histories(self):
        vm = make_vm()
        assert vm.unused_history().shape == (0, 3)

    def test_history_last_zero_is_empty_window(self):
        # Regression: ``last=0`` used to fall through the truthiness
        # check and return the FULL history instead of an empty window.
        vm = make_vm()
        place(vm, running_job(request=(8, 8, 8), util=np.full(6, 0.5)))
        vm.execute_slot(0)
        vm.execute_slot(1)
        assert vm.unused_history(last=0).shape == (0, 3)
        # ``last=None`` (the default) still means "everything".
        assert vm.unused_history(last=None).shape == (2, 3)

    def test_remove_completed(self):
        vm = make_vm()
        job = running_job(duration_s=10)  # one slot
        place(vm, job)
        vm.execute_slot(0)
        assert job.state is JobState.COMPLETED
        done = vm.remove_completed()
        assert done == [job]
        assert vm.placements == []

    def test_remove_completed_keeps_running(self):
        vm = make_vm()
        job = running_job(duration_s=60)
        place(vm, job)
        vm.execute_slot(0)
        assert vm.remove_completed() == []
        assert len(vm.placements) == 1


class TestSlotSpeaksRows:
    def test_a_vm_slot_builds_no_resource_vector(self, monkeypatch):
        """A slot is arithmetic on rows: executing it, recording its
        totals and scoring it in the base ``on_slot_end`` wrap nothing.
        The VM is revoked to half capacity and holds over-demanding
        primaries, one under a DRA-style ``granted_cap``, and riders, so
        every branch of the grant arithmetic runs."""
        from repro.baselines.dra import DraScheduler
        from repro.cluster.metrics import MetricsRecorder
        from repro.core.provisioning import _WindowRecord

        vm = make_vm(capacity=(8, 16, 100))
        place(vm, running_job(request=(4, 8, 50), util=np.full(6, 0.9), task_id=1))
        place(vm, running_job(request=(2, 4, 20), util=np.full(6, 0.8), task_id=2),
              cap=np.array([1.0, 2, 10]))
        for task_id in (3, 4):
            place(vm, running_job(request=(3, 3, 3), util=np.full(6, 0.5),
                                  task_id=task_id), opportunistic=True)
        vm.set_capacity_scale(0.5)
        scheduler = DraScheduler()
        scheduler._window[vm.vm_id] = _WindowRecord(
            vm, np.zeros(3), np.zeros(3), vm.committed(),
            scheduler._primary_jobset(vm),
        )
        recorder = MetricsRecorder()

        def refuse(*args, **kwargs):
            raise AssertionError("a VM-slot built a ResourceVector")

        monkeypatch.setattr(ResourceVector, "__init__", refuse)
        for slot in range(3):
            outcome = vm.execute_slot(slot)
            recorder.record(outcome.served_demand.copy(), outcome.committed.copy())
            scheduler.on_slot_end(slot, {vm.vm_id: outcome})
            vm.remove_completed()
        monkeypatch.undo()
        assert recorder.n_slots == 3
        assert scheduler._window[vm.vm_id].slots == 3
        assert min(p.job.rate_history[-1] for p in vm.placements) < 0.5


class TestPlacementCaps:
    def test_effective_cap_primary_defaults_to_reservation(self):
        vm = make_vm()
        p = place(vm, running_job(request=(2, 4, 10)))
        np.testing.assert_array_equal(p.effective_cap(), [2, 4, 10])

    def test_effective_cap_opportunistic_defaults_to_request(self):
        vm = make_vm()
        p = place(vm, running_job(request=(2, 4, 10)), opportunistic=True)
        np.testing.assert_array_equal(p.effective_cap(), [2, 4, 10])

    def test_effective_cap_explicit(self):
        vm = make_vm()
        p = place(vm, running_job(), cap=np.array([1.0, 1, 1]))
        np.testing.assert_array_equal(p.effective_cap(), [1, 1, 1])


class TestPhysicalMachine:
    def test_add_vm_within_capacity(self):
        pm = PhysicalMachine(0, [16, 64, 720])
        pm.add_vm(make_vm(capacity=(8, 32, 360), vm_id=0))
        np.testing.assert_array_equal(pm.free_capacity(), [8, 32, 360])
        pm.add_vm(make_vm(capacity=(8, 32, 360), vm_id=1))
        assert len(pm.vms) == 2
        np.testing.assert_array_equal(pm.free_capacity(), [0, 0, 0])

    def test_add_vm_overflow_rejected(self):
        pm = PhysicalMachine(0, [8, 32, 360])
        pm.add_vm(make_vm(capacity=(8, 32, 360)))
        with pytest.raises(ValueError):
            pm.add_vm(make_vm(capacity=(1, 1, 1), vm_id=1))

    @pytest.mark.parametrize("vms_per_pm", [1, 3, 8])
    def test_a_pm_filled_by_its_vms_refuses_one_more(self, vms_per_pm):
        """The running nominal commitment admits exactly ``vms_per_pm``
        equal VMs, and a refused VM leaves the PM as it was."""
        capacity = np.array([64.0, 256, 4000])
        pm = PhysicalMachine(0, capacity)
        for vm_id in range(vms_per_pm):
            pm.add_vm(make_vm(capacity=capacity / vms_per_pm, vm_id=vm_id))
            np.testing.assert_array_equal(
                pm.free_capacity(),
                np.maximum(capacity - sum(vm.base_capacity for vm in pm.vms), 0.0),
            )
        with pytest.raises(ValueError, match="capacity .* exceeded by VM set"):
            pm.add_vm(make_vm(capacity=(0, 0, 1), vm_id=vms_per_pm))
        assert len(pm.vms) == vms_per_pm
        np.testing.assert_array_equal(pm.free_capacity(), [0, 0, 0])

    def test_a_revoked_vm_frees_no_pm_capacity(self):
        """VMs carve their nominal capacity: a revocation ends, so the
        capacity it withholds is not the PM's to hand out."""
        pm = PhysicalMachine(0, [16, 64, 720])
        revoked = make_vm(capacity=(8, 32, 360), vm_id=0)
        pm.add_vm(revoked)
        pm.add_vm(make_vm(capacity=(8, 32, 360), vm_id=1))
        revoked.set_capacity_scale(0.5)
        np.testing.assert_array_equal(pm.free_capacity(), [0, 0, 0])
        with pytest.raises(ValueError):
            pm.add_vm(make_vm(capacity=(4, 16, 180), vm_id=2))

    def test_add_vm_sets_pm_id(self):
        pm = PhysicalMachine(7, [16, 64, 720])
        vm = make_vm()
        pm.add_vm(vm)
        assert vm.pm_id == 7

    def test_repr(self):
        pm = PhysicalMachine(1, [16, 64, 720])
        assert "id=1" in repr(pm)
        assert "id=0" in repr(make_vm())
