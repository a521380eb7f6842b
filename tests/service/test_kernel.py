"""The event kernel: batch equivalence, event order, truncation, snapshots.

The load-bearing guarantee is that manually stepping the kernel event
by event reproduces :meth:`ClusterSimulator.run` exactly (the golden
suite separately pins that the batch path itself never drifted).
"""

import numpy as np
import pytest

from repro import ClusterProfile, api, cluster_scenario
from repro.cluster.machine import VirtualMachine
from repro.cluster.resources import NUM_RESOURCES
from repro.experiments.runner import METHOD_ORDER
from repro.obs import MemorySink, capture_events
from repro.service import EventKind, SchedulerKernel
from repro.experiments.runner import build_kernel

from ..cluster.test_idle_history import eager_row

#: Wall-clock-only metric, legitimately different between two runs.
_SKIP = {"allocation_latency_s"}


def _comparable(summary):
    return {k: v for k, v in summary.items() if k not in _SKIP}


def _small_max_slots(scenario, max_slots):
    import dataclasses

    sim_config = dataclasses.replace(scenario.sim_config, max_slots=max_slots)
    return dataclasses.replace(scenario, sim_config=sim_config)


class TestBatchEquivalence:
    @pytest.mark.parametrize("method", METHOD_ORDER)
    @pytest.mark.parametrize("intensity", [None, 0.5])
    def test_manual_drive_matches_batch_run(
        self, small_scenario, tiny_corp_config, predictor_cache, method, intensity
    ):
        plan = None
        if intensity is not None:
            plan = api.build_fault_plan(seed=0, intensity=intensity)
        scenario = small_scenario.with_fault_plan(plan)
        batch = api.run_one(
            scenario=scenario,
            method=method,
            corp_config=tiny_corp_config,
            predictor_cache=predictor_cache,
        )
        kernel = build_kernel(
            scenario=scenario,
            method=method,
            corp_config=tiny_corp_config,
            predictor_cache=predictor_cache,
            streaming=False,
        )
        while kernel.advance() is not None:
            pass
        assert kernel.finished
        assert _comparable(kernel.result().summary()) == _comparable(
            batch.summary()
        )

    def test_streaming_submit_matches_batch(self, small_scenario):
        batch = api.run_one(scenario=small_scenario, method="DRA")
        kernel = build_kernel(
            scenario=small_scenario, method="DRA", streaming=True
        )
        assert kernel.idle and not kernel.finished
        for record in small_scenario.evaluation_trace():
            kernel.submit(record)
        kernel.run_until_blocked()
        assert kernel.idle and not kernel.finished  # streaming never "ends"
        assert _comparable(kernel.result().summary()) == _comparable(
            batch.summary()
        )


class TestEventOrder:
    def test_within_slot_priority_and_single_tick(self, small_scenario):
        plan = api.build_fault_plan(seed=0, intensity=0.5)
        kernel = build_kernel(
            scenario=small_scenario.with_fault_plan(plan),
            method="RCCR",
            streaming=False,
        )
        events = []
        while (event := kernel.advance()) is not None:
            events.append(event)

        last = None
        ticks_per_slot = {}
        for event in events:
            if last is not None:
                assert event.slot >= last.slot, "slots must be monotone"
                if event.slot == last.slot:
                    assert event.kind >= last.kind, (
                        "within-slot order is restore < fault < submit < tick"
                    )
            if event.kind is EventKind.SLOT_TICK:
                ticks_per_slot[event.slot] = ticks_per_slot.get(event.slot, 0) + 1
            last = event
        assert set(ticks_per_slot.values()) == {1}
        # every executed slot saw its fault-layer phases
        fault_slots = {
            e.slot for e in events if e.kind is EventKind.FAULT_DUE
        }
        restore_slots = {
            e.slot for e in events if e.kind is EventKind.VM_RESTORED
        }
        assert fault_slots == restore_slots == set(ticks_per_slot)

    def test_submission_events_carry_records(self, small_scenario):
        kernel = build_kernel(
            scenario=small_scenario, method="DRA", streaming=False
        )
        submitted = []
        while (event := kernel.advance()) is not None:
            if event.kind is EventKind.JOB_SUBMITTED:
                assert event.record is not None
                submitted.append(event.record.task_id)
            else:
                assert event.record is None
        assert len(submitted) == len(set(submitted)) == small_scenario.n_jobs


class TestTruncation:
    def test_truncated_run_flagged_and_warned(self, small_scenario):
        scenario = _small_max_slots(small_scenario, 3)
        with capture_events(MemorySink()) as sink:
            result = api.run_one(scenario=scenario, method="RCCR")
        assert result.truncated
        assert result.n_slots == 3
        assert result.summary()["truncated"] == 1.0
        warnings = [e for e in sink.events if e.name == "warning"]
        assert len(warnings) == 1
        fields = warnings[0].fields
        assert fields["kind"] == "run_truncated"
        assert fields["max_slots"] == 3
        assert (
            fields["pending"]
            + fields["running"]
            + fields["backlog"]
            + fields["arrivals_remaining"]
        ) > 0

    def test_completed_run_not_flagged(self, small_scenario):
        result = api.run_one(scenario=small_scenario, method="RCCR")
        assert not result.truncated
        assert "truncated" not in result.summary()

    def test_truncated_run_passes_invariant_checks(self, small_scenario):
        # Job conservation counts what was *submitted*, so stopping at
        # max_slots with work in flight is not an invariant violation.
        scenario = _small_max_slots(small_scenario, 3)
        report = api.check_run(scenario=scenario, methods=("RCCR",))
        assert report.ok, report.violations
        assert report.summaries["RCCR"].get("truncated") == 1.0


class TestStreamingSubmit:
    def test_past_slot_clamped_to_next(self, small_scenario):
        kernel = build_kernel(
            scenario=small_scenario, method="DRA", streaming=True
        )
        records = list(small_scenario.evaluation_trace())
        kernel.submit(records[0], slot=0)
        kernel.run_until_blocked()
        assert kernel.next_slot > 0
        arrival = kernel.submit(records[1], slot=0)
        assert arrival == kernel.next_slot

    def test_submit_to_finished_kernel_raises(self, small_scenario):
        kernel = build_kernel(
            scenario=small_scenario, method="DRA", streaming=False
        )
        kernel.run_until_blocked()
        assert kernel.finished
        record = next(iter(small_scenario.evaluation_trace()))
        with pytest.raises(RuntimeError):
            kernel.submit(record)


class TestSnapshot:
    def test_restores_are_independent_and_repeatable(self, small_scenario):
        kernel = build_kernel(
            scenario=small_scenario, method="DRA", streaming=False
        )
        for _ in range(10):
            kernel.advance()
        snapshot = kernel.snapshot()
        first = snapshot.restore()
        second = snapshot.restore()
        assert first is not second
        assert first.sim is not kernel.sim
        first.run_until_blocked()
        second.run_until_blocked()
        skip = {"allocation_latency_s"}
        a = {k: v for k, v in first.result().summary().items() if k not in skip}
        b = {k: v for k, v in second.result().summary().items() if k not in skip}
        assert a == b


class TestIdleSweepOffTheLanes:
    """The tick finds its quiescent VMs in the lanes: no VM is asked."""

    @pytest.mark.parametrize("method", METHOD_ORDER)
    @pytest.mark.parametrize("intensity", [None, 0.5])
    def test_histories_are_the_eager_rows(
        self, tiny_corp_config, predictor_cache, monkeypatch, method, intensity
    ):
        """3,000 VMs, 24 jobs: after the run every VM's history is, byte
        for byte, the row an eager slot appends (``eager_row``) for every
        tick it was online since its last crash."""

        def refuse(*args):
            raise AssertionError("the tick asked a VM whether it is quiescent")

        monkeypatch.setattr(VirtualMachine, "quiescent", property(refuse))
        monkeypatch.setattr(VirtualMachine, "_quiescent", refuse, raising=False)
        rows: dict[int, list[np.ndarray]] = {}
        crash = VirtualMachine.crash

        def crashing(vm):
            rows[vm.vm_id] = []  # a crash loses the history
            return crash(vm)

        monkeypatch.setattr(VirtualMachine, "crash", crashing)
        plan = None
        if intensity is not None:  # crashes often enough to land in 30 slots
            plan = api.build_fault_plan(
                seed=0, intensity=intensity, vm_crash_rate=0.3
            )
        scenario = cluster_scenario(
            24, seed=7, profile=ClusterProfile.hyperscale(n_pms=375)
        ).with_fault_plan(plan)
        kernel = build_kernel(
            scenario=scenario, method=method, corp_config=tiny_corp_config,
            predictor_cache=predictor_cache, streaming=False,
        )
        sim = kernel.sim
        place_jobs = sim.scheduler.place_jobs

        def placing(pending, slot):  # the VMs as the slot will run them
            placed = place_jobs(pending, slot)
            for vm in sim.vms:
                if vm.online:
                    rows.setdefault(vm.vm_id, []).append(eager_row(vm))
            return placed

        sim.scheduler.place_jobs = placing
        kernel.run_until_blocked()
        assert kernel.finished and sim.completed
        for vm in sim.vms:
            want = np.array(rows.get(vm.vm_id, [])).reshape(-1, NUM_RESOURCES)
            assert vm.unused_history().tobytes() == want.tobytes(), vm.vm_id


class TestOneBatchPerTick:
    """A tick executes its runnable VMs in one ``execute_slots`` call."""

    @pytest.mark.parametrize("method", METHOD_ORDER)
    @pytest.mark.parametrize("intensity", [None, 0.5])
    def test_the_tick_never_executes_one_vm(
        self, small_scenario, tiny_corp_config, predictor_cache, monkeypatch,
        method, intensity,
    ):
        def refuse(vm, slot):
            raise AssertionError("the tick executed a VM on its own")

        monkeypatch.setattr(VirtualMachine, "execute_slot", refuse)
        plan = None
        if intensity is not None:
            plan = api.build_fault_plan(seed=0, intensity=intensity)
        result = api.run_one(
            scenario=small_scenario.with_fault_plan(plan),
            method=method,
            corp_config=tiny_corp_config,
            predictor_cache=predictor_cache,
        )
        assert result.n_completed > 0

    def test_idle_vms_stay_out_of_the_batch(self, predictor_cache, monkeypatch):
        """200 VMs, 24 jobs: most VMs are quiescent at every tick.  No
        quiescent VM is handed to ``execute_slots``, and the VM rows it
        gets add up to the VM-slots executed before the batch existed
        (``sim.vm_slots_executed`` of the last per-VM tick), one call a
        tick."""
        from repro.cluster.machine import execute_slots

        batched: list[int] = []

        def counting(vms, slot):
            assert not any(vm.quiescent for vm in vms)
            batched.append(len(vms))
            return execute_slots(vms, slot)

        monkeypatch.setattr("repro.service.kernel.execute_slots", counting)
        scenario = cluster_scenario(
            24, seed=7, profile=ClusterProfile.hyperscale(n_pms=25)
        )
        results = api.compare(scenario=scenario, predictor_cache=predictor_cache)
        assert len(batched) == sum(r.n_slots for r in results.values())
        assert sum(batched) == 750


class TestOutcomesMapping:
    """``on_slot_end`` gets every live VM's outcome, keyed in VM order, as
    ``dict.fromkeys`` over the live ids laid them out; an executed VM's
    outcome is its batch row, a skipped one ``IDLE_OUTCOME``."""

    @pytest.mark.parametrize("method", ["DRA", "CloudScale"])
    def test_every_live_vm_in_order(self, small_scenario, method):
        from repro.cluster.machine import IDLE_OUTCOME

        plan = api.build_fault_plan(seed=0, intensity=0.5, vm_crash_rate=0.3)
        kernel = build_kernel(
            scenario=small_scenario.with_fault_plan(plan), method=method,
            streaming=False,
        )
        sim = kernel.sim
        on_slot_end = sim.scheduler.on_slot_end
        seen = {"offline": 0, "idle": 0, "executed": 0}

        def audited(slot, outcomes):
            live = sim.vm_ids[sim.lanes.online].tolist()
            assert list(outcomes) == live and len(outcomes) == len(live)
            assert [vm_id for vm_id, _ in outcomes.items()] == live
            assert not hasattr(outcomes, "__setitem__")
            for vm in sim.vms:
                if not vm.online:
                    assert vm.vm_id not in outcomes
                    with pytest.raises(KeyError):
                        outcomes[vm.vm_id]
                    seen["offline"] += 1
                    continue
                outcome = outcomes[vm.vm_id]
                if vm.pending_idle_slots:  # skipped this tick
                    assert outcome is IDLE_OUTCOME
                    seen["idle"] += 1
                    continue
                assert outcome.unused.tobytes() == vm._unused_history[-1].tobytes()
                assert not outcome.primary_demand.flags.writeable
                seen["executed"] += 1
            on_slot_end(slot, outcomes)

        sim.scheduler.on_slot_end = audited
        kernel.run_until_blocked()
        assert kernel.finished and all(seen.values()), seen
