"""The asyncio allocation service: submit / stream / drain lifecycle.

No async test plugin is assumed: each test drives its own event loop
with ``asyncio.run``.
"""

import asyncio

import pytest

from repro import api
from repro.service import PlacementUpdate, open_service

_SKIP = {"allocation_latency_s"}


def _comparable(summary):
    return {k: v for k, v in summary.items() if k not in _SKIP}


class TestLifecycle:
    def test_submit_stream_drain(self, small_scenario):
        async def go():
            updates = []

            async def consume(svc):
                async for update in svc.placements():
                    updates.append(update)

            async with open_service(
                scenario=small_scenario, method="DRA"
            ) as svc:
                consumer = asyncio.ensure_future(consume(svc))
                n = await svc.submit_trace(small_scenario.evaluation_trace())
                result = await svc.drain()
                await consumer
            return n, updates, result

        n, updates, result = asyncio.run(go())
        assert n == small_scenario.n_jobs
        assert result.n_submitted == n
        # every non-rejected job produced exactly one streamed placement
        assert len(updates) == n - result.n_rejected
        assert all(isinstance(u, PlacementUpdate) for u in updates)
        assert all(u.vm_id is not None for u in updates)
        assert all(u.method == "DRA" for u in updates)
        slots = [u.slot for u in updates]
        assert slots == sorted(slots)

    def test_drain_matches_batch_run(self, small_scenario):
        # seed feeds the scheduler factories on both paths; they must
        # match for the randomized baselines (DRA) to be comparable
        batch = api.run_one(scenario=small_scenario, method="DRA", seed=0)

        async def go():
            async with open_service(
                scenario=small_scenario, method="DRA", seed=0
            ) as svc:
                await svc.submit_trace(small_scenario.evaluation_trace())
                return await svc.drain()

        result = asyncio.run(go())
        assert _comparable(result.summary()) == _comparable(batch.summary())

    def test_drain_idempotent_and_submit_after_drain_raises(
        self, small_scenario
    ):
        async def go():
            records = list(small_scenario.evaluation_trace())
            async with open_service(
                scenario=small_scenario, method="DRA"
            ) as svc:
                for record in records[:-1]:
                    await svc.submit(record)
                first = await svc.drain()
                second = await svc.drain()
                assert second is first
                with pytest.raises(RuntimeError):
                    await svc.submit(records[-1])
                assert svc.result is first

        asyncio.run(go())

    def test_not_started_raises(self, small_scenario):
        svc = open_service(scenario=small_scenario, method="DRA")
        with pytest.raises(RuntimeError):
            svc.kernel


class TestRepeatedJobIds:
    @pytest.mark.parametrize("method", ["CORP", "RCCR", "CloudScale", "DRA"])
    def test_a_record_submitted_twice_runs_twice(
        self, method, small_scenario, tiny_corp_config, predictor_cache
    ):
        """Two pending jobs share an id: CORP's packer places one of them
        a tick ("using any retires them all"), and the kernel must keep
        the other queued, not drop both from ``pending``."""
        records = small_scenario.evaluation_trace().records

        async def go():
            async with open_service(
                scenario=small_scenario, method=method,
                corp_config=tiny_corp_config, predictor_cache=predictor_cache,
            ) as svc:
                for record in (*records[:4], records[0]):
                    await svc.submit(record)
                return await svc.drain()

        result = asyncio.run(go())
        assert result.n_submitted == 5
        assert result.n_completed == 5
        assert result.all_done and not result.truncated


class TestStreaming:
    def test_late_subscriber_replays_history(self, small_scenario):
        async def go():
            async with open_service(
                scenario=small_scenario, method="DRA"
            ) as svc:
                await svc.submit_trace(small_scenario.evaluation_trace())
                result = await svc.drain()
                # subscribed only after the run fully drained
                replayed = [u async for u in svc.placements()]
                assert replayed == list(svc.history)
                assert len(replayed) == result.n_submitted - result.n_rejected

        asyncio.run(go())

    def test_no_replay_stream_starts_empty_after_drain(self, small_scenario):
        async def go():
            async with open_service(
                scenario=small_scenario, method="DRA"
            ) as svc:
                await svc.submit_trace(small_scenario.evaluation_trace())
                await svc.drain()
                late = [u async for u in svc.placements(replay=False)]
                assert late == []

        asyncio.run(go())

    def test_two_subscribers_see_the_same_stream(self, small_scenario):
        async def go():
            seen = ([], [])

            async def consume(svc, bucket):
                async for update in svc.placements():
                    bucket.append(update)

            async with open_service(
                scenario=small_scenario, method="DRA"
            ) as svc:
                tasks = [
                    asyncio.ensure_future(consume(svc, bucket))
                    for bucket in seen
                ]
                await svc.submit_trace(small_scenario.evaluation_trace())
                await svc.drain()
                await asyncio.gather(*tasks)
            assert seen[0] == seen[1] != []

        asyncio.run(go())


class TestStreamAfterEvictions:
    def test_a_replaced_job_streams_the_vm_it_runs_on(
        self, small_scenario, monkeypatch
    ):
        """Crashes and transient failures evict running jobs, which are
        placed again elsewhere: each placement streams the VM that took
        it, as ``add_placement`` saw it, in decision order."""
        from repro.cluster.machine import VirtualMachine
        from repro.faults.plan import FaultPlan, JobFailure, RetryPolicy, VmCrash

        landed = []
        add_placement = VirtualMachine.add_placement

        def recording(vm, placement):
            add_placement(vm, placement)
            landed.append((placement.job.job_id, vm.vm_id))

        monkeypatch.setattr(VirtualMachine, "add_placement", recording)
        plan = FaultPlan(
            events=tuple(VmCrash(slot=3, vm_index=vm, downtime_slots=20) for vm in range(4))
            + tuple(JobFailure(slot=slot, vm_index=vm) for slot in (5, 8) for vm in (4, 5)),
            retry=RetryPolicy(max_retries=3, backoff_base_slots=1),
        )

        async def go():
            async with open_service(
                scenario=small_scenario.with_fault_plan(plan), method="DRA"
            ) as svc:
                await svc.submit_trace(small_scenario.evaluation_trace())
                result = await svc.drain()
                return list(svc.history), result

        history, result = asyncio.run(go())
        assert result.resilience["evictions"] > 0
        assert [(u.job_id, u.vm_id) for u in history] == landed
        vms_of: dict[int, set[int]] = {}
        for job_id, vm_id in landed:
            vms_of.setdefault(job_id, set()).add(vm_id)
        assert any(len(vms) > 1 for vms in vms_of.values())


class TestAutoAdvance:
    def test_auto_advance_completes(self, small_scenario):
        async def go():
            async with open_service(
                scenario=small_scenario, method="DRA", auto_advance=True
            ) as svc:
                await svc.submit_trace(small_scenario.evaluation_trace())
                # let the background pump make progress on its own
                for _ in range(50):
                    await asyncio.sleep(0)
                assert svc.kernel.executed_slots > 0
                return await svc.drain()

        result = asyncio.run(go())
        assert result.n_submitted == small_scenario.n_jobs


class TestOpenService:
    def test_unknown_testbed_rejected(self):
        with pytest.raises(ValueError):
            open_service(testbed="borg")

    def test_unknown_method_rejected(self, small_scenario):
        svc = open_service(scenario=small_scenario, method="Borg")
        with pytest.raises(ValueError):
            asyncio.run(svc.start())

    def test_fault_plan_attached(self, small_scenario):
        plan = api.build_fault_plan(seed=0, intensity=0.5)

        async def go():
            async with open_service(
                scenario=small_scenario, method="RCCR", fault_plan=plan
            ) as svc:
                await svc.submit_trace(small_scenario.evaluation_trace())
                return await svc.drain()

        result = asyncio.run(go())
        assert result.resilience is not None

    def test_update_as_dict(self):
        update = PlacementUpdate(
            slot=3, job_id=7, vm_id=1, opportunistic=True, method="CORP"
        )
        assert update.as_dict() == {
            "slot": 3,
            "job": 7,
            "vm": 1,
            "opportunistic": True,
            "method": "CORP",
        }


class TestSnapshotUnderService:
    def test_snapshot_with_placements_hook_attached(self, small_scenario):
        """The daemon's hook reaches asyncio state deepcopy cannot copy."""

        async def go():
            async def consume(svc):
                async for _ in svc.placements():
                    pass

            async with api.open_service(
                scenario=small_scenario, method="DRA", seed=0
            ) as svc:
                consumer = asyncio.ensure_future(consume(svc))
                await svc.submit_trace(small_scenario.evaluation_trace())
                await asyncio.sleep(0)  # the subscriber now waits on a Future
                kernel = svc.kernel
                for _ in range(10):
                    kernel.advance()
                hook = kernel.on_placements
                assert hook is not None
                snapshot = kernel.snapshot()
                assert kernel.on_placements is hook  # live kernel untouched
                standby = snapshot.restore()
                assert standby.on_placements is None
                standby.run_until_blocked()
                live = await svc.drain()
                await consumer
                return live.summary(), standby.result().summary()

        live, restored = asyncio.run(go())
        assert _comparable(live) == _comparable(restored)
