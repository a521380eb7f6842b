"""The opportunistic pool lives for its window.

``_refresh_forecasts`` builds the pool once; riders consume it in place
and a VM seen offline loses its row.  ``ParentPools`` is the construction
this replaced, transcribed: a ``vm_id``-keyed dict decremented per
placement and a matrix rebuilt on every non-empty ``place_jobs`` call
from the dict's online members — plus the rule that a member seen
offline has its dict row zeroed.  Twin clusters driven by the same
interleaving must agree on every live row, every placement and every
``rng`` draw.
"""

import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.job import JobState
from repro.cluster.profiles import ClusterProfile
from repro.cluster.simulator import ClusterSimulator, SimulationConfig
from repro.core.vm_selection import CandidateSet
from repro.faults.plan import FaultPlan, VmCrash
from repro.obs import MemorySink, capture_events

from ..cluster.test_machine import place, running_job
from ..conftest import make_short_trace
from .test_provisioning import StubScheduler


class ParentPools(StubScheduler):
    """The dict + per-call rebuild the persistent pool replaced."""

    def _refresh_forecasts(self):
        super()._refresh_forecasts()
        pool = self._opp_pool
        self.available = {
            vm.vm_id: row.copy() for vm, row in zip(pool.vms, pool.matrix)
        }

    def on_slot_start(self, slot):
        super().on_slot_start(slot)
        for vm in self.vms:
            if not vm.online and vm.vm_id in self.available:
                self.available[vm.vm_id] = np.zeros(3)

    def place_jobs(self, pending, slot):
        if pending:
            members = [
                vm for vm in self.sim.vms
                if vm.online and vm.vm_id in self.available
            ]
            self._opp_pool = CandidateSet(
                members, np.array([self.available[vm.vm_id] for vm in members])
            )
        return super().place_jobs(pending, slot)

    def _place_entity(self, entity, choice, slot, *, opportunistic, **kw):
        super()._place_entity(entity, choice, slot, opportunistic=opportunistic, **kw)
        if opportunistic:
            self.available[choice.vm.vm_id] = np.clip(
                self.available[choice.vm.vm_id] - kw["demand"], 0.0, None
            )

    def live_rows(self):
        return [
            (vm.vm_id, self.available[vm.vm_id])
            for vm in self.vms
            if vm.online and vm.vm_id in self.available
        ]


def new_job(request, task_id):
    # Long enough that nothing completes on its own inside a test.
    return running_job(request=request, duration_s=4000.0, task_id=task_id)


def start_window(sched, primaries):
    """Bind to one VM per entry, reserve its primary, refresh at slot 0."""
    sim = ClusterSimulator(
        ClusterProfile.palmetto(n_pms=len(primaries), vms_per_pm=1),
        sched,
        SimulationConfig(),
    )
    for i, (vm, request) in enumerate(zip(sim.vms, primaries)):
        if request is not None:
            place(vm, new_job(request, task_id=i))
    sched.on_slot_start(0)
    return sim


def tick(sim, slot, pending=()):
    sim.current_slot = slot
    sim.scheduler.on_slot_start(slot)
    return sim.scheduler.place_jobs(tuple(pending), slot)


_PRIMARIES = st.sampled_from(
    (None, (4.0, 16.0, 100.0), (8.0, 32.0, 200.0), (12.0, 48.0, 300.0))
)
_RIDERS = st.sampled_from(
    ((0.0, 0.0, 0.0), (1.0, 2.0, 10.0), (2.0, 8.0, 40.0), (6.0, 20.0, 150.0))
)


class TestPoolMatchesTheParentConstruction:
    @settings(max_examples=60)
    @given(data=st.data())
    def test_same_rows_same_placements_same_draws(self, data):
        primaries = data.draw(st.lists(_PRIMARIES, min_size=1, max_size=5))
        n = len(primaries)
        seed = data.draw(st.integers(0, 2**16), label="seed")
        fraction = data.draw(st.sampled_from((0.3, 0.9)), label="fraction")
        live = StubScheduler(fraction=fraction, window_slots=64, seed=seed)
        parent = ParentPools(fraction=fraction, window_slots=64, seed=seed)
        sims = [start_window(live, primaries), start_window(parent, primaries)]
        task_ids = itertools.count(n)
        ops = data.draw(
            st.lists(
                st.one_of(
                    st.tuples(st.just("tick"), st.lists(_RIDERS, max_size=4)),
                    st.tuples(st.just("crash"), st.integers(0, n - 1)),
                    st.tuples(st.just("restore"), st.integers(0, n - 1)),
                ),
                min_size=1,
                max_size=12,
            ),
            label="ops",
        )
        slot = 0
        for op, arg in ops:
            if op == "tick":
                slot += 1
                ids = [next(task_ids) for _ in arg]
                landed = []
                for sim in sims:
                    pending = [new_job(r, i) for r, i in zip(arg, ids)]
                    placed = tick(sim, slot, pending)
                    landed.append(
                        [(j.record.task_id, j.opportunistic) for j in placed]
                        + [
                            (p.job.record.task_id, vm.vm_id)
                            for vm in sim.vms
                            for p in vm.placements
                        ]
                    )
                assert landed[0] == landed[1]
            else:
                for sim in sims:
                    vm = sim.vms[arg]
                    if op == "crash" and vm.online:
                        vm.crash()
                    elif op == "restore" and not vm.online:
                        vm.restore()
                continue
            got = [(vm.vm_id, a) for vm, a in live._opp_pool]
            want = parent.live_rows()
            assert [i for i, _ in got] == [i for i, _ in want]
            assert np.array_equal(
                np.array([row for _, row in got]),
                np.array([row for _, row in want]),
            )
            assert len(live._opp_pool) == len(want)
            assert live.rng.bit_generator.state == parent.rng.bit_generator.state


class TestCrashVoidsTheRow:
    """Slack that died with its VM is not lent out after the restart."""

    RIDER = (2.0, 8.0, 40.0)

    def _one_lender(self):
        # Only vm 0 holds a reservation, so only its row can fit a rider.
        sched = StubScheduler(fraction=0.9, window_slots=6)
        sim = start_window(sched, [(8.0, 32.0, 200.0), None])
        return sched, sim

    def test_control_the_row_lends(self):
        sched, sim = self._one_lender()
        rider = new_job(self.RIDER, task_id=9)
        assert tick(sim, 1, [rider]) == [rider]
        assert rider.opportunistic and sim.vms[0].placements[-1].job is rider

    def test_restored_vm_has_no_slack_until_the_next_refresh(self):
        sched, sim = self._one_lender()
        lender = sim.vms[0]
        lender.crash()
        tick(sim, 1)  # nothing pending while it is down
        lender.restore()
        rider = new_job(self.RIDER, task_id=9)
        assert tick(sim, 2, [rider]) == [rider]
        assert not rider.opportunistic  # took a reservation instead
        pool = sched._opp_pool
        assert not (pool.matrix[pool.vms.index(lender)] > 1e-9).any()
        # The next window forecasts the restarted VM afresh.
        tick(sim, 6)
        assert lender in sched._opp_pool.vms

    def test_early_completion_keeps_the_row(self):
        sched, sim = self._one_lender()
        lender = sim.vms[0]
        lender.placements[0].job.state = JobState.COMPLETED
        lender.remove_completed()
        tick(sim, 1)
        rider = new_job(self.RIDER, task_id=9)
        assert tick(sim, 2, [rider]) == [rider]
        assert rider.opportunistic and rider in [p.job for p in lender.placements]

    def test_through_the_kernel(self):
        """Every VM crashes at slot 7 for 2 slots, one slot into a
        window: nothing rides on a restarted VM before the slot-12
        refresh (at the parent commit riders did, in slots 9-11)."""
        profile = ClusterProfile.palmetto(n_pms=4, vms_per_pm=2)
        plan = FaultPlan(
            events=tuple(
                VmCrash(slot=7, vm_index=i, downtime_slots=2) for i in range(8)
            )
        )
        sched = StubScheduler(fraction=0.9, window_slots=6)
        sim = ClusterSimulator(
            profile, sched, SimulationConfig(), fault_plan=plan
        )
        with capture_events(MemorySink()) as sink:
            sim.run(make_short_trace(n_jobs=60, seed=41, arrival_span_s=200.0))
        riders = [
            e.fields["slot"]
            for e in sink.named("placement")
            if e.fields["opportunistic"]
        ]
        assert [s for s in riders if s < 7] and [s for s in riders if s >= 12]
        assert not [s for s in riders if 7 <= s < 12]
