"""A pool may refuse only what a full scan would refuse.

``CandidateSet`` remembers the demands its selectors found no live row
for and ``_try`` skips ``choose_vm`` for any demand at least as large.
That is sound only while rows fall, so the fence is: over arbitrary
interleavings of placements, completions, crashes, restores, capacity
rescales and window refreshes, (a) whatever a pool refuses — each time
``_try`` consults it, and after every tick — has an all-False
``feasible_mask`` at that moment, and (b) a twin scheduler whose pools
forget every refusal before each attempt places the same jobs on the
same VMs with the same ``rng`` draws.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.job import JobState
from repro.cluster.profiles import ClusterProfile
from repro.cluster.resources import ResourceVector
from repro.cluster.simulator import ClusterSimulator, SimulationConfig
from repro.core.vm_selection import CandidateSet
from repro.faults.plan import FaultPlan, VmCrash
from repro.obs import MemorySink, capture_events

from ..conftest import make_short_trace
from .test_pool_lifetime import new_job, start_window, tick
from .test_provisioning import StubScheduler


class MostMatchedStub(StubScheduler):
    """The stub with CORP's Eq. 22 chooser (no rng draws)."""

    def choose_vm(self, demand, candidates):
        return candidates.select_most_matched(demand, self.sim.max_vm_capacity())


def forgetful(base):
    """``base`` with the refused-demand list forced empty."""

    class Forgetful(base):
        def _try(self, entity, slot, candidates, demand, *, opportunistic):
            candidates.forget_refusals()
            return super()._try(
                entity, slot, candidates, demand, opportunistic=opportunistic
            )

    return Forgetful


def audited(base):
    """``base`` re-running the full scan each time its list answers."""

    class Audited(base):
        skipped = 0

        def _try(self, entity, slot, candidates, demand, *, opportunistic):
            if candidates.refuses(demand):
                self.skipped += 1
                assert not candidates.feasible_mask(demand).any()
            return super()._try(
                entity, slot, candidates, demand, opportunistic=opportunistic
            )

    return Audited


#: Demands from "fits an empty VM twice" to "fits nothing", zero included
#: (a zero demand fits a restored VM's voided row and no offline one).
DEMANDS = (
    (0.0, 0.0, 0.0), (1.0, 2.0, 10.0), (6.0, 20.0, 150.0), (2.0, 40.0, 40.0),
    (9.0, 8.0, 400.0), (12.0, 48.0, 500.0), (16.0, 64.0, 720.0),
    (17.0, 1.0, 1.0),
)
_DEMANDS = st.sampled_from(DEMANDS)
_PRIMARIES = st.sampled_from((None, (8.0, 32.0, 200.0), (14.0, 60.0, 700.0)))


def pools(sched):
    return [p for p in (sched._opp_pool, sched._primary_index) if p is not None]


def assert_refusals_are_infeasible(sched):
    for pool in pools(sched):
        for row in list(pool._refused) + list(DEMANDS):
            demand = ResourceVector(row)
            if pool.refuses(demand):
                assert not pool.feasible_mask(demand).any(), (row, pool.matrix)


def disturb(vm, op):
    if op == "crash" and vm.online:
        vm.crash()
    elif op == "restore" and not vm.online:
        vm.restore()
    elif op == "complete" and vm.placements:
        vm.placements[0].job.state = JobState.COMPLETED
        vm.remove_completed()
    elif op == "shrink":
        vm.set_capacity_scale(0.5)
    elif op == "regrow":
        vm.set_capacity_scale(1.0)


def landed(sim):
    return [
        (p.job.record.task_id, vm.vm_id, p.opportunistic)
        for vm in sim.vms
        for p in vm.placements
    ]


class TestRefusalsUnderInterleavings:
    @settings(max_examples=120)
    @given(data=st.data())
    def test_sound_and_invisible(self, data):
        primaries = data.draw(st.lists(_PRIMARIES, min_size=1, max_size=4))
        n = len(primaries)
        seed = data.draw(st.integers(0, 2**16), label="seed")
        base = data.draw(st.sampled_from((StubScheduler, MostMatchedStub)))
        kw = dict(fraction=0.9, window_slots=4, seed=seed)
        live, twin = audited(base)(**kw), forgetful(base)(**kw)
        sims = [start_window(live, primaries), start_window(twin, primaries)]
        task_ids = itertools.count(n)
        vm_index = st.integers(0, n - 1)
        ops = data.draw(
            st.lists(
                st.one_of(
                    st.tuples(st.just("tick"), st.lists(_DEMANDS, max_size=5)),
                    st.tuples(
                        st.sampled_from(
                            ("crash", "restore", "complete", "shrink", "regrow")
                        ),
                        vm_index,
                    ),
                ),
                min_size=1,
                max_size=14,
            ),
            label="ops",
        )
        slot = 0
        for op, arg in ops:
            if op != "tick":
                # Between ticks a list may be stale, as the primary
                # index itself is: ``place_jobs`` syncs both first.
                for sim in sims:
                    disturb(sim.vms[arg], op)
                continue
            slot += 1
            ids = [next(task_ids) for _ in arg]
            placed = [
                [j.record.task_id for j in tick(
                    sim, slot, [new_job(r, i) for r, i in zip(arg, ids)]
                )]
                for sim in sims
            ]
            assert placed[0] == placed[1]
            assert landed(sims[0]) == landed(sims[1])
            assert live.rng.bit_generator.state == twin.rng.bit_generator.state
            assert_refusals_are_infeasible(live)


class TestTheListIsMinimal:
    @given(st.lists(_DEMANDS, max_size=12))
    def test_no_entry_covers_another(self, demands):
        pool = CandidateSet([], ())
        rng = np.random.default_rng(0)
        for row in demands:
            assert pool.select_random_feasible(ResourceVector(row), rng) is None
        kept = pool._refused
        assert {tuple(r) for r in kept} <= set(demands)
        for a, b in itertools.permutations(kept, 2):
            assert not all(x >= y for x, y in zip(a, b))
        for row in demands:
            assert pool.refuses(ResourceVector(row))

    def test_a_feasible_scan_records_nothing(self):
        sched = StubScheduler(fraction=0.9, window_slots=6)
        sim = start_window(sched, [(8.0, 32.0, 200.0)])
        tick(sim, 1, [new_job((1.0, 2.0, 10.0), 5)])
        assert all(not p._refused for p in pools(sched))


class TestRisingRowsAreSeen:
    """The list never outlives the state it was learnt from."""

    BIG = (12.0, 48.0, 500.0)

    def _full_cluster(self, base=StubScheduler):
        # Both VMs hold a reservation that leaves no room for BIG, and
        # the forecast slack (0.3 of it) is too small to lend.
        sched = base(fraction=0.3, window_slots=6)
        sim = start_window(sched, [(14.0, 60.0, 700.0), (14.0, 60.0, 700.0)])
        return sched, sim

    def test_refused_while_full(self):
        sched, sim = self._full_cluster()
        assert tick(sim, 1, [new_job(self.BIG, 7)]) == []
        assert sched._primary_index.refuses(ResourceVector(self.BIG))
        # ...and the next tick, nothing having changed, skips the scan.
        assert tick(sim, 2, [new_job(self.BIG, 8)]) == []

    def test_a_completion_between_two_ticks_is_seen(self):
        sched, sim = self._full_cluster()
        assert tick(sim, 1, [new_job(self.BIG, 7)]) == []
        vm = sim.vms[1]
        disturb(vm, "complete")
        job = new_job(self.BIG, 8)
        assert tick(sim, 2, [job]) == [job]
        assert job in [p.job for p in vm.placements]

    def test_a_vm_restored_mid_window_is_seen(self):
        sched, sim = self._full_cluster()
        vm = sim.vms[1]
        vm.crash()
        # Down: the one live VM is full.
        assert tick(sim, 1, [new_job(self.BIG, 7)]) == []
        vm.restore()
        job = new_job(self.BIG, 8)
        assert tick(sim, 2, [job]) == [job]
        assert [p.job for p in vm.placements] == [job]

    def test_a_restored_row_lends_to_a_zero_demand_again(self):
        """The opportunistic pool's only upward move: a voided row comes
        back online (as zeros), and a zero demand fits it once more."""
        sched = StubScheduler(fraction=0.9, window_slots=6)
        sim = start_window(sched, [(8.0, 32.0, 200.0)])
        vm = sim.vms[0]
        vm.crash()
        zero = ResourceVector.zeros()
        tick(sim, 1, [new_job((0.0, 0.0, 0.0), 5)])
        assert sched._opp_pool.refuses(zero)  # no live row at all
        vm.restore()
        rider = new_job((0.0, 0.0, 0.0), 6)
        assert tick(sim, 2, [rider]) == [rider]
        assert rider.opportunistic

    @pytest.mark.parametrize("base", [StubScheduler, MostMatchedStub])
    def test_through_the_kernel(self, base):
        """Overload plus mid-window crashes through the real slot loop:
        the run with the list and the run without emit the same
        placement events, and the list did skip attempts."""
        profile = ClusterProfile.palmetto(n_pms=2, vms_per_pm=2)
        plan = FaultPlan(
            events=tuple(
                VmCrash(slot=s, vm_index=i, downtime_slots=2)
                for s, i in ((4, 0), (7, 1), (7, 2), (13, 3))
            )
        )
        trace = make_short_trace(n_jobs=80, seed=41, arrival_span_s=60.0)
        runs = []
        skipped = []
        for cls in (base, forgetful(base)):
            sched = cls(fraction=0.9, window_slots=6, seed=3)
            refuses = CandidateSet.refuses

            def counting(pool, demand):
                answer = refuses(pool, demand)
                skipped.append(answer)
                return answer

            sim = ClusterSimulator(
                profile, sched, SimulationConfig(), fault_plan=plan
            )
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(CandidateSet, "refuses", counting)
                with capture_events(MemorySink()) as sink:
                    result = sim.run(trace)
            runs.append(
                (
                    [
                        (e.fields["slot"], e.fields["job"], e.fields["vm"],
                         e.fields["opportunistic"])
                        for e in sink.named("placement")
                    ],
                    sched.rng.bit_generator.state,
                    {k: v for k, v in result.summary().items()
                     if k != "allocation_latency_s"},
                )
            )
        assert runs[0] == runs[1]
        assert runs[0][0] and any(skipped)
