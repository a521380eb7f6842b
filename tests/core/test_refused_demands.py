"""The overload screen may skip only what a full scan would find empty.

An attempt that finds no VM makes ``place_jobs`` count, for every unit
of the tick's queue, the live rows of that pool it fits
(``provisioning._Screen``).  A unit whose count is 0 is not offered to
``choose_vm``, and once both pools are counted the loop jumps over
entities whose every count is 0.  The counts are kept through
``consume`` alone, which is sound only while rows fall, so the fence
is: over arbitrary interleavings of placements, completions, crashes,
restores, capacity rescales and window refreshes, (a) every unit the
screen skips has an all-False ``feasible_mask`` at that moment, and (b)
a twin scheduler whose screen is patched off places the same jobs on
the same VMs with the same ``rng`` draws."""

import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import api
from repro.cluster.job import JobState
from repro.cluster.profiles import ClusterProfile
from repro.cluster.simulator import ClusterSimulator, SimulationConfig
from repro.core.provisioning import _Screen
from repro.core.vm_selection import CandidateSet
from repro.experiments.runner import default_schedulers, run_scenario
from repro.faults.plan import FaultPlan, VmCrash
from repro.obs import MemorySink, capture_events

from ..conftest import make_short_trace
from .test_pool_lifetime import new_job, start_window, tick
from .test_provisioning import StubScheduler


class MostMatchedStub(StubScheduler):
    """The stub with CORP's Eq. 22 chooser (no rng draws)."""

    def choose_vm(self, demand, candidates):
        return candidates.select_most_matched(demand, self.sim.max_vm_capacity())


def unscreened(base):
    """``base`` with the screen patched off: its pools are never counted,
    so every unit asks ``choose_vm`` and no entity is jumped over."""

    class NeverCounts(_Screen):
        def failed(self, opportunistic):
            pass

    class Unscreened(base):
        def _screen(self, entities, opportunistic):
            return NeverCounts(self, entities, self._primary_index, opportunistic)

    return Unscreened


def infeasible(screen, opportunistic, unit):
    row = screen.units[opportunistic][:, unit]
    return not screen.pools[opportunistic].feasible_mask(row).any()


def audited(base):
    """``base`` re-running the full scan for every unit its screen skips:
    units ``_try`` turns away and every unit of an entity jumped over."""

    class Checked(_Screen):
        def next_entity(self, start):
            found = super().next_entity(start)
            stop = len(self.entities) if found is None else found
            for e in range(start, stop):
                for k in (0, 1, 2) if self.packed[e] else (0,):
                    for opportunistic in (False, True):
                        if self.counts[opportunistic] is not None:
                            self.scheduler.skipped += 1
                            assert infeasible(self, opportunistic, self.unit(e, k))
            return found

    class Audited(base):
        skipped = 0

        def _screen(self, entities, opportunistic):
            return Checked(self, entities, self._primary_index, opportunistic)

        def _try(self, screen, e, k, slot, *, opportunistic):
            counts = screen.counts[opportunistic]
            if counts is not None and not counts[screen.unit(e, k)]:
                self.skipped += 1
                assert infeasible(screen, opportunistic, screen.unit(e, k))
            return super()._try(screen, e, k, slot, opportunistic=opportunistic)

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
        live, twin = audited(base)(**kw), unscreened(base)(**kw)
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


class TestTheListIsMinimal:
    """The screen keeps no list: it records exactly what a scan would say,
    and nothing at all while every scan finds a VM."""

    @given(
        st.lists(_DEMANDS, max_size=12),
        st.lists(st.tuples(st.integers(0, 2), _DEMANDS), max_size=6),
        st.booleans(),
    )
    def test_no_entry_covers_another(self, demands, consumed, riders):
        """Each unit is counted on its own, with no entry standing in for
        another: counts from one batch comparison, kept through
        ``consumed`` as rows fall, equal a fresh feasibility scan — in
        the primary pool and in a forecast pool whose empty VMs' rows are
        zero (counted apart)."""
        sched = StubScheduler(fraction=0.9)
        vms = start_window(sched, [None, (8.0, 32.0, 200.0), None]).vms
        if riders:
            pool = sched._opp_pool
        else:
            pool = CandidateSet.for_vms(vms)
            pool.refresh()
        units = np.array(demands, dtype=float).reshape(-1, 3)
        screen = _Screen(None, [], pool, pool)
        screen.units = (units.T.copy(), units.T.copy())
        screen.failed(riders)
        for row, amount in consumed:
            pool.consume(row, np.array(amount))
            screen.consumed(riders, row)
            want = [np.count_nonzero(pool.feasible_mask(u)) for u in units]
            assert screen.counts[riders].tolist() == want

    def test_a_feasible_scan_records_nothing(self, monkeypatch):
        """A tick in which every attempt finds a VM lays nothing out."""
        laid = []
        failed = _Screen.failed
        monkeypatch.setattr(
            _Screen, "failed", lambda self, o: laid.append(o) or failed(self, o)
        )
        sched = StubScheduler(fraction=0.9, window_slots=6)
        sim = start_window(sched, [(8.0, 32.0, 200.0)])
        jobs = [new_job((1.0, 2.0, 10.0), 5), new_job((1.0, 2.0, 10.0), 6)]
        assert tick(sim, 1, jobs) == jobs
        assert laid == []


class TestRisingRowsAreSeen:
    """A screen never outlives the tick it was taken in."""

    BIG = (12.0, 48.0, 500.0)

    def _full_cluster(self, base=StubScheduler):
        # Both VMs hold a reservation that leaves no room for BIG, and
        # the forecast slack (0.3 of it) is too small to lend.
        sched = base(fraction=0.3, window_slots=6)
        sim = start_window(sched, [(14.0, 60.0, 700.0), (14.0, 60.0, 700.0)])
        return sched, sim

    def test_refused_while_full(self, monkeypatch):
        sched, sim = self._full_cluster()
        asked = []
        choose = StubScheduler.choose_vm
        monkeypatch.setattr(
            StubScheduler, "choose_vm",
            lambda self, demand, pool: asked.append(demand) or choose(self, demand, pool),
        )
        assert tick(sim, 1, [new_job(self.BIG, 7)]) == []
        # The first BIG asks both pools; the screen turns the second away.
        asked.clear()
        assert tick(sim, 2, [new_job(self.BIG, 8), new_job(self.BIG, 9)]) == []
        assert len(asked) == 2

    def test_a_completion_between_two_ticks_is_seen(self):
        sched, sim = self._full_cluster()
        assert tick(sim, 1, [new_job(self.BIG, 7), new_job(self.BIG, 8)]) == []
        vm = sim.vms[1]
        disturb(vm, "complete")
        job = new_job(self.BIG, 9)
        assert tick(sim, 2, [job]) == [job]
        assert job in [p.job for p in vm.placements]

    def test_a_vm_restored_mid_window_is_seen(self):
        sched, sim = self._full_cluster()
        vm = sim.vms[1]
        vm.crash()
        # Down: the one live VM is full.
        assert tick(sim, 1, [new_job(self.BIG, 7), new_job(self.BIG, 8)]) == []
        vm.restore()
        job = new_job(self.BIG, 9)
        assert tick(sim, 2, [job]) == [job]
        assert [p.job for p in vm.placements] == [job]

    def test_a_restored_row_lends_to_a_zero_demand_again(self):
        """The opportunistic pool's only upward move: a voided row comes
        back online (as zeros), and a zero demand fits it once more."""
        sched = StubScheduler(fraction=0.9, window_slots=6)
        sim = start_window(sched, [(8.0, 32.0, 200.0)])
        vm = sim.vms[0]
        vm.crash()
        # No live row at all: both riders fail, the second screened away.
        zeros = [new_job((0.0, 0.0, 0.0), 5), new_job((0.0, 0.0, 0.0), 6)]
        assert tick(sim, 1, zeros) == []
        vm.restore()
        rider = new_job((0.0, 0.0, 0.0), 7)
        assert tick(sim, 2, [rider]) == [rider]
        assert rider.opportunistic

    @pytest.mark.parametrize("base", [StubScheduler, MostMatchedStub])
    def test_through_the_kernel(self, base):
        """Overload plus mid-window crashes through the real slot loop:
        the run with the screen and the run without emit the same
        placement events, and the screen did skip units."""
        profile = ClusterProfile.palmetto(n_pms=2, vms_per_pm=2)
        plan = FaultPlan(
            events=tuple(
                VmCrash(slot=s, vm_index=i, downtime_slots=2)
                for s, i in ((4, 0), (7, 1), (7, 2), (13, 3))
            )
        )
        trace = make_short_trace(n_jobs=80, seed=41, arrival_span_s=60.0)
        runs = []
        live = audited(base)(fraction=0.9, window_slots=6, seed=3)
        for sched in (live, unscreened(base)(fraction=0.9, window_slots=6, seed=3)):
            sim = ClusterSimulator(
                profile, sched, SimulationConfig(), fault_plan=plan
            )
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
        assert runs[0][0] and live.skipped


class TestTheRealSchedulers:
    @pytest.mark.parametrize("method", ["CORP", "RCCR", "DRA"])
    def test_same_placements_same_draws(self, method, predictor_cache):
        """CORP's packed pairs, Eq. 22 and admission rows, RCCR's and
        DRA's rng draws: an overloaded 4-VM run with the screen audits
        every skip and matches the twin without it, event for event."""
        scenario = replace(
            api.build_scenario(jobs=60, seed=7),
            profile=ClusterProfile.palmetto(n_pms=2, vms_per_pm=2),
        )
        factory = default_schedulers(
            history=scenario.history_trace(), predictor_cache=predictor_cache, seed=7
        )[method]
        runs, skipped = [], []
        for wrap in (audited, unscreened):
            sched = factory()
            sched.__class__ = wrap(type(sched))
            with capture_events(MemorySink()) as sink:
                result = run_scenario(scenario, sched)
            skipped.append(getattr(sched, "skipped", 0))
            runs.append((
                [
                    (e.fields["slot"], e.fields["job"], e.fields["vm"],
                     e.fields["opportunistic"], e.fields["partner"])
                    for e in sink.named("placement")
                ],
                sched.rng.bit_generator.state,
                {k: v for k, v in result.summary().items()
                 if k != "allocation_latency_s"},
            ))
        assert runs[0] == runs[1]
        assert runs[0][0] and skipped[0]
