"""The flat, version-tracked availability index against the scalar oracle.

:class:`ShardedCandidateIndex` is :class:`CandidateSet` under its v1.7
name: one matrix kept in sync with its VMs (rows, a liveness lane, a
version lane).  The contract under test is *bit-identity* with the scalar reference loop the
differential checker re-derives placements with, over the online rows
only: same Eq. 22 winner (tie-break included), same random-feasible
choice from the same rng stream position, and rows that always equal a
freshly built index after any sequence of VM mutations.  Capacities and
demands are drawn from a small grid on purpose so exact volume ties are
common and the tie-break path is exercised, not just the strict minimum.
"""

import copy
import importlib
import math
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.job import JobState
from repro.cluster.resources import fits_within
from repro.cluster.shards import _FIT_ATOL, ScaleConfig, ShardedCandidateIndex
from repro.core.provisioning import ProvisioningSchedulerBase
from repro.core.vm_selection import (
    CandidateSet,
    select_most_matched as scalar_select_most_matched,
    select_random_feasible as scalar_select_random_feasible,
    tie_window,
)

from .test_machine import make_vm, place, running_job

# Small grids make exact ties likely (same request on several VMs).  The
# demand grid spans the all-zero vector (fits every live row) up to 20,
# larger than every capacity (fits none).
_CAP_GRID = (2.0, 4.0, 8.0, 16.0)
_DEMAND_GRID = (0.0, 1.0, 2.0, 3.0, 5.0, 9.0, 20.0)

capacity_triples = st.tuples(*[st.sampled_from(_CAP_GRID)] * 3)
demand_triples = st.tuples(*[st.sampled_from(_DEMAND_GRID)] * 3)

#: The benchmark harness; its modules import each other by bare name.
LEDGER = Path(__file__).resolve().parents[2] / "benchmarks" / "ledger"
_LEDGER_MODULES = ("layers", "probes", "tracer")


def _ledger_targets() -> list[str]:
    """Every dotted path in ``layers.LAYERS``, read from the harness
    itself (not a hand-kept copy), its bare-name modules unloaded after."""
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(LEDGER))
        import layers
    for name in _LEDGER_MODULES:
        sys.modules.pop(name, None)
    return list(dict.fromkeys(layer.target for layer in layers.LAYERS))


LEDGER_TARGETS = _ledger_targets()


def _online_pairs(vms):
    """The scalar oracle's input, read off the VMs (not off the index)."""
    return [(vm, vm.unallocated()) for vm in vms if vm.online]


def _same_pairs(got, want):
    """Two ``(vm, row)`` lists name the same VMs with equal rows."""
    got, want = list(got), list(want)
    return len(got) == len(want) and all(
        a is b and np.array_equal(x, y) for (a, x), (b, y) in zip(got, want)
    )


def _same_row(got, want):
    """Equal rows, or both None."""
    return got is None and want is None or np.array_equal(got, want)


def _chosen(pool, choice, feasible):
    """The VM a selector's ``Choice`` names, once its row is seen to hold
    that VM, live, and its feasible-set size to be ``feasible``."""
    if choice is None:
        return None
    assert pool.vms[choice.row] is choice.vm and pool.online[choice.row]
    assert choice.feasible == feasible
    return choice.vm


class TestScaleConfig:
    def test_defaults(self):
        cfg = ScaleConfig()
        assert (cfg.shards, cfg.chunk_size) == (1, 4096)

    @pytest.mark.parametrize("kwargs", [
        {"shards": 0},
        {"shards": -3},
        {"chunk_size": 0},
    ])
    def test_rejects_bad_knobs(self, kwargs):
        with pytest.raises(ValueError):
            ScaleConfig(**kwargs)

    def test_frozen(self):
        with pytest.raises(AttributeError):
            ScaleConfig().shards = 2

    def test_shards_above_one_is_deprecated_everywhere(self):
        with pytest.warns(DeprecationWarning, match="removed in v1.10"):
            assert ScaleConfig(shards=8).shards == 8
        with pytest.warns(DeprecationWarning, match="removed in v1.10"):
            ShardedCandidateIndex.for_vms([make_vm()], shards=8)
        with pytest.raises(ValueError):
            ShardedCandidateIndex.for_vms([make_vm()], shards=0)


class TestOnePoolClass:
    def test_both_names_are_the_one_class(self):
        assert ShardedCandidateIndex is CandidateSet

    @pytest.mark.parametrize("target", LEDGER_TARGETS)
    def test_every_dotted_path_the_ledger_names_resolves(self, target):
        """Every layer the traced ledger pass wraps: an entry point that
        moved would come out of the pass as ``null`` metrics."""
        module, _, path = target.partition(":")
        obj = importlib.import_module(module)
        for part in path.split("."):
            obj = getattr(obj, part)
        assert callable(obj)

    def test_the_ledger_index_probe_runs(self, monkeypatch):
        """The ledger's 10k-row select probe reports ``None`` on an
        ``ImportError`` / ``AttributeError`` instead of failing its run:
        it must run here, on a 32-VM cluster."""
        monkeypatch.syspath_prepend(str(LEDGER))
        import probes

        try:
            micros = probes._index_select_us(7, 4, 1)
        finally:
            for name in _LEDGER_MODULES:
                sys.modules.pop(name, None)
        assert isinstance(micros, float) and math.isfinite(micros) and micros > 0


class TestShardedEquivalence:
    @settings(max_examples=60)
    @given(data=st.data())
    def test_matches_flat_set_and_scalar_oracle(self, data):
        """Random rows, a random offline subset: every choice is the
        scalar oracle's over the online rows, consume included."""
        n = data.draw(st.integers(1, 8), label="n_vms")
        caps = data.draw(
            st.lists(capacity_triples, min_size=n, max_size=n), label="caps"
        )
        vms = [make_vm(capacity=c, vm_id=i) for i, c in enumerate(caps)]
        offline = data.draw(
            st.sets(st.integers(0, n - 1), max_size=n), label="offline"
        )
        for i in offline:
            vms[i].crash()
        index = ShardedCandidateIndex.for_vms(vms)
        assert index.refresh() == n
        # The oracle's rows are tracked by hand from here on: consume()
        # changes index rows without touching the VMs.
        pairs = _online_pairs(vms)
        reference = np.array(caps).max(axis=0)
        seed = data.draw(st.integers(0, 2**16), label="seed")
        for _ in range(data.draw(st.integers(1, 8), label="n_ops")):
            demand = np.array(data.draw(demand_triples, label="demand"))
            assert len(index) == len(pairs) == n - len(offline)
            assert _same_pairs(index, pairs)
            feasible = sum(fits_within(demand, avail) for _, avail in pairs)
            choice = index.select_most_matched(demand, reference)
            pick = _chosen(index, choice, feasible)
            assert pick is scalar_select_most_matched(demand, pairs, reference)
            assert pick is None or pick.online  # even for the zero demand
            rng_i = np.random.default_rng(seed)
            rng_s = np.random.default_rng(seed)
            drawn = _chosen(index, index.select_random_feasible(demand, rng_i), feasible)
            assert drawn is scalar_select_random_feasible(demand, pairs, rng_s)
            assert drawn is None or drawn.online
            # Exactly the oracle's one rng.integers draw (none if nothing
            # fits): the streams stay aligned.
            assert rng_i.bit_generator.state == rng_s.bit_generator.state
            if pick is not None:
                index.consume(choice.row, demand)
                pairs = [
                    (vm, np.clip(avail - demand, 0.0, None) if vm is pick else avail)
                    for vm, avail in pairs
                ]
        expected = {vm.vm_id: avail for vm, avail in pairs}
        live = {vm.vm_id: avail for vm, avail in index}
        for vm in vms:
            assert _same_row(live.get(vm.vm_id), expected.get(vm.vm_id))

    @settings(max_examples=40)
    @given(data=st.data())
    def test_persistent_index_tracks_vm_state(self, data):
        """refresh() after place/complete/crash/restore/rescale leaves
        every row equal to a freshly built index, and is then idle.  A
        ``deepcopy`` of VMs and index together carries on as one: the
        copies' mutations reach the copied index."""
        n = data.draw(st.integers(1, 6), label="n_vms")
        caps = data.draw(
            st.lists(capacity_triples, min_size=n, max_size=n), label="caps"
        )
        vms = [make_vm(capacity=c, vm_id=i) for i, c in enumerate(caps)]
        index = ShardedCandidateIndex.for_vms(vms)
        reference = np.array(caps).max(axis=0)
        task_id = 0
        for _ in range(data.draw(st.integers(1, 10), label="n_ops")):
            op = data.draw(
                st.sampled_from(
                    ("place", "complete", "crash", "restore", "rescale",
                     "deepcopy")
                ),
                label="op",
            )
            vm = vms[data.draw(st.integers(0, n - 1), label="vm")]
            if op == "place" and vm.online:
                job = running_job(
                    request=data.draw(demand_triples, label="request"),
                    task_id=task_id,
                )
                task_id += 1
                if vm.can_reserve(job.requested):
                    place(vm, job)
            elif op == "complete" and vm.placements:
                vm.placements[0].job.state = JobState.COMPLETED
                vm.remove_completed()
            elif op == "crash" and vm.online:
                vm.crash()
            elif op == "restore" and not vm.online:
                vm.restore()
            elif op == "rescale":
                vm.set_capacity_scale(
                    data.draw(st.sampled_from((0.25, 0.5, 1.0)), label="s")
                )
            elif op == "deepcopy":
                vms, index = copy.deepcopy((vms, index))
            index.refresh()
            assert index.refresh() == 0
            fresh = ShardedCandidateIndex.for_vms(vms)
            fresh.refresh()
            pairs = _online_pairs(vms)
            assert _same_pairs(index, fresh) and _same_pairs(index, pairs)
            demand = np.array(data.draw(demand_triples, label="demand"))
            feasible = sum(fits_within(demand, avail) for _, avail in pairs)
            assert _chosen(index, index.select_most_matched(demand, reference), feasible) \
                is scalar_select_most_matched(demand, pairs, reference)
            live = {vm.vm_id: avail for vm, avail in index}
            for v in vms:
                if v.online:
                    assert np.array_equal(live[v.vm_id], v.unallocated())
                else:
                    assert v.vm_id not in live

    def test_second_refresh_touches_nothing_when_idle(self):
        vms = [make_vm(vm_id=i) for i in range(6)]
        index = ShardedCandidateIndex.for_vms(vms)
        assert index.refresh() == 6  # first sync fills every row
        assert index.refresh() == 0  # nothing moved
        place(vms[0], running_job(request=(1, 1, 1)))
        assert index.refresh() == 1  # only vm 0's row rewritten


#: Entries the column scan must read exactly as the row-wise reduction.
_EDGES = (np.nan, np.inf, -np.inf, 0.0, -0.0, 1.0, 2.0, 8.0)


def _boundary(need: float) -> list[float]:
    """``need - atol`` and its two float neighbours: ``need <= x + atol``
    flips somewhere among them."""
    at = need - _FIT_ATOL
    return [at, float(np.nextafter(at, -np.inf)), float(np.nextafter(at, np.inf))]


def _draw_pool(data, demand, edges):
    """A pool of 0..8 rows, entries from ``edges`` or the demand's
    boundary in their column, a random offline subset."""
    n = data.draw(st.integers(0, 8), label="n_vms")
    columns = [st.sampled_from(list(edges) + _boundary(need)) for need in demand]
    matrix = np.array(
        data.draw(st.lists(st.tuples(*columns), min_size=n, max_size=n), label="rows")
    ).reshape(n, 3)
    online = np.array(data.draw(
        st.lists(st.booleans(), min_size=n, max_size=n), label="online"
    ), dtype=bool)
    pool = CandidateSet([make_vm(vm_id=i) for i in range(n)], matrix)
    pool.online[:] = online
    return pool


class TestColumnMask:
    """``feasible_mask`` scans one column at a time; the row-wise
    reduction it replaced is its oracle, the scalar loop the selectors'."""

    @settings(max_examples=300)
    @given(data=st.data())
    def test_mask_is_the_rowwise_reduction(self, data):
        demand = data.draw(st.tuples(*[st.sampled_from(
            (0.0, -0.0, 1.0, 2.0, 5.0, 1e-9, np.inf)
        )] * 3), label="demand")
        pool = _draw_pool(data, demand, _EDGES)
        need = np.array(demand)
        want = (need <= pool.matrix + _FIT_ATOL).all(axis=1) & pool.online
        got = pool.feasible_mask(need)
        assert got.dtype == bool and got.shape == (len(pool.vms),)
        assert np.array_equal(got, want)
        # The random selector counts the feasible set off the same mask.
        choice = pool.select_random_feasible(need, np.random.default_rng(0))
        assert (choice is None) == (not want.any())
        _chosen(pool, choice, int(want.sum()))

    @settings(max_examples=300)
    @given(data=st.data())
    def test_selectors_are_the_scalar_loop(self, data):
        """Finite pools (an Eq. 22 volume is defined on every row), with
        entries on the feasibility boundary and signed zeros."""
        demand = data.draw(demand_triples, label="demand")
        pool = _draw_pool(data, demand, (0.0, -0.0) + _CAP_GRID)
        pairs = list(pool)
        reference = np.array(data.draw(capacity_triples, label="reference"))
        demand = np.array(demand)
        feasible = sum(fits_within(demand, avail) for _, avail in pairs)
        assert _chosen(pool, pool.select_most_matched(demand, reference), feasible) is \
            scalar_select_most_matched(demand, pairs, reference)
        seed = data.draw(st.integers(0, 2**16), label="seed")
        rng_i, rng_s = np.random.default_rng(seed), np.random.default_rng(seed)
        assert _chosen(pool, pool.select_random_feasible(demand, rng_i), feasible) is \
            scalar_select_random_feasible(demand, pairs, rng_s)
        assert rng_i.bit_generator.state == rng_s.bit_generator.state

    def test_matrix_stays_c_contiguous(self):
        """Eq. 22's gemv reads the ``(n, 3)`` C-ordered matrix: a
        transposed or Fortran layout changes its last bit."""
        vms = [make_vm(vm_id=i) for i in range(4)]
        built = CandidateSet(vms, np.asfortranarray(np.ones((4, 3))))
        assert built.matrix.flags.c_contiguous
        pool = CandidateSet.for_vms(vms)
        assert pool.matrix.flags.c_contiguous
        place(vms[1], running_job(request=(1, 1, 1)))
        assert pool.refresh() == 4
        assert pool.matrix.flags.c_contiguous
        pool.consume(2, np.array([1.0, 2.0, 3.0]))
        assert pool.matrix.flags.c_contiguous
        vms[3].crash()
        scheduler = SimpleNamespace(_opp_pool=pool, sim=SimpleNamespace(lanes=pool.lanes))
        ProvisioningSchedulerBase._void_offline_rows(scheduler)
        assert pool.matrix.flags.c_contiguous
        assert not pool.online[3] and not pool.matrix[3].any()
        assert pool.online[:3].all()


class TestTieWindowScaleInvariance:
    """The 1e-12 tie window is relative, not absolute (the v1.7 fix).

    A lower-id VM whose volume is a hair *above* a higher-id VM's must
    still win the tie at any magnitude: with the old absolute window a
    0.25 gap at volume ~3e12 (well inside float rounding noise at that
    scale) read as a strict win for the higher id, so the same cluster
    described in different units picked different VMs.
    """

    def _two_vm_near_tie(self, magnitude):
        # vm 0's capacity is 0.25/magnitude "larger" in one lane; with
        # reference (1,1,1) its volume is greater by 0.25 at absolute
        # magnitude ~3*magnitude — inside the relative window, far
        # outside an absolute 1e-12 one when magnitude is large.
        caps = [
            (magnitude + 0.25, magnitude, magnitude),
            (magnitude, magnitude, magnitude),
        ]
        vms = [make_vm(capacity=c, vm_id=i) for i, c in enumerate(caps)]
        matrix = np.array(caps)
        reference = np.ones(3)
        demand = np.ones(3)
        return vms, matrix, reference, demand

    @pytest.mark.parametrize("magnitude", [1e12, 1e13])
    def test_near_tie_breaks_to_lower_id_at_large_magnitudes(
        self, magnitude
    ):
        vms, matrix, reference, demand = self._two_vm_near_tie(magnitude)
        gap = 0.25
        assert gap > 1e-12  # an absolute window would call this strict
        assert gap < tie_window(3 * magnitude)  # the relative one ties it
        cset = CandidateSet(vms, matrix.copy())
        assert cset.select_most_matched(demand, reference).vm is vms[0]
        index = ShardedCandidateIndex.for_vms(vms)  # rows = capacities
        index.refresh()
        assert index.select_most_matched(demand, reference).vm is vms[0]
        assert scalar_select_most_matched(
            demand, list(cset), reference
        ) is vms[0]

    def test_same_choice_across_magnitudes(self):
        """Scaling every volume by 1e12 must not change the winner."""
        winners = []
        for magnitude in (3.0, 3e12):
            vms, matrix, reference, demand = self._two_vm_near_tie(magnitude)
            # Keep the *relative* gap constant across magnitudes.
            matrix[0, 0] = magnitude * (1.0 + 1e-13)
            cset = CandidateSet(vms, matrix)
            winners.append(cset.select_most_matched(demand, reference).vm.vm_id)
        assert winners == [0, 0]

    def test_tie_window_values(self):
        assert tie_window(0.0) == 0.0
        assert tie_window(1.0) == pytest.approx(1e-12)
        assert tie_window(-2e12) == pytest.approx(2.0)
        assert tie_window(3e12) == pytest.approx(3.0)

    def test_strict_minimum_still_wins(self):
        # Outside the window the genuinely smaller volume must win even
        # from the higher id.
        caps = [(8.0, 8.0, 8.0), (4.0, 4.0, 4.0)]
        vms = [make_vm(capacity=c, vm_id=i) for i, c in enumerate(caps)]
        cset = CandidateSet(vms, np.array(caps))
        reference = np.full(3, 8.0)
        demand = np.ones(3)
        assert cset.select_most_matched(demand, reference).vm is vms[1]
