"""Sharded availability index: exact equivalence with the flat path.

The contract under test is *bit-identity*: for any shard count
(including more shards than VMs, which leaves some shards empty),
:class:`ShardedCandidateIndex` must return the same Eq. 22 winner, the
same random-feasible choice from the same rng stream position, and the
same feasibility views as a single :class:`CandidateSet` over the same
rows — and both must match the scalar reference loop the differential
checker re-derives placements with.  Capacities and demands are drawn
from a small grid on purpose so exact volume ties are common and the
tie-break path is exercised, not just the strict minimum.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.resources import ResourceVector
from repro.cluster.shards import ScaleConfig, ShardedCandidateIndex
from repro.core.vm_selection import (
    CandidateSet,
    select_most_matched as scalar_select_most_matched,
    tie_window,
)

from .test_machine import make_vm, place, running_job

# Small grids make exact ties likely (same request on several VMs).
_CAP_GRID = (2.0, 4.0, 8.0, 16.0)
_DEMAND_GRID = (0.0, 1.0, 2.0, 3.0, 5.0, 9.0, 20.0)

capacity_triples = st.tuples(*[st.sampled_from(_CAP_GRID)] * 3)
demand_triples = st.tuples(*[st.sampled_from(_DEMAND_GRID)] * 3)


def _build(caps, shards):
    vms = [make_vm(capacity=c, vm_id=i) for i, c in enumerate(caps)]
    matrix = np.array(caps, dtype=np.float64)
    index = ShardedCandidateIndex(vms, matrix.copy(), shards=shards)
    cset = CandidateSet(vms, matrix.copy())
    reference = ResourceVector(matrix.max(axis=0))
    return vms, index, cset, reference


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


class TestShardedEquivalence:
    @settings(max_examples=60)
    @given(data=st.data())
    def test_matches_flat_set_and_scalar_oracle(self, data):
        """Place/consume sequences: every view equals the flat path's."""
        n = data.draw(st.integers(1, 8), label="n_vms")
        shards = data.draw(st.integers(1, 12), label="shards")
        caps = data.draw(
            st.lists(capacity_triples, min_size=n, max_size=n), label="caps"
        )
        vms, index, cset, reference = _build(caps, shards)
        seed = data.draw(st.integers(0, 2**16), label="seed")
        for _ in range(data.draw(st.integers(1, 8), label="n_ops")):
            demand = ResourceVector(data.draw(demand_triples, label="demand"))
            assert index.feasible_count(demand) == cset.feasible_count(demand)
            assert len(index) == len(cset)
            pick = index.select_most_matched(demand, reference)
            assert pick is cset.select_most_matched(demand, reference)
            assert pick is scalar_select_most_matched(
                demand, list(cset), reference
            )
            assert index.min_feasible_volume(demand, reference) == \
                cset.min_feasible_volume(demand, reference)
            rng_i = np.random.default_rng(seed)
            rng_c = np.random.default_rng(seed)
            assert index.select_random_feasible(demand, rng_i) is \
                cset.select_random_feasible(demand, rng_c)
            # Same number of draws consumed: the streams stay aligned.
            assert rng_i.bit_generator.state == rng_c.bit_generator.state
            if pick is not None:
                index.consume(pick, demand.as_array())
                cset.consume(pick, demand.as_array())
        for vm in vms:
            assert index.availability(vm) == cset.availability(vm)

    @settings(max_examples=40)
    @given(data=st.data())
    def test_persistent_index_tracks_vm_state(self, data):
        """refresh() after place/crash/restore/rescale equals a rebuild."""
        n = data.draw(st.integers(1, 6), label="n_vms")
        shards = data.draw(st.integers(1, 9), label="shards")
        caps = data.draw(
            st.lists(capacity_triples, min_size=n, max_size=n), label="caps"
        )
        vms = [make_vm(capacity=c, vm_id=i) for i, c in enumerate(caps)]
        index = ShardedCandidateIndex.for_vms(vms, shards=shards)
        assert index.refresh() <= shards
        task_id = 0
        for _ in range(data.draw(st.integers(1, 10), label="n_ops")):
            op = data.draw(
                st.sampled_from(("place", "crash", "restore", "rescale")),
                label="op",
            )
            vm = vms[data.draw(st.integers(0, n - 1), label="vm")]
            if op == "place" and vm.online:
                job = running_job(
                    request=data.draw(demand_triples, label="request"),
                    task_id=task_id,
                )
                task_id += 1
                if job.requested.fits_within(vm.unallocated()):
                    place(vm, job)
            elif op == "crash" and vm.online:
                vm.crash()
            elif op == "restore" and not vm.online:
                vm.restore()
            elif op == "rescale":
                vm.set_capacity_scale(
                    data.draw(st.sampled_from((0.25, 0.5, 1.0)), label="s")
                )
            index.refresh()
            live = [v for v in vms if v.online]
            fresh = CandidateSet(
                live,
                np.array([v.unallocated_array() for v in live])
                if live else np.zeros((0, 3)),
            )
            reference = ResourceVector(
                np.array([c for c in caps]).max(axis=0)
            )
            demand = ResourceVector(data.draw(demand_triples, label="demand"))
            assert len(index) == len(live)
            assert index.select_most_matched(demand, reference) is \
                fresh.select_most_matched(demand, reference)
            for v in vms:
                if v.online:
                    assert index.availability(v) == ResourceVector(
                        v.unallocated_array()
                    )
                else:
                    assert index.availability(v) is None

    def test_second_refresh_touches_nothing_when_idle(self):
        vms = [make_vm(vm_id=i) for i in range(6)]
        index = ShardedCandidateIndex.for_vms(vms, shards=3)
        assert index.refresh() == 3  # first sync fills every shard
        assert index.refresh() == 0  # nothing moved
        place(vms[0], running_job(request=(1, 1, 1)))
        assert index.refresh() == 1  # only vm 0's shard resynced

    def test_refresh_requires_tracking_index(self):
        vms = [make_vm(vm_id=0)]
        index = ShardedCandidateIndex(
            vms, np.array([vms[0].unallocated_array()])
        )
        with pytest.raises(RuntimeError):
            index.refresh()


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
        reference = ResourceVector.of(cpu=1.0, mem=1.0, storage=1.0)
        demand = ResourceVector.of(cpu=1.0, mem=1.0, storage=1.0)
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
        assert cset.select_most_matched(demand, reference) is vms[0]
        index = ShardedCandidateIndex(vms, matrix.copy(), shards=2)
        assert index.select_most_matched(demand, reference) is vms[0]
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
            winners.append(cset.select_most_matched(demand, reference).vm_id)
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
        reference = ResourceVector.of(cpu=8.0, mem=8.0, storage=8.0)
        demand = ResourceVector.of(cpu=1.0, mem=1.0, storage=1.0)
        assert cset.select_most_matched(demand, reference) is vms[1]
