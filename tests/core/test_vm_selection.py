"""Most-matched VM selection — verified against the paper's Fig. 5 numbers."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cluster.machine import VirtualMachine
from repro.cluster.resources import ResourceVector, as_row
from repro.core.vm_selection import (
    CandidateSet,
    select_most_matched,
    select_random_feasible,
    unused_volume,
)

#: The worked example of Fig. 5: C' = <25, 2, 30> and the four VMs'
#: unlocked predicted unused amounts.
FIG5_REFERENCE = as_row([25, 2, 30])
FIG5_UNUSED = {
    1: as_row([5, 0, 20]),
    2: as_row([10, 1, 10]),
    3: as_row([20, 2, 30]),
    4: as_row([10, 1, 8.5]),
}
#: The volumes the paper computes for them (Section III-B).
FIG5_VOLUMES = {1: 0.867, 2: 1.233, 3: 2.8, 4: 1.183}


def fig5_candidates():
    return [
        (VirtualMachine(vm_id, [25, 2, 30]), unused)
        for vm_id, unused in FIG5_UNUSED.items()
    ]


class TestUnusedVolume:
    @pytest.mark.parametrize("vm_id", [1, 2, 3, 4])
    def test_fig5_volumes(self, vm_id):
        volume = unused_volume(FIG5_UNUSED[vm_id], FIG5_REFERENCE)
        assert volume == pytest.approx(FIG5_VOLUMES[vm_id], abs=1e-3)

    def test_zero_reference_component_ignored(self):
        volume = unused_volume(as_row([5, 3, 0]), as_row([10, 0, 10]))
        assert volume == pytest.approx(0.5)

    def test_zero_vector(self):
        assert unused_volume(np.zeros(3), FIG5_REFERENCE) == 0.0

    @given(
        available=st.lists(
            st.one_of(st.just(-0.0), st.floats(0.0, 1e12)), min_size=3, max_size=3
        ),
        reference=st.lists(
            st.one_of(st.just(0.0), st.floats(1e-6, 1e6)), min_size=3, max_size=3
        ),
    )
    def test_a_row_reads_the_bits_of_the_vector_sum(self, available, reference):
        """The bits numpy's sum of the normalized row gives (the
        placement event and the checker read pool rows)."""
        ref = np.array(reference)
        normalized = np.divide(available, ref, out=np.zeros(3), where=ref > 0)
        want = float(normalized.sum())
        got = unused_volume(np.array(available), ref)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()


class TestMostMatched:
    def test_fig5_first_entity_goes_to_vm2(self):
        # Packed entity (job 3, job 4): VM1 and VM4 infeasible; VM2 wins
        # over VM3 because 1.233 < 2.8.
        demand = as_row([10, 1, 10])
        chosen = select_most_matched(demand, fig5_candidates(), FIG5_REFERENCE)
        assert chosen.vm_id == 2

    def test_fig5_second_entity_goes_to_vm4(self):
        # Packed entity (job 5, job 6): VM1 infeasible; VM4's 1.183 is
        # the smallest remaining volume.
        demand = as_row([8, 1, 8])
        chosen = select_most_matched(demand, fig5_candidates(), FIG5_REFERENCE)
        assert chosen.vm_id == 4

    def test_none_feasible(self):
        demand = as_row([100, 100, 100])
        assert select_most_matched(demand, fig5_candidates(), FIG5_REFERENCE) is None

    def test_empty_candidates(self):
        assert select_most_matched(as_row([1, 1, 1]), [], FIG5_REFERENCE) is None

    def test_tie_breaks_to_lower_id(self):
        vm_a = VirtualMachine(3, [10, 10, 10])
        vm_b = VirtualMachine(1, [10, 10, 10])
        same = as_row([5, 5, 5])
        chosen = select_most_matched(
            as_row([1, 1, 1]),
            [(vm_a, same), (vm_b, same)],
            as_row([10, 10, 10]),
        )
        assert chosen.vm_id == 1

    def test_exact_fit_allowed(self):
        vm = VirtualMachine(0, [10, 10, 10])
        available = as_row([2, 2, 2])
        chosen = select_most_matched(
            as_row([2, 2, 2]), [(vm, available)], FIG5_REFERENCE
        )
        assert chosen is vm


class TestRandomFeasible:
    def test_uniform_over_feasible(self):
        rng = np.random.default_rng(0)
        vms = [VirtualMachine(i, [10, 10, 10]) for i in range(3)]
        candidates = [
            (vms[0], as_row([5, 5, 5])),
            (vms[1], as_row([0, 0, 0])),  # infeasible
            (vms[2], as_row([5, 5, 5])),
        ]
        demand = as_row([1, 1, 1])
        picks = {
            select_random_feasible(demand, candidates, rng).vm_id
            for _ in range(50)
        }
        assert picks == {0, 2}

    def test_none_feasible(self):
        rng = np.random.default_rng(1)
        vm = VirtualMachine(0, [10, 10, 10])
        result = select_random_feasible(
            as_row([5, 5, 5]), [(vm, as_row([1, 1, 1]))], rng
        )
        assert result is None

    def test_deterministic_given_rng_state(self):
        vms = [VirtualMachine(i, [10, 10, 10]) for i in range(5)]
        candidates = [(vm, as_row([5, 5, 5])) for vm in vms]
        demand = as_row([1, 1, 1])
        a = select_random_feasible(demand, candidates, np.random.default_rng(7))
        b = select_random_feasible(demand, candidates, np.random.default_rng(7))
        assert a.vm_id == b.vm_id


def random_candidates(draw_values, n):
    """Build (pairs, CandidateSet) over the same availability values."""
    vms = [VirtualMachine(i, [30, 30, 30]) for i in range(n)]
    pairs = [
        (vm, as_row(draw_values[3 * i: 3 * i + 3]))
        for i, vm in enumerate(vms)
    ]
    return pairs, CandidateSet.from_pairs(pairs)


class TestCandidateSetAgainstScalar:
    """The vectorized selector's oracle is the scalar reference loop."""

    @given(
        values=st.lists(
            st.floats(0.0, 25.0, allow_nan=False), min_size=12, max_size=30
        ).filter(lambda v: len(v) % 3 == 0),
        demand=st.tuples(
            st.floats(0.0, 20.0), st.floats(0.0, 20.0), st.floats(0.0, 20.0)
        ),
    )
    def test_most_matched_matches_reference(self, values, demand):
        pairs, cset = random_candidates(values, len(values) // 3)
        d = as_row(list(demand))
        expected = select_most_matched(d, pairs, FIG5_REFERENCE)
        actual = cset.select_most_matched(d, FIG5_REFERENCE)
        assert (expected is None) == (actual is None)
        if expected is not None:
            assert actual.vm.vm_id == expected.vm_id
            assert cset.vms[actual.row] is actual.vm

    @given(
        values=st.lists(
            st.floats(0.0, 25.0, allow_nan=False), min_size=12, max_size=30
        ).filter(lambda v: len(v) % 3 == 0),
        demand=st.tuples(
            st.floats(0.0, 20.0), st.floats(0.0, 20.0), st.floats(0.0, 20.0)
        ),
        seed=st.integers(0, 2**16),
    )
    def test_random_feasible_consumes_same_rng_stream(self, values, demand, seed):
        pairs, cset = random_candidates(values, len(values) // 3)
        d = as_row(list(demand))
        expected = select_random_feasible(d, pairs, np.random.default_rng(seed))
        actual = cset.select_random_feasible(d, np.random.default_rng(seed))
        assert (expected is None) == (actual is None)
        if expected is not None:
            assert actual.vm.vm_id == expected.vm_id
            assert cset.vms[actual.row] is actual.vm

    def test_fig5_entities(self):
        cset = CandidateSet.from_pairs(fig5_candidates())
        first = cset.select_most_matched(
            as_row([10, 1, 10]), FIG5_REFERENCE
        )
        second = cset.select_most_matched(
            as_row([8, 1, 8]), FIG5_REFERENCE
        )
        assert (first.vm.vm_id, second.vm.vm_id) == (2, 4)
        # Entity 1 fits VMs 2 and 3; entity 2 fits VMs 2, 3 and 4.
        assert (first.feasible, second.feasible) == (2, 3)

    def test_vectors_are_read_as_rows(self):
        """A caller holding profile-style ResourceVectors may pass them as
        the demand and the Eq. 22 reference (the ledger's select probe)."""
        cset = CandidateSet.from_pairs(fig5_candidates())
        for demand in ([10, 1, 10], [8, 1, 8], [100, 1, 1]):
            assert cset.select_most_matched(
                ResourceVector(demand), ResourceVector(FIG5_REFERENCE)
            ) == cset.select_most_matched(as_row(demand), FIG5_REFERENCE)

    def test_exact_tie_breaks_to_lowest_id(self):
        vms = [VirtualMachine(i, [10, 10, 10]) for i in (5, 2, 9)]
        same = as_row([5, 5, 5])
        cset = CandidateSet.from_pairs([(vm, same) for vm in vms])
        chosen = cset.select_most_matched(
            as_row([1, 1, 1]), as_row([10, 10, 10])
        )
        assert (chosen.vm.vm_id, chosen.row, chosen.feasible) == (2, 1, 3)

    def test_near_tie_within_tolerance_breaks_to_lowest_id(self):
        """Volumes closer than 1e-12 count as tied, like the scalar loop."""
        vm_a = VirtualMachine(7, [10, 10, 10])
        vm_b = VirtualMachine(1, [10, 10, 10])
        cset = CandidateSet.from_pairs([
            (vm_a, as_row([5.0, 5.0, 5.0])),
            (vm_b, as_row([5.0 + 2e-13, 5.0, 5.0])),
        ])
        chosen = cset.select_most_matched(
            as_row([1, 1, 1]), as_row([10, 10, 10])
        )
        assert chosen.vm.vm_id == 1


class TestCandidateSetMechanics:
    def test_iterates_as_pairs(self):
        cset = CandidateSet.from_pairs(fig5_candidates())
        seen = {vm.vm_id: avail for vm, avail in cset}
        assert seen[3].tolist() == [20, 2, 30]
        assert not any(avail.flags.writeable for avail in seen.values())

    def test_consume_clamps_at_zero(self):
        vm = VirtualMachine(0, [10, 10, 10])
        cset = CandidateSet.from_pairs([(vm, as_row([3, 3, 3]))])
        cset.consume(0, np.array([1.0, 4.0, 2.0]))
        np.testing.assert_array_equal(cset.matrix[0], np.array([2.0, 0.0, 1.0]))

    def test_consume_affects_later_selection(self):
        vms = [VirtualMachine(i, [10, 10, 10]) for i in range(2)]
        cset = CandidateSet.from_pairs(
            [(vms[0], as_row([4, 4, 4])), (vms[1], as_row([9, 9, 9]))]
        )
        demand = as_row([3, 3, 3])
        ref = as_row([10, 10, 10])
        first = cset.select_most_matched(demand, ref)
        assert (first.vm.vm_id, first.feasible) == (0, 2)
        cset.consume(first.row, demand)
        second = cset.select_most_matched(demand, ref)
        assert (second.vm.vm_id, second.feasible) == (1, 1)

    def test_feasible_count(self):
        """``feasible`` is the size of the set each selector chose from;
        an offline row is never in it."""
        cset = CandidateSet.from_pairs(fig5_candidates())
        demand = as_row([10, 1, 10])
        assert cset.select_most_matched(demand, FIG5_REFERENCE).feasible == 2
        assert cset.select_random_feasible(demand, np.random.default_rng(0)).feasible == 2
        cset.online[1] = False  # VM 2, the Eq. 22 winner
        choice = cset.select_most_matched(demand, FIG5_REFERENCE)
        assert (choice.vm.vm_id, choice.row, choice.feasible) == (3, 2, 1)
        assert cset.select_most_matched(as_row([100, 100, 100]), FIG5_REFERENCE) is None

    def test_empty_set(self):
        cset = CandidateSet([], np.zeros((0, 3)))
        assert len(cset) == 0 and list(cset) == []
        assert cset.select_most_matched(
            as_row([1, 1, 1]), FIG5_REFERENCE
        ) is None

    def test_shape_mismatch_rejected(self):
        vm = VirtualMachine(0, [10, 10, 10])
        with pytest.raises(ValueError):
            CandidateSet([vm], np.zeros((2, 3)))
