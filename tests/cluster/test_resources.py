"""Unit and property tests for ResourceVector / ResourceKind and the
row feasibility rule ``fits_within``."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cluster.resources import (
    DEFAULT_WEIGHTS,
    NUM_RESOURCES,
    ResourceKind,
    ResourceVector,
    fits_within,
)

finite = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)
vectors = st.builds(
    lambda a, b, c: ResourceVector([a, b, c]), finite, finite, finite
)
rows = st.builds(lambda a, b, c: np.array([a, b, c]), finite, finite, finite)


class TestConstruction:
    def test_basic(self):
        v = ResourceVector([1.0, 2.0, 3.0])
        assert v.as_array().dtype == np.float64
        assert list(v) == [1.0, 2.0, 3.0]

    def test_of_named(self):
        v = ResourceVector.of(cpu=4, mem=8, storage=100)
        assert list(v) == [4.0, 8.0, 100.0]

    def test_of_defaults_zero(self):
        assert ResourceVector.of(cpu=1) == ResourceVector([1, 0, 0])

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            ResourceVector([1.0, 2.0])
        with pytest.raises(ValueError):
            ResourceVector([1.0, 2.0, 3.0, 4.0])

    def test_immutable_backing_array(self):
        v = ResourceVector([1, 2, 3])
        with pytest.raises(ValueError):
            v.as_array()[0] = 9.0

    def test_source_mutation_does_not_leak(self):
        src = np.array([1.0, 2.0, 3.0])
        v = ResourceVector(src)
        src[0] = 99.0
        assert list(v) == [1.0, 2.0, 3.0]

    def test_iter(self):
        assert list(ResourceVector([1, 2, 3])) == [1.0, 2.0, 3.0]


class TestArithmetic:
    def test_add(self):
        assert ResourceVector([1, 2, 3]) + ResourceVector([4, 5, 6]) == ResourceVector(
            [5, 7, 9]
        )

    def test_add_scalar(self):
        assert ResourceVector([1, 2, 3]) + 1 == ResourceVector([2, 3, 4])

    def test_sub(self):
        assert ResourceVector([4, 5, 6]) - ResourceVector([1, 2, 3]) == ResourceVector(
            [3, 3, 3]
        )

    def test_div(self):
        assert ResourceVector([2, 4, 6]) / 2 == ResourceVector([1, 2, 3])

    @given(vectors, vectors)
    def test_add_commutative(self, a, b):
        assert a + b == b + a

    @given(vectors)
    def test_additive_identity(self, a):
        assert a + ResourceVector([0, 0, 0]) == a

    @given(vectors, vectors)
    def test_sub_then_add_roundtrip(self, a, b):
        np.testing.assert_allclose(
            ((a - b) + b).as_array(), a.as_array(), rtol=1e-9, atol=1e-6
        )


class TestPredicates:
    def test_fits_within_true(self):
        assert fits_within(np.array([1.0, 1, 1]), np.array([2.0, 2, 2]))

    def test_fits_within_equal(self):
        row = np.array([1.0, 2, 3])
        assert fits_within(row, row)

    def test_fits_within_false_single_axis(self):
        assert not fits_within(np.array([3.0, 1, 1]), np.array([2.0, 2, 2]))

    def test_is_nonnegative(self):
        assert ResourceVector([0, 0, 0]).is_nonnegative()
        assert not ResourceVector([-1, 0, 0]).is_nonnegative()

    def test_any_positive(self):
        assert ResourceVector([0, 0, 1]).any_positive()
        assert not ResourceVector([0, 0, 0]).any_positive()

    @pytest.mark.parametrize("side", ["demand", "capacity"])
    def test_nan_fits_nothing_as_in_the_pool(self, side):
        """The scalar oracle and the pools' column test agree on NaN."""
        from repro.cluster.machine import VirtualMachine
        from repro.cluster.shards import CandidateSet

        nan, fine = np.array([1, np.nan, 1]), np.array([2.0, 2, 2])
        demand, capacity = (nan, fine) if side == "demand" else (fine, nan)
        vm = VirtualMachine(0, ResourceVector(fine))
        pool = CandidateSet.from_pairs([(vm, capacity)])
        assert not fits_within(demand, capacity)
        assert not pool.feasible_mask(demand).any()

    @given(rows, rows)
    def test_fits_within_implies_componentwise(self, a, b):
        if fits_within(a, b):
            assert np.all(a <= b + 1e-9)


class TestElementwiseHelpers:
    def test_clip_nonnegative(self):
        assert ResourceVector([-1, 2, -3]).clip_nonnegative() == ResourceVector(
            [0, 2, 0]
        )

    def test_dominant(self):
        """The packer's dominant resource of a row: its largest entry."""
        from repro.core.packing import dominant_resource

        assert dominant_resource(np.array([3.0, 1, 2])) is ResourceKind.CPU
        assert dominant_resource(np.array([1.0, 3, 2])) is ResourceKind.MEM
        assert dominant_resource(np.array([1.0, 2, 3])) is ResourceKind.STORAGE

    def test_dominant_tie_prefers_cpu(self):
        from repro.core.packing import dominant_resource

        assert dominant_resource(np.array([2.0, 2, 2])) is ResourceKind.CPU

    @given(vectors)
    def test_clip_nonnegative_idempotent(self, a):
        c = a.clip_nonnegative()
        assert c == c.clip_nonnegative()
        assert c.is_nonnegative()


class TestAggregation:
    def test_sum_empty(self):
        assert ResourceVector.sum([]) == ResourceVector([0, 0, 0])

    def test_sum(self):
        vs = [ResourceVector([1, 0, 0]), ResourceVector([0, 2, 0])]
        assert ResourceVector.sum(vs) == ResourceVector([1, 2, 0])



class TestEqualityHash:
    def test_eq_and_hash(self):
        a, b = ResourceVector([1, 2, 3]), ResourceVector([1, 2, 3])
        assert a == b and hash(a) == hash(b)

    def test_signed_zeros_hash_alike(self):
        """``==`` treats ``0.0`` and ``-0.0`` as equal, so ``hash`` must
        too: hashing the raw bytes kept both in one set."""
        a, b = ResourceVector([0.0, 1, 2]), ResourceVector([-0.0, 1, 2])
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_neq(self):
        assert ResourceVector([1, 2, 3]) != ResourceVector([1, 2, 4])

    def test_eq_other_type(self):
        assert ResourceVector([1, 2, 3]) != "nope"

    def test_repr_mentions_components(self):
        r = repr(ResourceVector([1, 2, 3]))
        assert "cpu=1" in r and "mem=2" in r and "storage=3" in r


class TestResourceKind:
    def test_values(self):
        assert int(ResourceKind.CPU) == 0
        assert int(ResourceKind.MEM) == 1
        assert int(ResourceKind.STORAGE) == 2

    def test_labels(self):
        assert ResourceKind.CPU.label == "CPU"
        assert ResourceKind.STORAGE.label == "STORAGE"

    def test_num_resources_consistent(self):
        assert NUM_RESOURCES == len(ResourceKind) == len(DEFAULT_WEIGHTS)

    def test_default_weights_sum_to_one(self):
        assert DEFAULT_WEIGHTS.sum() == pytest.approx(1.0)

    def test_default_weights_match_paper(self):
        # Section IV-A: CPU/MEM/storage weighted 0.4/0.4/0.2.
        np.testing.assert_allclose(DEFAULT_WEIGHTS, [0.4, 0.4, 0.2])
