"""Unit and property tests for ResourceVector / ResourceKind."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cluster.resources import (
    DEFAULT_WEIGHTS,
    NUM_RESOURCES,
    ResourceKind,
    ResourceVector,
)

finite = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)
vectors = st.builds(
    lambda a, b, c: ResourceVector([a, b, c]), finite, finite, finite
)


class TestConstruction:
    def test_basic(self):
        v = ResourceVector([1.0, 2.0, 3.0])
        assert v.cpu == 1.0
        assert v.mem == 2.0
        assert v.storage == 3.0

    def test_of_named(self):
        v = ResourceVector.of(cpu=4, mem=8, storage=100)
        assert v.cpu == 4 and v.mem == 8 and v.storage == 100

    def test_of_defaults_zero(self):
        assert ResourceVector.of(cpu=1) == ResourceVector([1, 0, 0])

    def test_zeros(self):
        assert ResourceVector.zeros().total() == 0.0

    def test_full(self):
        assert ResourceVector.full(2.5).total() == pytest.approx(7.5)

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
        assert v.cpu == 1.0

    def test_len_and_iter(self):
        v = ResourceVector([1, 2, 3])
        assert len(v) == NUM_RESOURCES
        assert list(v) == [1.0, 2.0, 3.0]

    def test_getitem_by_kind(self):
        v = ResourceVector([1, 2, 3])
        assert v[ResourceKind.MEM] == 2.0
        assert v[2] == 3.0


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

    def test_rsub(self):
        assert 10 - ResourceVector([1, 2, 3]) == ResourceVector([9, 8, 7])

    def test_mul_scalar(self):
        assert 2 * ResourceVector([1, 2, 3]) == ResourceVector([2, 4, 6])

    def test_mul_elementwise(self):
        assert ResourceVector([1, 2, 3]) * ResourceVector([2, 2, 2]) == ResourceVector(
            [2, 4, 6]
        )

    def test_div(self):
        assert ResourceVector([2, 4, 6]) / 2 == ResourceVector([1, 2, 3])

    def test_neg(self):
        assert -ResourceVector([1, 2, 3]) == ResourceVector([-1, -2, -3])

    @given(vectors, vectors)
    def test_add_commutative(self, a, b):
        assert a + b == b + a

    @given(vectors)
    def test_additive_identity(self, a):
        assert a + ResourceVector.zeros() == a

    @given(vectors, vectors)
    def test_sub_then_add_roundtrip(self, a, b):
        np.testing.assert_allclose(
            ((a - b) + b).as_array(), a.as_array(), rtol=1e-9, atol=1e-6
        )


class TestPredicates:
    def test_fits_within_true(self):
        assert ResourceVector([1, 1, 1]).fits_within(ResourceVector([2, 2, 2]))

    def test_fits_within_equal(self):
        v = ResourceVector([1, 2, 3])
        assert v.fits_within(v)

    def test_fits_within_false_single_axis(self):
        assert not ResourceVector([3, 1, 1]).fits_within(ResourceVector([2, 2, 2]))

    def test_is_nonnegative(self):
        assert ResourceVector([0, 0, 0]).is_nonnegative()
        assert not ResourceVector([-1, 0, 0]).is_nonnegative()

    def test_any_positive(self):
        assert ResourceVector([0, 0, 1]).any_positive()
        assert not ResourceVector.zeros().any_positive()

    @pytest.mark.parametrize("side", ["demand", "capacity"])
    def test_nan_fits_nothing_as_in_the_pool(self, side):
        """The scalar oracle and the pools' column test agree on NaN."""
        from repro.cluster.machine import VirtualMachine
        from repro.cluster.shards import CandidateSet

        nan, fine = ResourceVector([1, np.nan, 1]), ResourceVector([2, 2, 2])
        demand, capacity = (nan, fine) if side == "demand" else (fine, nan)
        pool = CandidateSet.from_pairs([(VirtualMachine(0, fine), capacity)])
        assert not demand.fits_within(capacity)
        assert not pool.feasible_mask(demand).any()

    @given(vectors, vectors)
    def test_fits_within_implies_componentwise(self, a, b):
        if a.fits_within(b):
            assert np.all(a.as_array() <= b.as_array() + 1e-9)


class TestElementwiseHelpers:
    def test_clip_nonnegative(self):
        assert ResourceVector([-1, 2, -3]).clip_nonnegative() == ResourceVector(
            [0, 2, 0]
        )

    def test_minimum_maximum(self):
        a, b = ResourceVector([1, 5, 3]), ResourceVector([2, 4, 3])
        assert a.minimum(b) == ResourceVector([1, 4, 3])
        assert a.maximum(b) == ResourceVector([2, 5, 3])

    def test_total(self):
        assert ResourceVector([1, 2, 3]).total() == 6.0

    def test_weighted_total_default(self):
        v = ResourceVector([1, 1, 1])
        assert v.weighted_total() == pytest.approx(DEFAULT_WEIGHTS.sum())

    def test_weighted_total_custom(self):
        assert ResourceVector([1, 2, 3]).weighted_total([1, 0, 0]) == 1.0

    def test_weighted_total_bad_weights(self):
        with pytest.raises(ValueError):
            ResourceVector([1, 2, 3]).weighted_total([1, 0])

    def test_dominant(self):
        assert ResourceVector([3, 1, 2]).dominant() is ResourceKind.CPU
        assert ResourceVector([1, 3, 2]).dominant() is ResourceKind.MEM
        assert ResourceVector([1, 2, 3]).dominant() is ResourceKind.STORAGE

    def test_dominant_tie_prefers_cpu(self):
        assert ResourceVector([2, 2, 2]).dominant() is ResourceKind.CPU

    def test_normalized_by(self):
        v = ResourceVector([5, 1, 15]).normalized_by(ResourceVector([25, 2, 30]))
        np.testing.assert_allclose(v.as_array(), [0.2, 0.5, 0.5])

    def test_normalized_by_zero_reference(self):
        v = ResourceVector([5, 1, 15]).normalized_by(ResourceVector([25, 0, 30]))
        assert v.mem == 0.0

    @given(vectors)
    def test_clip_nonnegative_idempotent(self, a):
        c = a.clip_nonnegative()
        assert c == c.clip_nonnegative()
        assert c.is_nonnegative()


class TestAggregation:
    def test_sum_empty(self):
        assert ResourceVector.sum([]) == ResourceVector.zeros()

    def test_sum(self):
        vs = [ResourceVector([1, 0, 0]), ResourceVector([0, 2, 0])]
        assert ResourceVector.sum(vs) == ResourceVector([1, 2, 0])

    def test_elementwise_max(self):
        vs = [ResourceVector([1, 5, 0]), ResourceVector([2, 1, 3])]
        assert ResourceVector.elementwise_max(vs) == ResourceVector([2, 5, 3])

    def test_elementwise_max_empty(self):
        assert ResourceVector.elementwise_max([]) == ResourceVector.zeros()


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
