"""Unit and property tests for ResourceVector / ResourceKind, the one
row conversion ``as_row`` and the row feasibility rule ``fits_within``."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cluster.resources import (
    DEFAULT_WEIGHTS,
    NUM_RESOURCES,
    ResourceKind,
    ResourceVector,
    as_row,
    fits_within,
)

finite = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)
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


class TestAsRow:
    @pytest.mark.parametrize(
        "values", [[1, 2, 3], (1.0, 2.0, 3.0), np.array([1, 2, 3], dtype=np.int32),
                   np.array([1.0, 2, 3], dtype=np.float32)],
        ids=["list", "tuple", "int32", "float32"],
    )
    def test_three_real_numbers_become_a_read_only_float_row(self, values):
        row = as_row(values)
        assert type(row) is np.ndarray and row.dtype == np.float64
        np.testing.assert_array_equal(row, [1, 2, 3])
        with pytest.raises(ValueError, match="read-only"):
            row[0] = 9.0

    def test_the_row_is_a_copy(self):
        source = np.array([1.0, 2.0, 3.0])
        row = as_row(source)
        source[0] = 99.0
        assert row[0] == 1.0
        assert as_row(row) is not row

    def test_a_vector_converts_to_its_row(self):
        vector = ResourceVector.of(cpu=1, mem=2, storage=3)
        assert as_row(vector) is vector.as_array()

    @pytest.mark.parametrize(
        "values",
        [np.ones((1, 3)), np.ones(2), np.ones(4), 1.0,
         np.array([1, 1, 1], dtype=object), [True, False, True], ["1", "2", "3"],
         np.array([1 + 0j, 1, 1]), [ResourceVector([1, 1, 1])]],
        ids=["(1, 3)", "(2,)", "(4,)", "scalar", "object", "bool", "str", "complex",
             "[vector]"],
    )
    def test_anything_else_raises(self, values):
        with pytest.raises(ValueError, match="3 real entries"):
            as_row(values)


class TestPredicates:
    def test_fits_within_true(self):
        assert fits_within(np.array([1.0, 1, 1]), np.array([2.0, 2, 2]))

    def test_fits_within_equal(self):
        row = np.array([1.0, 2, 3])
        assert fits_within(row, row)

    def test_fits_within_false_single_axis(self):
        assert not fits_within(np.array([3.0, 1, 1]), np.array([2.0, 2, 2]))

    @pytest.mark.parametrize("side", ["demand", "capacity"])
    def test_nan_fits_nothing_as_in_the_pool(self, side):
        """The scalar oracle and the pools' column test agree on NaN."""
        from repro.cluster.machine import VirtualMachine
        from repro.cluster.shards import CandidateSet

        nan, fine = np.array([1, np.nan, 1]), np.array([2.0, 2, 2])
        demand, capacity = (nan, fine) if side == "demand" else (fine, nan)
        vm = VirtualMachine(0, fine)
        pool = CandidateSet.from_pairs([(vm, capacity)])
        assert not fits_within(demand, capacity)
        assert not pool.feasible_mask(demand).any()

    @given(rows, rows)
    def test_fits_within_implies_componentwise(self, a, b):
        if fits_within(a, b):
            assert np.all(a <= b + 1e-9)


class TestElementwiseHelpers:
    def test_dominant(self):
        """The packer's dominant resource of a row: its largest entry."""
        from repro.core.packing import dominant_resource

        assert dominant_resource(np.array([3.0, 1, 2])) is ResourceKind.CPU
        assert dominant_resource(np.array([1.0, 3, 2])) is ResourceKind.MEM
        assert dominant_resource(np.array([1.0, 2, 3])) is ResourceKind.STORAGE

    def test_dominant_tie_prefers_cpu(self):
        from repro.core.packing import dominant_resource

        assert dominant_resource(np.array([2.0, 2, 2])) is ResourceKind.CPU

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
