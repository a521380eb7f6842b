"""Eq. 1-4 metric functions and the per-run recorder."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cluster.metrics import (
    MetricsRecorder,
    overall_utilization,
    overall_wastage,
    utilization,
    wastage,
)
from repro.cluster.resources import DEFAULT_WEIGHTS, ResourceKind

def row(*values: float) -> np.ndarray:
    """A cluster-total row, as the kernel hands it to the recorder."""
    return np.array(values, dtype=np.float64)


pos = st.floats(min_value=0.01, max_value=1e4, allow_nan=False)
vectors = st.builds(row, pos, pos, pos)


class TestPointMetrics:
    def test_utilization_basic(self):
        u = utilization(row(1, 2, 3), row(2, 4, 6))
        np.testing.assert_allclose(u, [0.5, 0.5, 0.5])

    def test_utilization_zero_committed(self):
        u = utilization(row(1, 2, 3), row(0, 0, 0))
        np.testing.assert_allclose(u, [0, 0, 0])

    def test_utilization_clipped_at_one(self):
        u = utilization(row(3, 3, 3), row(2, 2, 2))
        np.testing.assert_allclose(u, [1, 1, 1])

    def test_overall_utilization_weighted(self):
        # CPU fully used, storage unused; weights 0.4/0.4/0.2
        demand = row(2, 0, 0)
        committed = row(2, 2, 2)
        assert overall_utilization(demand, committed) == pytest.approx(0.4)

    def test_overall_utilization_zero_denominator(self):
        assert overall_utilization(row(1, 1, 1), row(0, 0, 0)) == 0.0

    def test_wastage_is_complement(self):
        demand = row(1, 2, 3)
        committed = row(2, 4, 6)
        np.testing.assert_allclose(
            wastage(demand, committed), 1.0 - utilization(demand, committed)
        )

    def test_overall_wastage_complement(self):
        demand = row(1, 1, 1)
        committed = row(2, 2, 2)
        total = overall_utilization(demand, committed) + overall_wastage(
            demand, committed
        )
        assert total == pytest.approx(1.0)

    @given(vectors, vectors)
    def test_utilization_in_unit_interval(self, demand, committed):
        u = utilization(demand, committed)
        assert np.all(u >= 0) and np.all(u <= 1)

    @given(vectors, vectors)
    def test_overall_util_and_wastage_bounded(self, demand, committed):
        u = overall_utilization(demand, committed)
        w = overall_wastage(demand, committed)
        assert 0.0 <= u <= 1.0 and 0.0 <= w <= 1.0

    @given(vectors, vectors)
    def test_util_plus_wastage_is_one_when_demand_fits(self, demand, committed):
        # The exact complement only holds when no resource is
        # over-served (demand <= committed elementwise).
        capped = np.minimum(demand, committed)
        u = overall_utilization(capped, committed)
        w = overall_wastage(capped, committed)
        assert u + w == pytest.approx(1.0, abs=1e-9)

    @given(vectors)
    def test_full_demand_is_full_utilization(self, committed):
        assert overall_utilization(committed, committed) == pytest.approx(1.0)
        assert overall_wastage(committed, committed) == pytest.approx(0.0)


class TestDefaultWeights:
    def test_default_weights_are_read_only(self):
        # Regression: the module-level weights array is the shared
        # default argument of overall_utilization/overall_wastage; an
        # in-place mutation would silently skew every later call.
        with pytest.raises(ValueError):
            DEFAULT_WEIGHTS[0] = 0.9
        np.testing.assert_allclose(DEFAULT_WEIGHTS, [0.4, 0.4, 0.2])

    def test_caller_mutation_cannot_leak_into_defaults(self):
        # A caller normalizing or scaling "the" weights must not be able
        # to change what a later default-weight call computes.
        u = row(1, 1, 1)
        c = row(2, 2, 2)
        before = overall_utilization(u, c)
        weights = DEFAULT_WEIGHTS
        with pytest.raises(ValueError):
            weights *= 2.0
        assert overall_utilization(u, c) == before

    def test_recorder_weights_stay_independent(self):
        rec = MetricsRecorder()
        rec.weights[:] = [1.0, 0.0, 0.0]  # per-recorder copy is writable
        np.testing.assert_allclose(DEFAULT_WEIGHTS, [0.4, 0.4, 0.2])


class TestRecorder:
    def test_empty(self):
        rec = MetricsRecorder()
        assert rec.n_slots == 0
        assert rec.mean_overall_utilization() == 0.0
        assert rec.mean_overall_wastage() == 0.0
        assert rec.per_slot_utilization().shape == (0, 3)
        assert rec.per_slot_overall().shape == (0,)

    def test_single_slot(self):
        rec = MetricsRecorder()
        rec.record(row(1, 1, 1), row(2, 2, 2))
        assert rec.mean_overall_utilization() == pytest.approx(0.5)

    def test_idle_slots_excluded_from_mean(self):
        rec = MetricsRecorder()
        rec.record(row(0, 0, 0), row(0, 0, 0))  # idle
        rec.record(row(1, 1, 1), row(2, 2, 2))
        assert rec.mean_overall_utilization() == pytest.approx(0.5)

    def test_all_idle_run(self):
        rec = MetricsRecorder()
        rec.record(row(0, 0, 0), row(0, 0, 0))
        assert rec.mean_overall_utilization() == 0.0
        assert rec.mean_utilization(ResourceKind.CPU) == 0.0

    def test_per_resource_means(self):
        rec = MetricsRecorder()
        rec.record(row(1, 2, 0), row(2, 2, 4))
        assert rec.mean_utilization(ResourceKind.CPU) == pytest.approx(0.5)
        assert rec.mean_utilization(ResourceKind.MEM) == pytest.approx(1.0)
        assert rec.mean_utilization(ResourceKind.STORAGE) == pytest.approx(0.0)

    def test_utilization_by_resource_keys(self):
        rec = MetricsRecorder()
        rec.record(row(1, 1, 1), row(2, 2, 2))
        by = rec.utilization_by_resource()
        assert set(by) == set(ResourceKind)

    def test_mean_over_slots(self):
        rec = MetricsRecorder()
        rec.record(row(1, 1, 1), row(2, 2, 2))  # 0.5
        rec.record(row(2, 2, 2), row(2, 2, 2))  # 1.0
        assert rec.mean_overall_utilization() == pytest.approx(0.75)

    def test_wastage_is_one_minus_mean(self):
        rec = MetricsRecorder()
        rec.record(row(1, 1, 1), row(4, 4, 4))
        assert rec.mean_overall_wastage() == pytest.approx(0.75)

    def test_per_slot_series_shapes(self):
        rec = MetricsRecorder()
        for _ in range(5):
            rec.record(row(1, 1, 1), row(2, 2, 2))
        assert rec.per_slot_utilization().shape == (5, 3)
        assert rec.per_slot_overall().shape == (5,)

    def test_recorder_adopts_rows(self):
        # The kernel hands over fresh per-tick totals it never writes
        # again, so the recorder keeps them without a copy.
        rec = MetricsRecorder()
        demand, committed = row(1, 1, 1), row(2, 2, 2)
        rec.record(demand, committed)
        assert rec._demand[0] is demand and rec._committed[0] is committed
        assert rec.per_slot_utilization()[0, 0] == pytest.approx(0.5)
