"""Statistical properties of the synthetic Google-trace generator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.resources import ResourceKind
from repro.core.packing import dominant_resource
from repro.trace.generator import INTENSITY_CLASSES, GoogleTraceGenerator, TraceConfig
from repro.trace.records import SHORT_JOB_TIMEOUT_S


def generate(**kw):
    return GoogleTraceGenerator(TraceConfig(**kw)).generate()


class TestConfigValidation:
    def test_zero_jobs_rejected(self):
        with pytest.raises(ValueError):
            TraceConfig(n_jobs=0)

    def test_bad_short_fraction(self):
        with pytest.raises(ValueError):
            TraceConfig(short_fraction=1.5)

    def test_bad_span(self):
        with pytest.raises(ValueError):
            TraceConfig(arrival_span_s=0.0)

    def test_bad_class_probs(self):
        with pytest.raises(ValueError):
            TraceConfig(class_probs=(0.5, 0.5, 0.5, 0.5))

    def test_mismatched_class_lists(self):
        with pytest.raises(ValueError):
            TraceConfig(class_names=("cpu",), class_probs=(0.5, 0.5))

    def test_unknown_class(self):
        with pytest.raises(ValueError):
            TraceConfig(class_names=("nope",), class_probs=(1.0,))


class TestDeterminism:
    def test_same_seed_same_trace(self):
        a = generate(n_jobs=20, seed=4)
        b = generate(n_jobs=20, seed=4)
        assert len(a) == len(b)
        for ra, rb in zip(a, b):
            assert ra.submit_time_s == rb.submit_time_s
            np.testing.assert_array_equal(ra.usage, rb.usage)

    def test_different_seed_differs(self):
        a = generate(n_jobs=20, seed=1)
        b = generate(n_jobs=20, seed=2)
        assert any(
            ra.submit_time_s != rb.submit_time_s for ra, rb in zip(a, b)
        )


class TestArrivals:
    def test_poisson_arrivals_increasing(self):
        trace = generate(n_jobs=30, seed=0)
        times = [r.submit_time_s for r in trace]
        assert times == sorted(times)
        assert times[0] > 0.0

    def test_fixed_span_arrivals_within_span(self):
        trace = generate(n_jobs=30, seed=0, arrival_span_s=120.0)
        assert all(0.0 <= r.submit_time_s <= 120.0 for r in trace)

    def test_count(self):
        assert len(generate(n_jobs=17, seed=0)) == 17


class TestDurations:
    def test_short_jobs_respect_timeout(self):
        trace = generate(n_jobs=60, seed=3, short_fraction=1.0)
        assert all(r.duration_s <= SHORT_JOB_TIMEOUT_S for r in trace)
        assert all(r.is_short for r in trace)

    def test_short_jobs_respect_minimum(self):
        cfg = TraceConfig(n_jobs=60, seed=3, short_fraction=1.0, min_duration_s=20.0)
        trace = GoogleTraceGenerator(cfg).generate()
        assert all(r.duration_s >= 20.0 for r in trace)

    def test_long_jobs_run_hours(self):
        trace = generate(n_jobs=30, seed=3, short_fraction=0.0)
        assert all(r.duration_s >= 3600.0 for r in trace)
        assert not any(r.is_short for r in trace)

    def test_short_fraction_approximate(self):
        trace = generate(n_jobs=300, seed=5, short_fraction=0.9)
        assert 0.82 <= trace.short_fraction() <= 0.97


class TestUsage:
    def test_usage_never_exceeds_request(self):
        trace = generate(n_jobs=40, seed=6)
        for r in trace:
            assert np.all(r.usage <= r.requested + 1e-9)
            assert np.all(r.usage >= 0)

    def test_short_jobs_fluctuate(self):
        # The patternless process must actually move (Section I's
        # "frequent fluctuations in resource requirements").
        trace = generate(
            n_jobs=30, seed=7, short_fraction=1.0, sample_period_s=10.0,
            min_duration_s=200.0, short_duration_mu=5.6,
        )
        spans = [
            r.utilization_series()[:, 0].max() - r.utilization_series()[:, 0].min()
            for r in trace
            if r.n_samples >= 10
        ]
        assert np.mean(spans) > 0.05

    def test_storage_usage_monotone(self):
        trace = generate(n_jobs=20, seed=8, short_fraction=1.0)
        for r in trace:
            storage = r.usage[:, ResourceKind.STORAGE]
            assert np.all(np.diff(storage) >= -1e-9)

    def test_storage_leaves_slack(self):
        # Jobs over-reserve disk (the packing-relevant slack).
        trace = generate(n_jobs=60, seed=9, short_fraction=1.0)
        final_fracs = [
            r.usage[-1, ResourceKind.STORAGE] / r.requested[ResourceKind.STORAGE]
            for r in trace
        ]
        assert np.mean(final_fracs) < 0.7

    def test_long_jobs_show_periodic_pattern(self):
        trace = generate(
            n_jobs=10, seed=10, short_fraction=0.0, sample_period_s=300.0,
            long_pattern_period_s=3600.0,
        )
        for r in trace:
            util = r.utilization_series()[:, ResourceKind.CPU]
            if util.size < 24:
                continue
            centered = util - util.mean()
            spectrum = np.abs(np.fft.rfft(centered)) ** 2
            dominance = spectrum[1:].max() / spectrum[1:].sum()
            assert dominance > 0.2  # clear dominant frequency


class TestRequests:
    def test_requests_within_class_ranges(self):
        trace = generate(n_jobs=100, seed=11)
        lows = {
            kind: min(rng[0] for cls in INTENSITY_CLASSES.values() for k, rng in cls.items() if k == kind)
            for kind in ResourceKind
        }
        highs = {
            kind: max(rng[1] for cls in INTENSITY_CLASSES.values() for k, rng in cls.items() if k == kind)
            for kind in ResourceKind
        }
        for r in trace:
            for kind in ResourceKind:
                assert lows[kind] <= r.requested[kind] <= highs[kind]

    def test_complementary_classes_present(self):
        # Packing needs both CPU-dominant and non-CPU-dominant jobs.
        trace = generate(n_jobs=200, seed=12)
        dominants = {dominant_resource(r.requested) for r in trace}
        assert ResourceKind.CPU in dominants
        assert len(dominants) >= 2

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_any_seed_produces_valid_trace(self, seed):
        trace = generate(n_jobs=5, seed=seed)
        assert len(trace) == 5
        for r in trace:
            assert r.duration_s > 0
            assert np.all(r.usage >= 0)


class TestStreaming:
    """generate_chunks / iter_records: identical records, bounded memory."""

    def test_chunks_concatenate_to_the_full_trace(self):
        cfg = TraceConfig(n_jobs=57, seed=5)
        full = GoogleTraceGenerator(cfg).generate()
        streamed = [
            r
            for chunk in GoogleTraceGenerator(cfg).generate_chunks(10)
            for r in chunk
        ]
        assert len(streamed) == len(full)
        for a, b in zip(full, streamed):
            assert a.task_id == b.task_id
            assert a.submit_time_s == b.submit_time_s
            assert a.duration_s == b.duration_s
            np.testing.assert_array_equal(a.requested, b.requested)
            assert np.array_equal(a.usage, b.usage)

    def test_chunk_sizes(self):
        chunks = list(GoogleTraceGenerator(
            TraceConfig(n_jobs=25, seed=1)
        ).generate_chunks(10))
        assert [len(c) for c in chunks] == [10, 10, 5]

    def test_chunk_size_must_be_positive(self):
        gen = GoogleTraceGenerator(TraceConfig(n_jobs=5, seed=1))
        with pytest.raises(ValueError):
            next(gen.generate_chunks(0))

    def test_streaming_peak_memory_stays_bounded(self):
        """A streamed pass must not hold the whole trace at once.

        tracemalloc peaks: materializing n jobs is O(n); streaming in
        small chunks must stay well under that regardless of n.
        """
        import tracemalloc

        cfg = TraceConfig(n_jobs=2000, seed=9)

        tracemalloc.start()
        trace = GoogleTraceGenerator(cfg).generate()
        _, full_peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        del trace

        tracemalloc.start()
        for chunk in GoogleTraceGenerator(cfg).generate_chunks(64):
            pass  # place-and-drop, like the scale benchmark
        _, streamed_peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()

        assert streamed_peak < full_peak / 4, (
            f"streamed peak {streamed_peak / 1e6:.1f} MB not well below "
            f"materialized peak {full_peak / 1e6:.1f} MB"
        )
