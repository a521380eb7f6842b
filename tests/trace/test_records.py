"""TaskRecord / Trace container behaviour."""

import numpy as np
import pytest

from repro.trace.records import SHORT_JOB_TIMEOUT_S, TaskRecord, Trace


def make_record(task_id=0, submit=0.0, duration=60.0, period=10.0,
                request=(2, 4, 10), usage=None, is_short=True):
    req = np.asarray(request, dtype=float)
    if usage is None:
        n = max(1, int(np.ceil(duration / period)))
        usage = 0.5 * np.tile(req, (n, 1))
    return TaskRecord(
        task_id=task_id,
        submit_time_s=submit,
        duration_s=duration,
        requested=req,
        usage=np.asarray(usage, dtype=float),
        sample_period_s=period,
        is_short=is_short,
    )


class TestTaskRecordValidation:
    def test_valid(self):
        record = make_record()
        assert record.n_samples == 6

    def test_bad_usage_shape(self):
        with pytest.raises(ValueError):
            make_record(usage=np.zeros((4, 2)))

    def test_empty_usage(self):
        with pytest.raises(ValueError):
            make_record(usage=np.zeros((0, 3)))

    def test_negative_duration(self):
        with pytest.raises(ValueError):
            make_record(duration=-1.0)

    def test_negative_period(self):
        with pytest.raises(ValueError):
            make_record(period=0.0, usage=np.ones((3, 3)))

    def test_negative_usage(self):
        with pytest.raises(ValueError):
            make_record(usage=np.full((3, 3), -1.0))

    def test_negative_request(self):
        with pytest.raises(ValueError):
            make_record(request=(-1, 1, 1))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_request_rejected(self, bad):
        """A NaN request once passed every check (``nan < 0`` is False),
        was admitted, and then fit no pool row: the queue never drained."""
        with pytest.raises(ValueError, match="finite"):
            make_record(request=(2, bad, 10))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_usage_rejected(self, bad):
        usage = np.ones((3, 3))
        usage[1, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            make_record(usage=usage)

    @pytest.mark.parametrize("field", ["duration", "period", "submit"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_timing_rejected(self, field, bad):
        """A NaN or inf duration, sample period or submit time once passed
        ``__post_init__`` (``nan <= 0`` is False); the service admitted
        it and ``drain()`` then died turning it into slots."""
        with pytest.raises(ValueError, match="finite"):
            make_record(usage=np.ones((3, 3)), **{field: bad})

    @pytest.mark.parametrize(
        "bad",
        [np.ones((1, 3)), np.ones(2), np.array([1, 1, 1], dtype=object)],
        ids=["(1, 3)", "(2,)", "object"],
    )
    def test_request_must_be_three_real_numbers(self, bad):
        with pytest.raises(ValueError, match="3 real entries"):
            TaskRecord(
                task_id=0, submit_time_s=0.0, duration_s=30.0, requested=bad,
                usage=np.ones((3, 3)), sample_period_s=10.0,
            )

    def test_request_is_a_read_only_float_row(self):
        request = np.array([2, 4, 10])
        record = make_record(request=request)
        request[0] = 99
        assert type(record.requested) is np.ndarray
        assert record.requested.dtype == np.float64
        np.testing.assert_array_equal(record.requested, [2, 4, 10])
        with pytest.raises(ValueError, match="read-only"):
            record.requested[0] = 99.0

    def test_usage_made_readonly(self):
        record = make_record()
        with pytest.raises(ValueError):
            record.usage[0, 0] = 99.0


class TestTaskRecordIdentity:
    def test_equal_ids_compare_by_identity(self):
        """Two records with one task id and equal arrays are two records:
        ``==``, ``hash`` and ``in`` neither raise nor merge them."""
        record, other = make_record(task_id=1), make_record(task_id=1)
        assert record != other and not (record == other)
        assert record == record
        assert isinstance(hash(record), int) and isinstance(hash(other), int)
        assert record not in [other]
        assert record in [other, record]
        assert len({record, other}) == 2


class TestTaskRecordDerived:
    def test_usage_at_clamps(self):
        record = make_record()
        np.testing.assert_array_equal(record.usage_at(-5), record.usage[0])
        np.testing.assert_array_equal(record.usage_at(999), record.usage[-1])
        assert record.usage_at(2).shape == (3,)

    def test_unused_series(self):
        record = make_record(request=(2, 4, 10))
        unused = record.unused_series()
        np.testing.assert_allclose(unused, 0.5 * np.tile([2, 4, 10], (6, 1)))

    def test_unused_series_clipped(self):
        usage = np.tile([3.0, 4.0, 10.0], (2, 1))  # cpu above request
        record = make_record(request=(2, 4, 10), usage=usage, duration=20.0)
        assert np.all(record.unused_series() >= 0)

    def test_utilization_series_in_unit_range(self):
        record = make_record()
        util = record.utilization_series()
        assert np.all(util >= 0) and np.all(util <= 1)

    def test_utilization_zero_request(self):
        record = make_record(request=(2, 0, 10))
        assert np.all(record.utilization_series()[:, 1] == 0.0)

    def test_with_usage(self):
        record = make_record()
        finer = np.tile([1.0, 2.0, 5.0], (12, 1))
        out = record.with_usage(finer, 5.0)
        assert out.n_samples == 12
        assert out.sample_period_s == 5.0
        assert out.task_id == record.task_id


class TestTrace:
    def test_sorted_by_submit_time(self):
        trace = Trace(
            [make_record(task_id=1, submit=30.0), make_record(task_id=2, submit=10.0)]
        )
        assert [r.task_id for r in trace] == [2, 1]

    def test_sort_ties_by_task_id(self):
        trace = Trace(
            [make_record(task_id=5, submit=10.0), make_record(task_id=2, submit=10.0)]
        )
        assert [r.task_id for r in trace] == [2, 5]

    def test_len_getitem(self):
        trace = Trace([make_record(task_id=i) for i in range(3)])
        assert len(trace) == 3
        assert trace[1].task_id == 1

    def test_duration(self):
        trace = Trace([make_record(submit=100.0, duration=60.0)])
        assert trace.duration_s() == pytest.approx(160.0)

    def test_duration_empty(self):
        assert Trace().duration_s() == 0.0

    def test_short_fraction(self):
        trace = Trace(
            [
                make_record(task_id=1, is_short=True),
                make_record(task_id=2, is_short=False),
            ]
        )
        assert trace.short_fraction() == pytest.approx(0.5)
        assert Trace().short_fraction() == 0.0

    def test_filter(self):
        trace = Trace([make_record(task_id=i) for i in range(4)])
        kept = trace.filter(lambda r: r.task_id % 2 == 0)
        assert [r.task_id for r in kept] == [0, 2]

    def test_map(self):
        trace = Trace([make_record(task_id=0, duration=60.0)])
        finer = trace.map(
            lambda r: r.with_usage(np.repeat(r.usage, 2, axis=0), 5.0)
        )
        assert finer[0].n_samples == 12

    def test_stacked_usage(self):
        trace = Trace([make_record(task_id=0), make_record(task_id=1)])
        assert trace.stacked_usage().shape == (12, 3)
        assert Trace().stacked_usage().shape == (0, 3)

    def test_stacked_unused(self):
        trace = Trace([make_record(task_id=0)])
        assert trace.stacked_unused().shape == (6, 3)
        assert np.all(trace.stacked_unused() >= 0)

    def test_short_timeout_constant(self):
        # Section I: maximum timeout of 5 minutes.
        assert SHORT_JOB_TIMEOUT_S == 300.0


class TestContentDigest:
    def test_seed_7_history_digest_is_pinned(self):
        """The digest keys every stored predictor (``--store``): it hashes
        ``repr(tuple(requested))``, a tuple of ``np.float64``.  A request
        held in another form (``.tolist()`` floats) would change it and
        orphan every stored artifact."""
        from repro import api

        history = api.build_scenario(jobs=30, seed=7).history_trace()
        assert all(type(x) is np.float64 for x in tuple(history[0].requested))
        assert history.content_digest() == (
            "285e067ff67c2039746b588e76d049e1273b1722fa14ba02dbe725b3f8d76265"
        )
