"""Trace persistence: JSONL round-trip and the CSV adapter."""

import numpy as np
import pytest

from repro.trace.io import load_jsonl, load_usage_csv, save_jsonl
from repro.trace.records import Trace

from ..conftest import make_short_trace
from .test_records import make_record


class TestJsonlRoundtrip:
    def test_lossless(self, tmp_path):
        trace = make_short_trace(n_jobs=12, seed=81)
        path = tmp_path / "trace.jsonl"
        save_jsonl(trace, path)
        loaded = load_jsonl(path)
        assert len(loaded) == len(trace)
        for a, b in zip(trace, loaded):
            assert a.task_id == b.task_id
            assert a.submit_time_s == b.submit_time_s
            assert a.duration_s == b.duration_s
            np.testing.assert_array_equal(a.requested, b.requested)
            assert not b.requested.flags.writeable
            assert a.sample_period_s == b.sample_period_s
            assert a.is_short == b.is_short
            np.testing.assert_array_equal(a.usage, b.usage)

    def test_empty_trace(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        save_jsonl(Trace(), path)
        assert len(load_jsonl(path)) == 0

    def test_blank_lines_skipped(self, tmp_path):
        trace = Trace([make_record(task_id=1)])
        path = tmp_path / "trace.jsonl"
        save_jsonl(trace, path)
        path.write_text(path.read_text() + "\n\n")
        assert len(load_jsonl(path)) == 1

    def test_corrupt_line_reports_location(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"task_id": 1\n')
        with pytest.raises(ValueError, match="bad.jsonl:1"):
            load_jsonl(path)

    def test_a_request_of_two_numbers_is_refused(self, tmp_path):
        path = tmp_path / "short.jsonl"
        save_jsonl(Trace([make_record(task_id=1)]), path)
        path.write_text(path.read_text().replace('"requested": [2.0, 4.0, 10.0]',
                                                 '"requested": [2.0, 4.0]'))
        with pytest.raises(ValueError, match="3 real entries"):
            load_jsonl(path)


class TestCsvAdapter:
    def write_pair(self, tmp_path, tasks, usage):
        tasks_path = tmp_path / "tasks.csv"
        usage_path = tmp_path / "usage.csv"
        tasks_path.write_text(
            "task_id,submit_time_s,duration_s,req_cpu,req_mem,req_storage\n"
            + "\n".join(tasks)
        )
        usage_path.write_text(
            "task_id,timestamp_s,cpu,mem,storage\n" + "\n".join(usage)
        )
        return tasks_path, usage_path

    def test_basic_assembly(self, tmp_path):
        tasks_path, usage_path = self.write_pair(
            tmp_path,
            ["1,0.0,30.0,2.0,4.0,10.0"],
            ["1,0,1.0,2.0,5.0", "1,10,1.5,2.5,6.0", "1,20,0.5,1.0,4.0"],
        )
        trace = load_usage_csv(tasks_path, usage_path, sample_period_s=10.0)
        assert len(trace) == 1
        record = trace[0]
        assert record.n_samples == 3
        np.testing.assert_allclose(record.usage[1], [1.5, 2.5, 6.0])
        assert record.is_short

    def test_long_task_flag(self, tmp_path):
        tasks_path, usage_path = self.write_pair(
            tmp_path,
            ["1,0.0,900.0,2.0,4.0,10.0"],
            ["1,0,1.0,2.0,5.0"],
        )
        trace = load_usage_csv(tasks_path, usage_path, sample_period_s=300.0)
        assert not trace[0].is_short

    def test_gaps_forward_filled(self, tmp_path):
        tasks_path, usage_path = self.write_pair(
            tmp_path,
            ["1,0.0,40.0,2.0,4.0,10.0"],
            ["1,0,1.0,2.0,5.0", "1,30,0.5,1.0,4.0"],  # slots 1-2 missing
        )
        trace = load_usage_csv(tasks_path, usage_path, sample_period_s=10.0)
        np.testing.assert_allclose(trace[0].usage[1], [1.0, 2.0, 5.0])
        np.testing.assert_allclose(trace[0].usage[2], [1.0, 2.0, 5.0])

    def test_usage_clipped_to_request(self, tmp_path):
        tasks_path, usage_path = self.write_pair(
            tmp_path,
            ["1,0.0,10.0,2.0,4.0,10.0"],
            ["1,0,99.0,99.0,99.0"],
        )
        trace = load_usage_csv(tasks_path, usage_path, sample_period_s=10.0)
        assert np.all(trace[0].usage <= [2.0, 4.0, 10.0])

    def test_unknown_task_rejected(self, tmp_path):
        tasks_path, usage_path = self.write_pair(
            tmp_path,
            ["1,0.0,10.0,2.0,4.0,10.0"],
            ["7,0,1.0,1.0,1.0"],
        )
        with pytest.raises(ValueError, match="unknown task_id 7"):
            load_usage_csv(tasks_path, usage_path, sample_period_s=10.0)

    def test_loaded_trace_runs_in_simulator(self, tmp_path):
        tasks_path, usage_path = self.write_pair(
            tmp_path,
            [f"{i},{i * 5.0},30.0,2.0,4.0,10.0" for i in range(4)],
            [f"{i},{t},1.0,2.0,5.0" for i in range(4) for t in (0, 10, 20)],
        )
        trace = load_usage_csv(tasks_path, usage_path, sample_period_s=10.0)
        from repro.cluster.profiles import ClusterProfile
        from repro.cluster.simulator import ClusterSimulator
        from ..cluster.test_simulator import GreedyScheduler

        sim = ClusterSimulator(
            ClusterProfile.palmetto(n_pms=2, vms_per_pm=1), GreedyScheduler()
        )
        result = sim.run(trace)
        assert result.n_completed == 4
