"""Differential replay of captured event streams (repro.check.replay)."""

from __future__ import annotations

import json

import pytest

from repro import api
from repro.check.replay import replay_events

pytestmark = pytest.mark.slow


@pytest.fixture(scope="module")
def capture_path(tmp_path_factory):
    """One small replayable capture shared by the module's tests."""
    path = str(tmp_path_factory.mktemp("replay") / "capture.jsonl")
    report = api.check_run(jobs=10, methods=("DRA", "CORP"), events=path)
    assert report.ok, report.rows()
    return path


def rewrite(src: str, dst, transform) -> str:
    """Copy a JSONL capture line by line through ``transform(record)``."""
    out = dst / "rewritten.jsonl"
    with open(src) as fh, open(out, "w") as wh:
        for line in fh:
            record = transform(json.loads(line))
            if record is not None:
                wh.write(json.dumps(record) + "\n")
    return str(out)


class TestRoundTrip:
    def test_clean_capture_replays_exactly(self, capture_path):
        report = api.replay(events=capture_path)
        assert report.ok, [m.as_row() for m in report.mismatches]
        assert report.n_compared > 0
        assert report.meta["jobs"] == 10
        assert report.meta["methods"] == ["DRA", "CORP"]

    def test_method_subset_replay(self, capture_path):
        report = api.replay(events=capture_path, methods=("DRA",))
        assert report.ok, [m.as_row() for m in report.mismatches]
        assert report.n_compared > 0


class TestDriftDetection:
    def test_corrupted_slot_field_is_localized(self, capture_path, tmp_path):
        state = {"done": False}

        def corrupt(record):
            if record.get("event") == "slot" and not state["done"]:
                state["done"] = True
                record["running"] = record.get("running", 0) + 1
            return record

        path = rewrite(capture_path, tmp_path, corrupt)
        report = replay_events(events=path)
        assert not report.ok
        assert any(
            m.kind == "slot" and m.field == "running"
            for m in report.mismatches
        )

    @pytest.mark.parametrize(
        "corrupted, drop_placement, truncated",
        [(1, False, False), (2, False, True), (1, True, True)],
        ids=["one-mismatch-fits", "second-dropped", "count-mismatch-capped"],
    )
    def test_truncated_only_when_a_mismatch_is_dropped(
        self, capture_path, tmp_path, corrupted, drop_placement, truncated
    ):
        """With a cap of one, a lone mismatch is complete; a second one
        (a field or a stream count) is dropped and flagged."""
        state = {"slots": 0, "dropped": False}

        def corrupt(record):
            if record.get("event") == "slot" and state["slots"] < corrupted:
                state["slots"] += 1
                record["running"] = record.get("running", 0) + 1
            if (
                drop_placement
                and record.get("event") == "placement"
                and not state["dropped"]
            ):
                state["dropped"] = True
                return None
            return record

        path = rewrite(capture_path, tmp_path, corrupt)
        report = replay_events(events=path, max_mismatches=1)
        assert len(report.mismatches) == 1
        assert report.truncated is truncated
        assert not report.ok

    def test_dropped_record_reported_as_stream_mismatch(
        self, capture_path, tmp_path
    ):
        state = {"dropped": False}

        def drop_one(record):
            if record.get("event") == "placement" and not state["dropped"]:
                state["dropped"] = True
                return None
            return record

        path = rewrite(capture_path, tmp_path, drop_one)
        report = replay_events(events=path)
        assert not report.ok
        assert any(
            m.kind == "stream" and m.field == "placement_count"
            for m in report.mismatches
        )


class TestRejections:
    def test_missing_run_meta_rejected(self, capture_path, tmp_path):
        path = rewrite(
            capture_path,
            tmp_path,
            lambda r: None if r.get("event") == "run_meta" else r,
        )
        with pytest.raises(ValueError, match="run_meta"):
            replay_events(events=path)

    def test_non_replayable_capture_rejected(self, capture_path, tmp_path):
        def mark(record):
            if record.get("event") == "run_meta":
                record["replayable"] = False
            return record

        path = rewrite(capture_path, tmp_path, mark)
        with pytest.raises(ValueError, match="not replayable"):
            replay_events(events=path)

    def test_unknown_method_rejected(self, capture_path):
        with pytest.raises(ValueError, match="RCCR"):
            api.replay(events=capture_path, methods=("RCCR",))

    def test_attached_sink_rejected(self, capture_path, tmp_path):
        api.attach_sink(str(tmp_path / "other.jsonl"))
        try:
            with pytest.raises(RuntimeError, match="sink is attached"):
                api.replay(events=capture_path)
        finally:
            api.detach_sink()


class TestFaultedCapture:
    def test_fault_plan_round_trips_through_run_meta(self, tmp_path):
        """A faulted capture serializes its plan into run_meta; replay
        rebuilds the identical plan and reproduces the faulted run."""
        path = str(tmp_path / "faulted.jsonl")
        plan = api.build_fault_plan(seed=0, intensity=0.5)
        report = api.check_run(
            jobs=10, methods=("DRA",), fault_plan=plan, events=path
        )
        assert report.ok, report.rows()
        replayed = api.replay(events=path)
        assert replayed.ok, [m.as_row() for m in replayed.mismatches]
        assert replayed.meta["fault_plan"] is not None


class TestPrebuiltScenario:
    def test_prebuilt_scenario_capture_is_not_replayable(self, tmp_path):
        """compare(scenario=...) can't embed (jobs, testbed, seed), so its
        capture must refuse replay instead of replaying the wrong run."""
        scenario = api.build_scenario(jobs=10)
        path = str(tmp_path / "prebuilt.jsonl")
        with api.capture_events(path):
            api.compare(scenario=scenario, methods=("DRA",))
        with pytest.raises(ValueError, match="not replayable"):
            replay_events(events=path)
