"""Events, sinks and the JSONL round trip."""

import json
import math

import numpy as np
import pytest

from repro.obs import (
    Event,
    JsonlSink,
    MemorySink,
    NullSink,
    events_by_name,
    read_jsonl,
)
from repro.obs.events import _sanitize


class TestEvent:
    def test_to_dict_puts_name_first(self):
        ev = Event(name="slot", fields={"slot": 3, "utilization": 0.5})
        d = ev.to_dict()
        assert d["event"] == "slot"
        assert d["slot"] == 3 and d["utilization"] == 0.5

    def test_frozen(self):
        ev = Event(name="x", fields={})
        with pytest.raises(AttributeError):
            ev.name = "y"


class TestSanitize:
    def test_nan_becomes_none(self):
        assert _sanitize(float("nan")) is None
        assert _sanitize(float("inf")) is None and _sanitize(-float("inf")) is None
        assert _sanitize([1.0, float("nan")]) == [1.0, None]
        assert _sanitize({"a": float("nan")}) == {"a": None}

    def test_numpy_scalars_and_arrays(self):
        assert _sanitize(np.float64(0.25)) == 0.25
        assert _sanitize(np.int64(4)) == 4
        assert _sanitize(np.array([1.0, 2.0])) == [1.0, 2.0]
        assert _sanitize(np.float64("nan")) is None

    def test_nested_structures(self):
        payload = {"probs": (np.float64(0.1), float("nan")), "k": [{"v": np.int32(2)}]}
        out = _sanitize(payload)
        assert out == {"probs": [0.1, None], "k": [{"v": 2}]}
        json.dumps(out)  # must be serializable


class TestSinks:
    def test_null_sink_discards(self):
        sink = NullSink()
        sink.emit(Event(name="a", fields={}))
        sink.close()  # no-op, no error

    def test_memory_sink_collects_and_filters(self):
        sink = MemorySink()
        sink.emit(Event(name="a", fields={"i": 1}))
        sink.emit(Event(name="b", fields={"i": 2}))
        sink.emit(Event(name="a", fields={"i": 3}))
        assert len(sink.events) == 3
        assert [e.fields["i"] for e in sink.named("a")] == [1, 3]

    def test_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "ev.jsonl"
        with JsonlSink(str(path)) as sink:
            sink.emit(Event(name="slot", fields={"slot": 0, "u": 0.5}))
            sink.emit(Event(name="placement", fields={"job": "j1", "vm": 2}))
        records = list(read_jsonl(str(path)))
        assert [r["event"] for r in records] == ["slot", "placement"]
        assert records[0]["u"] == 0.5 and records[1]["vm"] == 2

    def test_jsonl_sanitizes_nan_and_numpy(self, tmp_path):
        path = tmp_path / "ev.jsonl"
        with JsonlSink(str(path)) as sink:
            sink.emit(Event(
                name="preemption",
                fields={"probabilities": [np.float64(0.9), float("nan")]},
            ))
        # Every line must be strict JSON (no bare NaN tokens).
        for line in path.read_text().splitlines():
            rec = json.loads(line)
        assert rec["probabilities"] == [0.9, None]

    def test_jsonl_writes_infinities_as_null(self, tmp_path):
        """``±inf`` has no strict-JSON spelling either: in a scalar, a
        list and a numpy array it is written as ``null``."""
        path = tmp_path / "ev.jsonl"
        inf = float("inf")
        with JsonlSink(str(path)) as sink:
            sink.emit(Event(name="x", fields={"a": inf, "b": -inf}))
            sink.emit(Event(name="x", fields={"a": [1.0, -inf, inf]}))
            sink.emit(Event(name="x", fields={"a": np.array([inf, -inf, 0.5])}))
            sink.emit(Event(name="x", fields={"a": np.float64(-inf)}))

        def refuse(token):
            raise ValueError(f"non-strict JSON token {token}")

        records = [
            json.loads(line, parse_constant=refuse)
            for line in path.read_text().splitlines()
        ]
        assert records == [
            {"event": "x", "a": None, "b": None},
            {"event": "x", "a": [1.0, None, None]},
            {"event": "x", "a": [None, None, 0.5]},
            {"event": "x", "a": None},
        ]

    def test_jsonl_bytes_equal_the_sanitized_encoding(self, tmp_path):
        """An event the strict encoder takes as it is is written exactly
        as the sanitize-then-``json.dumps`` path writes it."""
        fields = [
            {"slot": 3, "u": 0.1 + 0.2, "name": "CORP", "ok": True, "partner": None},
            {"probabilities": (0.25, 1.0, 1e-300), "nested": {"k": [1, 2.5]}},
            {"text": "\u00e9\u00e8 \"quoted\"", "big": 2**62, "neg": -0.0},
        ]
        path = tmp_path / "ev.jsonl"
        with JsonlSink(str(path)) as sink:
            for f in fields:
                sink.emit(Event(name="e", fields=f))
        want = "".join(
            json.dumps(_sanitize(Event(name="e", fields=f).to_dict())) + "\n"
            for f in fields
        )
        assert path.read_text() == want

    def test_jsonl_into_existing_stream(self, tmp_path):
        path = tmp_path / "ev.jsonl"
        with open(path, "w") as fh:
            sink = JsonlSink(fh)
            sink.emit(Event(name="x", fields={"v": math.pi}))
            sink.close()  # must NOT close a caller-owned stream
            assert not fh.closed
        assert list(read_jsonl(str(path)))[0]["event"] == "x"

    def test_events_by_name_groups(self):
        records = [{"event": "a", "i": 1}, {"event": "b"}, {"event": "a", "i": 2}]
        grouped = events_by_name(records)
        assert [r["i"] for r in grouped["a"]] == [1, 2]
        assert len(grouped["b"]) == 1
