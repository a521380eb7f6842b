"""Structured events and the sinks that receive them.

An :class:`Event` is a named bag of scalar fields describing one runtime
decision (a slot executed, a job placed, the preemption gate evaluated,
a predictor fitted).  Producers never format or store events themselves;
they hand them to whatever :class:`Sink` is attached to the global
observer (:mod:`repro.obs.observer`).  With no sink attached nothing is
built or written — the instrumentation call sites all guard on
``OBS.enabled`` so the disabled cost is one attribute load and a branch.

Sinks:

* :class:`NullSink` — accepts and discards (for overhead measurements);
* :class:`MemorySink` — accumulates events in a list (tests, notebooks);
* :class:`JsonlSink` — one JSON object per line, append-only, with
  numpy scalars/arrays coerced to plain JSON types.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import IO, Iterable, Iterator, Mapping, Protocol, runtime_checkable

__all__ = [
    "Event",
    "Sink",
    "NullSink",
    "MemorySink",
    "JsonlSink",
    "read_jsonl",
    "events_by_name",
]


@dataclass(frozen=True)
class Event:
    """One structured observation: a name plus scalar fields."""

    name: str
    fields: Mapping[str, object] = field(default_factory=dict)

    def to_dict(self) -> dict[str, object]:
        """Flat dict form, with the name under the ``"event"`` key."""
        out: dict[str, object] = {"event": self.name}
        out.update(self.fields)
        return out


@runtime_checkable
class Sink(Protocol):
    """Anything that can receive events."""

    def emit(self, event: Event) -> None:
        """Receive one event."""
        ...

    def close(self) -> None:
        """Flush and release resources (idempotent)."""
        ...


class NullSink:
    """Accepts and discards every event (the overhead-measurement sink)."""

    def emit(self, event: Event) -> None:
        pass

    def close(self) -> None:
        pass


class MemorySink:
    """Buffers events in memory — the test/notebook sink."""

    def __init__(self) -> None:
        self.events: list[Event] = []

    def emit(self, event: Event) -> None:
        self.events.append(event)

    def close(self) -> None:
        pass

    def __len__(self) -> int:
        return len(self.events)

    def named(self, name: str) -> list[Event]:
        """Events with a given name, in emission order."""
        return [e for e in self.events if e.name == name]


def _sanitize(value: object) -> object:
    """Coerce numpy scalars/arrays to JSON types and non-finite floats
    to ``null``.

    Applied recursively so every emitted line stays strictly parseable
    (``json.dumps`` would otherwise write bare ``NaN`` / ``Infinity``
    literals).
    """
    if hasattr(value, "item") and not hasattr(value, "__len__"):
        value = value.item()  # numpy scalar
    if hasattr(value, "tolist"):
        value = value.tolist()  # numpy array
    if isinstance(value, float) and not math.isfinite(value):
        return None  # NaN and infinity have no strict-JSON spelling
    if isinstance(value, (list, tuple)):
        return [_sanitize(v) for v in value]
    if isinstance(value, dict):
        return {k: _sanitize(v) for k, v in value.items()}
    return value


#: Strict JSON: raises ``ValueError`` on NaN / infinity instead of
#: writing a literal no strict parser reads.
_STRICT = json.JSONEncoder(allow_nan=False)


class JsonlSink:
    """Writes one JSON object per event line to a file.

    Accepts a path (opened for writing, closed by :meth:`close`) or an
    already-open text stream (left open).  Non-finite float values are
    written as ``null`` so every line stays strictly parseable.

    An event is encoded once by the strict C encoder; only one it
    refuses — numpy values, NaN, infinity — is walked by
    :func:`_sanitize` and encoded again.  Where both succeed they write
    the same bytes.
    """

    def __init__(self, target: str | IO[str]) -> None:
        #: The backing file path, or ``None`` for stream-backed sinks.
        #: Parallel runners consult this to decide whether the sink can
        #: be sharded per worker and merged on join.
        self.path: str | None = None
        if isinstance(target, str):
            self.path = target
            self._fh: IO[str] = open(target, "w")
            self._owns = True
        else:
            self._fh = target
            self._owns = False
        self._closed = False

    def emit(self, event: Event) -> None:
        record = event.to_dict()
        try:
            line = _STRICT.encode(record)
        except (TypeError, ValueError):
            line = _STRICT.encode(_sanitize(record))
        self._fh.write(line + "\n")

    def flush(self) -> None:
        """Push buffered lines to the OS.

        Parallel runners call this before forking worker processes:
        a fork duplicates any unflushed stdio buffer into every child,
        and each child's exit would flush the same lines again —
        duplicating events in the target file.
        """
        self._fh.flush()

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._fh.flush()
        if self._owns:
            self._fh.close()

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def read_jsonl(path: str, *, names: Iterable[str] | None = None) -> Iterator[dict]:
    """Parse a JSONL event file back into dicts (blank lines skipped).

    ``names`` keeps only records whose ``"event"`` name is listed —
    large captures are dominated by per-slot events, so consumers that
    want a few event types (e.g. differential replay) skip the rest
    without building them.
    """
    wanted = None if names is None else set(names)
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            if wanted is None or record.get("event") in wanted:
                yield record


def events_by_name(records: Iterable[dict]) -> dict[str, list[dict]]:
    """Group parsed JSONL records by their ``"event"`` name."""
    out: dict[str, list[dict]] = {}
    for record in records:
        out.setdefault(str(record.get("event")), []).append(record)
    return out
