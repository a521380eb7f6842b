"""Differential replay: re-run a captured event stream and diff it.

A JSONL capture whose first record is a ``run_meta`` event (emitted by
:func:`repro.api.compare` / :func:`repro.api.check_run` whenever a sink
is attached and the scenario was built from its ``(jobs, testbed,
seed)`` triple) fully describes the run that produced it: workload
parameters, method list, and the serialized fault plan.  Replay rebuilds
that exact run, captures its own event stream in memory, and diffs the
per-slot state (``slot`` events: utilization / wastage / queue depth /
running / completed / rejected) and every placement decision
(``placement`` events: job / VM / class / packing partner / Eq. 22
volume) against the capture, in order.

The simulator is deterministic, so a clean replay matches the capture
*exactly*; any mismatch localizes a behavioural drift to the first slot
and field where the two streams diverge — Buchbinder et al.
(arXiv:2011.06250) evaluate prediction-driven allocation the same way,
by differential comparison against a reference run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from ..obs.events import MemorySink, _sanitize, events_by_name, read_jsonl

__all__ = ["ReplayMismatch", "ReplayReport", "replay_events"]

#: Event names whose streams are compared record-by-record.
COMPARED_EVENTS: tuple[str, ...] = ("slot", "placement")


@dataclass(frozen=True)
class ReplayMismatch:
    """One divergence between the captured and the live stream."""

    kind: str            # "slot" | "placement" | "stream"
    index: int           # position within the compared stream
    field: str
    captured: object
    live: object
    slot: object = None
    scheduler: object = None

    def as_row(self) -> dict[str, object]:
        """Flat dict form for tables and JSON output."""
        return {
            "kind": self.kind,
            "index": self.index,
            "slot": self.slot,
            "scheduler": self.scheduler,
            "field": self.field,
            "captured": self.captured,
            "live": self.live,
        }


@dataclass
class ReplayReport:
    """Outcome of one differential replay."""

    meta: dict
    n_compared: int
    mismatches: list[ReplayMismatch] = field(default_factory=list)
    #: True when mismatches beyond the storage cap were dropped.
    truncated: bool = False

    @property
    def ok(self) -> bool:
        """True when the live run reproduced the capture exactly."""
        return not self.mismatches and not self.truncated


def _values_match(a: object, b: object, tolerance: float) -> bool:
    """JSON-round-trip-aware equality (None stands for NaN in JSONL)."""
    if isinstance(a, bool) or isinstance(b, bool):
        return a == b
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        fa, fb = float(a), float(b)
        if math.isnan(fa) or math.isnan(fb):
            return math.isnan(fa) and math.isnan(fb)
        return math.isclose(fa, fb, rel_tol=tolerance, abs_tol=tolerance)
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(
            _values_match(x, y, tolerance) for x, y in zip(a, b)
        )
    return a == b


def _diff_streams(
    kind: str,
    captured: Sequence[dict],
    live: Sequence[dict],
    tolerance: float,
    out: list[ReplayMismatch],
    limit: int,
) -> tuple[int, bool]:
    """Diff two event streams in order, keeping at most ``limit``
    mismatches in ``out``; returns the records compared and whether a
    mismatch was dropped at the cap."""
    if len(captured) != len(live):
        if len(out) >= limit:
            return 0, True
        out.append(
            ReplayMismatch(
                kind="stream",
                index=min(len(captured), len(live)),
                field=f"{kind}_count",
                captured=len(captured),
                live=len(live),
            )
        )
    compared = 0
    for index, (want, got) in enumerate(zip(captured, live)):
        compared += 1
        keys = (set(want) | set(got)) - {"event"}
        for key in sorted(keys):
            if _values_match(want.get(key), got.get(key), tolerance):
                continue
            if len(out) >= limit:
                return compared, True
            out.append(
                ReplayMismatch(
                    kind=kind,
                    index=index,
                    field=key,
                    captured=want.get(key),
                    live=got.get(key),
                    slot=want.get("slot", got.get("slot")),
                    scheduler=want.get("scheduler", got.get("scheduler")),
                )
            )
    return compared, False


def _rebuild_fault_plan(meta: dict):
    payload = meta.get("fault_plan")
    if payload is None:
        return None
    from ..faults.plan import FaultPlan, RetryPolicy

    return FaultPlan.from_dicts(
        payload["events"], retry=RetryPolicy(**payload["retry"])
    )


def replay_events(
    *,
    events: str,
    methods: Iterable[str] | None = None,
    tolerance: float = 1e-9,
    max_mismatches: int = 100,
) -> ReplayReport:
    """Re-run the scenario a capture describes and diff the two streams.

    Parameters
    ----------
    events:
        Path to a JSONL capture containing a ``run_meta`` record.
    methods:
        Restrict the replay to a subset of the captured methods
        (default: replay exactly what was captured).
    tolerance:
        Relative/absolute tolerance for float field comparisons (floats
        survive the JSON round trip exactly; the slack only absorbs
        platform-level libm differences).
    """
    records = list(
        read_jsonl(events, names=("run_meta",) + COMPARED_EVENTS)
    )
    meta = next(
        (r for r in records if r.get("event") == "run_meta"), None
    )
    if meta is None:
        raise ValueError(
            f"{events!r} has no run_meta record; re-capture it with "
            "repro check --events / repro compare --events (v1.3+), "
            "which embed the run parameters replay needs"
        )
    if not meta.get("replayable", False):
        raise ValueError(
            "capture is not replayable: the original run used a prebuilt "
            "scenario whose construction parameters were not recorded"
        )
    from ..obs.observer import OBS

    if OBS.sink is not None:
        raise RuntimeError(
            "an event sink is attached; detach it before replaying "
            "(replay captures its own in-memory stream)"
        )
    chosen = tuple(methods) if methods is not None else tuple(meta["methods"])
    unknown = sorted(set(chosen) - set(meta["methods"]))
    if unknown:
        raise ValueError(
            f"method(s) {unknown} were not part of the capture "
            f"(captured: {meta['methods']})"
        )

    from .. import api

    sink = MemorySink()
    with api.capture_events(sink):
        api.compare(
            jobs=int(meta["jobs"]),
            testbed=str(meta["testbed"]),
            seed=int(meta["seed"]),
            methods=chosen,
            workers=0,
            predictor=str(meta.get("predictor", "corp")),
            fault_plan=_rebuild_fault_plan(meta),
        )
    # Sanitize the live events exactly the way JsonlSink would have
    # serialized them (numpy scalars -> JSON types, NaN -> None), so the
    # comparison sees what a round-tripped capture would contain.
    live_records = [_sanitize(e.to_dict()) for e in sink.events]

    chosen_set = set(chosen)

    def select(recs: Iterable[dict], name: str) -> list[dict]:
        return [
            r
            for r in recs
            if r.get("event") == name and r.get("scheduler") in chosen_set
        ]

    captured_by_name = events_by_name(records)
    live_by_name = events_by_name(live_records)
    mismatches: list[ReplayMismatch] = []
    n_compared = 0
    truncated = False
    for name in COMPARED_EVENTS:
        compared, dropped = _diff_streams(
            name,
            select(captured_by_name.get(name, ()), name),
            select(live_by_name.get(name, ()), name),
            tolerance,
            mismatches,
            max_mismatches,
        )
        n_compared += compared
        truncated = truncated or dropped
    return ReplayReport(
        meta=meta,
        n_compared=n_compared,
        mismatches=mismatches,
        truncated=truncated,
    )
