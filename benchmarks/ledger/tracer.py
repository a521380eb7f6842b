"""Span recorder for the traced pass.

A span is (id, parent id, name, start, end).  Spans nest on one stack
(the benchmark is single-threaded), every span is folded into a
per-name aggregate of count / total / self time as it closes, and the
raw record is kept only for the names in ``keep_raw`` — ticks and
everything above them — so a 500k-call layer such as ``execute_slot``
costs two clock reads and a few list operations per call, not memory.

Self time is a span's duration minus the part of it its child spans
cover.  ``extra`` is one free accumulator per name, fed by the
``extra=`` hook of :meth:`Tracer.wrap` (queue depth seen, placements
that succeeded, idle VMs visited ...), so ratios are measured where the
work happens.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Any, Callable, Iterator


@dataclass
class Aggregate:
    """Everything recorded under one span name."""

    count: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    extra: float = 0.0


class SpanHandle:
    """What ``with tracer.span(...) as s`` yields; set ``s.extra`` freely."""

    extra: float = 0.0


class Tracer:
    def __init__(self, keep_raw: frozenset[str] = frozenset()) -> None:
        self.aggregates: dict[str, Aggregate] = {}
        #: (id, parent id or None, name, start, end), in closing order.
        self.raw: list[tuple[int, int | None, str, float, float]] = []
        self.keep_raw = keep_raw
        # frame = [name, start, seconds covered by children, span id]
        self._stack: list[list] = []
        self._next_id = 0

    def _open(self, name: str) -> list:
        frame = [name, 0.0, 0.0, self._next_id]
        self._next_id += 1
        self._stack.append(frame)
        frame[1] = time.perf_counter()
        return frame

    def _close(self, frame: list, end: float, name: str, extra: float) -> None:
        stack = self._stack
        stack.pop()
        duration = end - frame[1]
        agg = self.aggregates.get(name)
        if agg is None:
            agg = self.aggregates[name] = Aggregate()
        agg.count += 1
        agg.total_s += duration
        agg.self_s += duration - frame[2]
        agg.extra += extra
        parent = stack[-1] if stack else None
        if parent is not None:
            parent[2] += duration
        if name in self.keep_raw:
            self.raw.append(
                (frame[3], None if parent is None else parent[3], name, frame[1], end)
            )

    @contextmanager
    def span(self, name: str) -> Iterator[SpanHandle]:
        """Record the block as one span (the drivers' own boundaries)."""
        handle = SpanHandle()
        frame = self._open(name)
        try:
            yield handle
        finally:
            self._close(frame, time.perf_counter(), name, handle.extra)

    def wrap(
        self,
        fn: Callable[..., Any],
        name: str,
        *,
        extra: Callable[[tuple, Any], float] | None = None,
        rename: Callable[[Any], str] | None = None,
    ) -> Callable[..., Any]:
        """``fn`` recorded as span ``name`` on every call.

        ``extra(args, result)`` feeds the name's accumulator;
        ``rename(result)`` picks the span name once the result is known
        (a kernel ``advance`` is a tick or a plain event).  A call made
        while the same name is already innermost — an override reaching
        its ``super()`` — passes straight through: one logical call,
        one span.
        """
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            frame = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(frame, clock(), name, 0.0)
                raise
            end = clock()
            self._close(
                frame,
                end,
                rename(result) if rename is not None else name,
                extra(args, result) if extra is not None else 0.0,
            )
            return result

        return traced

    def mark(self) -> dict[str, Aggregate]:
        """A copy of the aggregates so far, for :meth:`get`'s ``since``."""
        return {name: replace(agg) for name, agg in self.aggregates.items()}

    def get(self, name: str, since: dict[str, Aggregate] | None = None) -> Aggregate:
        """The aggregate for ``name`` (zeros if it never ran), optionally
        counting only what was recorded after ``since`` was marked."""
        now = self.aggregates.get(name, Aggregate())
        then = (since or {}).get(name)
        if then is None:
            return now
        return Aggregate(
            now.count - then.count, now.total_s - then.total_s,
            now.self_s - then.self_s, now.extra - then.extra,
        )


@contextmanager
def null_span(name: str) -> Iterator[SpanHandle]:
    """The untraced pass's stand-in for :meth:`Tracer.span`."""
    yield SpanHandle()
