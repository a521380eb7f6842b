"""Containers for Google-trace-like task records.

The paper's evaluation replays the Google cluster trace [39], which
"records the resource requirements and usage of tasks every 5 minutes"
(Section IV).  A :class:`TaskRecord` captures exactly what the evaluation
needs from such a trace: when the task was submitted, how long it ran,
how much of each resource it *requested* (its allocation) and how much it
actually *used* at each sampling interval.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, replace
from typing import Iterable, Sequence

import numpy as np

from ..cluster.resources import NUM_RESOURCES, as_row

__all__ = ["TaskRecord", "Trace", "SHORT_JOB_TIMEOUT_S"]

#: Maximum runtime of a short-lived job, in seconds.  "Short-lived jobs
#: ... typically run for seconds or minutes with a maximum timeout of 5
#: minutes" (Section I, refs [10]-[13]).
SHORT_JOB_TIMEOUT_S: float = 300.0


@dataclass(frozen=True, eq=False)
class TaskRecord:
    """One task of one job in the trace (equal and hashed by identity).

    Attributes
    ----------
    task_id:
        Unique identifier within the trace.
    submit_time_s:
        Submission timestamp, seconds from trace start.
    duration_s:
        Nominal (uncontended) runtime in seconds.
    requested:
        Per-resource amount the task requested — this is the amount the
        cloud *allocates* (``r_ij`` in the paper's notation); stored as
        a read-only float64 ``(l,)`` row.
    usage:
        ``(n_samples, NUM_RESOURCES)`` float array of actual usage
        (``d_ij`` per sample), sampled every ``sample_period_s`` seconds.
        Usage never exceeds ``requested``.
    sample_period_s:
        Seconds between consecutive usage samples (5 minutes for the raw
        Google trace; 10 seconds after the paper's transformation).
    is_short:
        Whether the task is short-lived (``duration_s`` within the
        5-minute timeout).  Long-lived tasks are filtered out before the
        evaluation (Section IV).
    """

    task_id: int
    submit_time_s: float
    duration_s: float
    requested: np.ndarray
    usage: np.ndarray
    sample_period_s: float
    is_short: bool = field(default=True)

    def __post_init__(self) -> None:
        requested = as_row(self.requested)
        usage = np.asarray(self.usage, dtype=np.float64)
        if usage.ndim != 2 or usage.shape[1] != NUM_RESOURCES:
            raise ValueError(
                f"usage must be (n_samples, {NUM_RESOURCES}); got {usage.shape}"
            )
        if usage.shape[0] < 1:
            raise ValueError("usage needs at least one sample")
        # Stated as what holds, so a NaN (which fails every comparison) fails.
        if not 0 < self.duration_s < math.inf:
            raise ValueError("duration_s must be positive and finite")
        if not 0 < self.sample_period_s < math.inf:
            raise ValueError("sample_period_s must be positive and finite")
        if not math.isfinite(self.submit_time_s):
            raise ValueError("submit_time_s must be finite")
        amounts = requested.tolist()
        if not math.isfinite(sum(amounts)):  # a NaN or inf anywhere
            raise ValueError("requested amounts must be finite")
        if min(amounts) < -1e-9:
            raise ValueError("requested amounts must be non-negative")
        if not (usage.min() >= -1e-12 and usage.max() < np.inf):  # NaN fails both
            raise ValueError("usage must be finite and non-negative")
        usage = usage.copy()
        usage.setflags(write=False)
        object.__setattr__(self, "requested", requested)
        object.__setattr__(self, "usage", usage)

    @property
    def n_samples(self) -> int:
        """Number of usage samples the record carries."""
        return int(self.usage.shape[0])

    def usage_at(self, sample_index: int) -> np.ndarray:
        """Usage row at a sample index (clamped to the last sample), a
        read-only view of :attr:`usage`."""
        idx = min(max(sample_index, 0), self.n_samples - 1)
        return self.usage[idx]

    def unused_series(self) -> np.ndarray:
        """Per-sample allocated-but-unused amounts ``r - d`` (Section II).

        Returns a ``(n_samples, NUM_RESOURCES)`` array, clipped at zero.
        """
        return np.maximum(self.requested - self.usage, 0.0)

    def utilization_series(self) -> np.ndarray:
        """Per-sample fraction of the request actually used, in ``[0, 1]``.

        Resources with a zero request report zero utilization.
        """
        req = self.requested
        out = np.zeros_like(self.usage)
        nz = req > 0
        out[:, nz] = self.usage[:, nz] / req[nz]
        return np.clip(out, 0.0, 1.0)

    def with_usage(self, usage: np.ndarray, sample_period_s: float) -> "TaskRecord":
        """Copy of this record with a resampled usage series."""
        return replace(self, usage=usage, sample_period_s=sample_period_s)


class Trace:
    """An ordered collection of :class:`TaskRecord` objects.

    Records are kept sorted by submission time, which is the order the
    workload driver replays them in.
    """

    def __init__(self, records: Iterable[TaskRecord] = ()) -> None:
        self._records: list[TaskRecord] = sorted(
            records, key=lambda r: (r.submit_time_s, r.task_id)
        )

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self):
        return iter(self._records)

    def __getitem__(self, idx: int) -> TaskRecord:
        return self._records[idx]

    @property
    def records(self) -> Sequence[TaskRecord]:
        """Immutable view of the records, in replay order."""
        return tuple(self._records)

    def duration_s(self) -> float:
        """Time span from trace start to the last task's completion."""
        if not self._records:
            return 0.0
        return max(r.submit_time_s + r.duration_s for r in self._records)

    def short_fraction(self) -> float:
        """Fraction of records flagged short-lived.

        "Most of the jobs in the Google trace are short jobs" [6]; the
        generator and tests assert this property holds.
        """
        if not self._records:
            return 0.0
        return sum(r.is_short for r in self._records) / len(self._records)

    def filter(self, predicate) -> "Trace":
        """New trace containing only records satisfying ``predicate``."""
        return Trace(r for r in self._records if predicate(r))

    def map(self, fn) -> "Trace":
        """New trace with ``fn`` applied to every record."""
        return Trace(fn(r) for r in self._records)

    def stacked_usage(self) -> np.ndarray:
        """Concatenate all usage rows into one ``(N, NUM_RESOURCES)`` array.

        Convenient for fitting global statistics (e.g. the HMM's
        historical peak/valley intervals in Section III-A.1b).
        """
        if not self._records:
            return np.zeros((0, NUM_RESOURCES))
        return np.vstack([r.usage for r in self._records])

    def stacked_unused(self) -> np.ndarray:
        """Concatenate all unused-resource rows (``r - d``) into one array."""
        if not self._records:
            return np.zeros((0, NUM_RESOURCES))
        return np.vstack([r.unused_series() for r in self._records])

    def content_digest(self) -> str:
        """Stable hex digest of the trace's full content.

        Two traces with identical records hash identically even when
        they are distinct objects — sweeps regenerate the same seeded
        history trace at every point, and caches keyed on object
        identity would refit the predictor each time.  Records are
        immutable, so the digest is computed once and memoized.
        """
        cached = getattr(self, "_digest", None)
        if cached is not None:
            return cached
        h = hashlib.sha256()
        for r in self._records:
            h.update(
                repr(
                    (
                        r.task_id,
                        r.submit_time_s,
                        r.duration_s,
                        r.sample_period_s,
                        r.is_short,
                        tuple(r.requested),
                    )
                ).encode()
            )
            h.update(r.usage.tobytes())
        digest = h.hexdigest()
        self._digest = digest
        return digest
