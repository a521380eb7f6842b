"""Diurnal arrival curves with flash-crowd spikes.

A :class:`DiurnalPattern` turns the evaluation batch's roughly uniform
arrival times into a millions-of-users day/night cycle: a sinusoidal
base intensity (peak-to-trough ratio ``day_night_ratio``) plus
``n_spikes`` seeded Gaussian flash-crowd bumps.  The transformation is
an inverse-CDF *time warp* — original times are treated as quantiles of
the integrated intensity, so it is strictly monotone (arrival order is
preserved), conserves the job count exactly, maps the span endpoints to
themselves, and is a deterministic function of the pattern alone.  No
job is dropped or invented: the same workload simply arrives on a
bursty clock, which is exactly the regime predictive provisioning is
supposed to win in.

:func:`flash_crowd_p99_wait` reports the p99 scheduling wait (slots) of
jobs arriving inside a spike window — the "did the flash crowd starve?"
summary metric.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from ...cluster.job import Job
    from ...trace.records import TaskRecord

__all__ = [
    "DiurnalPattern",
    "apply_diurnal",
    "flash_crowd_p99_wait",
]

#: Intensity grid resolution for the numerical inverse CDF.  2049 points
#: over a ~100 s span resolves features far narrower than any spike.
_GRID_POINTS = 2049

#: Intensity floor: keeps the integrated intensity strictly increasing,
#: so the warp stays invertible even deep in the "night" trough.
_MIN_INTENSITY = 0.05


@dataclass(frozen=True)
class DiurnalPattern:
    """One deterministic diurnal arrival-rate curve.

    Attributes
    ----------
    period_s:
        Length of one day/night cycle in *trace* seconds.  The default
        puts two full cycles inside the default 100 s arrival span.
    day_night_ratio:
        Peak-to-trough intensity ratio of the sinusoidal base (> 1).
    n_spikes:
        Number of flash-crowd spikes, placed at seeded uniform positions
        over the span.
    spike_width_s:
        Gaussian sigma of each spike, in trace seconds.
    spike_boost:
        Peak intensity a spike adds on top of the base curve.
    seed:
        Seeds the spike positions; everything else is closed-form.
    """

    period_s: float = 50.0
    day_night_ratio: float = 4.0
    n_spikes: int = 2
    spike_width_s: float = 4.0
    spike_boost: float = 6.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.period_s <= 0:
            raise ValueError("period_s must be positive")
        if self.day_night_ratio <= 1.0:
            raise ValueError("day_night_ratio must be > 1")
        if self.n_spikes < 0:
            raise ValueError("n_spikes must be >= 0")
        if self.spike_width_s <= 0:
            raise ValueError("spike_width_s must be positive")
        if self.spike_boost < 0:
            raise ValueError("spike_boost must be >= 0")

    # ------------------------------------------------------------------
    def spike_centers(self, span_s: float) -> np.ndarray:
        """Seeded spike positions over ``[0, span_s]`` (sorted)."""
        if self.n_spikes == 0:
            return np.zeros(0)
        rng = np.random.default_rng(self.seed)
        # Keep centers away from the edges so a spike is a spike, not a
        # half-clipped boundary artifact.
        lo, hi = 0.1 * span_s, 0.9 * span_s
        return np.sort(rng.uniform(lo, hi, size=self.n_spikes))

    def spike_windows(self, span_s: float) -> list[tuple[float, float]]:
        """``(start_s, end_s)`` flash-crowd windows (±2 sigma per spike)."""
        half = 2.0 * self.spike_width_s
        return [
            (float(c - half), float(c + half))
            for c in self.spike_centers(span_s)
        ]

    def intensity(self, t: np.ndarray, span_s: float) -> np.ndarray:
        """Arrival intensity λ(t) over the span (vectorized, floored)."""
        t = np.asarray(t, dtype=np.float64)
        ratio = self.day_night_ratio
        amplitude = (ratio - 1.0) / (ratio + 1.0)
        lam = 1.0 + amplitude * np.sin(2.0 * np.pi * t / self.period_s)
        for center in self.spike_centers(span_s):
            z = (t - center) / self.spike_width_s
            lam = lam + self.spike_boost * np.exp(-0.5 * z * z)
        return np.maximum(lam, _MIN_INTENSITY)

    def warp_times(self, times: np.ndarray, span_s: float) -> np.ndarray:
        """Map uniform-clock times to diurnal-clock times over the span.

        Inverse-CDF construction: ``t' = Λ⁻¹(t/span · Λ(span))`` where
        ``Λ`` is the integrated intensity.  Strictly monotone (λ is
        floored above zero), endpoint-preserving, and exact about counts
        — it relocates arrivals, never creates or destroys them.
        """
        times = np.asarray(times, dtype=np.float64)
        if span_s <= 0:
            return times.copy()
        grid = np.linspace(0.0, span_s, _GRID_POINTS)
        lam = self.intensity(grid, span_s)
        # Trapezoid cumulative integral of λ over the grid; Λ(0) = 0.
        step = grid[1] - grid[0]
        cum = np.concatenate(
            ([0.0], np.cumsum((lam[1:] + lam[:-1]) * 0.5 * step))
        )
        targets = np.clip(times, 0.0, span_s) / span_s * cum[-1]
        return np.interp(targets, cum, grid)


def apply_diurnal(
    records: Iterable["TaskRecord"], pattern: DiurnalPattern
) -> list["TaskRecord"]:
    """Rewrite submit times through the pattern's time warp.

    The span is the records' own arrival span, so the warp composes
    with any upstream subsampling.  Count, order and every non-arrival
    field are preserved exactly.
    """
    records = list(records)
    if not records:
        return records
    times = np.array([r.submit_time_s for r in records])
    span = float(times.max())
    warped = pattern.warp_times(times, span)
    return [
        replace(record, submit_time_s=float(t))
        for record, t in zip(records, warped)
    ]


def flash_crowd_p99_wait(jobs: Sequence["Job"], pattern: DiurnalPattern) -> float:
    """p99 scheduling wait (slots) of jobs arriving in a spike window.

    Wait is ``start_slot - submit_slot`` over jobs that did start;
    membership is judged on the record's (post-warp) submit time, the
    span being the jobs' own arrival span (as in :func:`apply_diurnal`).
    Returns ``0.0`` when no spike-window job ever started.
    """
    span_s = max((job.record.submit_time_s for job in jobs), default=0.0)
    windows = pattern.spike_windows(span_s)
    waits = []
    for job in jobs:
        if job.start_slot is None:
            continue
        t = job.record.submit_time_s
        if any(lo <= t <= hi for lo, hi in windows):
            waits.append(job.start_slot - job.submit_slot)
    if not waits:
        return 0.0
    return float(np.percentile(np.asarray(waits, dtype=np.float64), 99))
