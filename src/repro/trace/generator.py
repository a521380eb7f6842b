"""Synthetic Google-cluster-trace generator.

The paper's experiments replay the public Google cluster trace [39],
keeping only short-lived tasks and resampling the 5-minute records to a
10-second granularity (Section IV).  The trace itself is not shipped with
this reproduction, so this module generates a statistically matched
substitute.  Two properties of the real trace carry the paper's argument,
and the generator controls both directly:

1. **Short-lived jobs dominate and their usage has no pattern** — their
   per-slot utilization is a regime-switching stochastic process (random
   bursts to a peak regime, random drops to a valley regime, a drifting
   centre otherwise).  Pattern-assuming predictors (FFT signatures, plain
   time-series smoothing) are structurally disadvantaged on it, exactly
   the situation Section I describes.
2. **Long-lived jobs do have patterns** — smooth periodic (diurnal-like)
   utilization — so the paper's "remove the long-lived jobs" filter
   (Section IV) is meaningful and testable.

Jobs also come in *resource-intensity classes* (CPU-, MEM-,
storage-intensive and balanced), which is what makes the complementary
packing strategy of Section III-B consequential.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from ..cluster.resources import ResourceKind, as_row
from .records import SHORT_JOB_TIMEOUT_S, TaskRecord, Trace

__all__ = ["TraceConfig", "GoogleTraceGenerator", "INTENSITY_CLASSES"]

#: Job resource-intensity classes and the (low, high) request ranges per
#: resource, in (cores, GB, GB).  The mix mirrors the heterogeneity the
#: Google trace analysis reports [6] and gives the packing strategy
#: complementary pairs to exploit (Fig. 1 / Fig. 4 of the paper).
INTENSITY_CLASSES: dict[str, dict[ResourceKind, tuple[float, float]]] = {
    "cpu": {
        ResourceKind.CPU: (4.0, 7.0),
        ResourceKind.MEM: (1.0, 3.0),
        ResourceKind.STORAGE: (5.0, 20.0),
    },
    "mem": {
        ResourceKind.CPU: (0.5, 2.0),
        ResourceKind.MEM: (8.0, 24.0),
        ResourceKind.STORAGE: (5.0, 20.0),
    },
    "storage": {
        ResourceKind.CPU: (0.5, 2.0),
        ResourceKind.MEM: (1.0, 3.0),
        ResourceKind.STORAGE: (80.0, 300.0),
    },
    "balanced": {
        ResourceKind.CPU: (2.0, 4.0),
        ResourceKind.MEM: (3.0, 8.0),
        ResourceKind.STORAGE: (20.0, 80.0),
    },
}


@dataclass(frozen=True)
class TraceConfig:
    """Knobs of the synthetic trace.

    Defaults reproduce the evaluation setup of Section IV: mostly short
    jobs, 5-minute raw sampling, heavy-tailed short durations capped at
    the 5-minute timeout.
    """

    n_jobs: int = 100
    #: Mean of the Poisson arrival process, jobs per second.  Ignored
    #: when ``arrival_span_s`` is set.
    arrival_rate_per_s: float = 0.25
    #: When set, submissions are uniform over ``[0, arrival_span_s]``
    #: instead of Poisson — the evaluation sweeps the job count on a
    #: fixed arrival span, so more jobs means a denser cluster (the
    #: regime in which Fig. 7's utilization rises with the job count).
    arrival_span_s: float | None = None
    #: Fraction of jobs that are short-lived ("most of the jobs in the
    #: Google trace are short jobs" [6]).
    short_fraction: float = 0.9
    #: Raw sampling period; the Google trace records every 5 minutes.
    sample_period_s: float = 300.0
    #: Log-normal parameters of short-job durations (seconds), clipped to
    #: ``[min_duration_s, SHORT_JOB_TIMEOUT_S]``.
    short_duration_mu: float = 4.3
    short_duration_sigma: float = 0.8
    min_duration_s: float = 20.0
    #: Long-job duration range (seconds) — hours, like Google service jobs.
    long_duration_range_s: tuple[float, float] = (3600.0, 6 * 3600.0)
    #: Probability per sample of entering a burst (peak) regime and the
    #: mean number of samples a burst lasts.
    burst_prob: float = 0.12
    burst_mean_len: float = 2.0
    #: Probability per sample of entering a valley regime.
    valley_prob: float = 0.10
    valley_mean_len: float = 2.0
    #: Utilization levels (fraction of request) of each regime's centre.
    peak_level: float = 0.85
    valley_level: float = 0.15
    #: Random-walk step of the centre regime's utilization level.
    centre_walk_sigma: float = 0.06
    #: Observation noise applied to every sample.
    noise_sigma: float = 0.03
    #: Period of the long-lived jobs' (patterned) utilization, seconds.
    long_pattern_period_s: float = 3600.0
    #: Mix of intensity classes (probabilities, same order as keys below).
    class_names: tuple[str, ...] = ("cpu", "mem", "storage", "balanced")
    class_probs: tuple[float, ...] = (0.3, 0.3, 0.2, 0.2)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_jobs < 1:
            raise ValueError("n_jobs must be >= 1")
        if not 0.0 <= self.short_fraction <= 1.0:
            raise ValueError("short_fraction must be in [0, 1]")
        if self.arrival_span_s is not None and self.arrival_span_s <= 0:
            raise ValueError("arrival_span_s must be positive when set")
        if not all(p >= 0.0 for p in self.class_probs):
            raise ValueError("class_probs must be non-negative")
        if abs(sum(self.class_probs) - 1.0) > 1e-9:
            raise ValueError("class_probs must sum to 1")
        if len(self.class_probs) != len(self.class_names):
            raise ValueError("class_probs and class_names must align")
        for name in self.class_names:
            if name not in INTENSITY_CLASSES:
                raise ValueError(f"unknown intensity class {name!r}")


class GoogleTraceGenerator:
    """Generates a :class:`~repro.trace.records.Trace` per a :class:`TraceConfig`."""

    def __init__(self, config: TraceConfig | None = None) -> None:
        self.config = config or TraceConfig()
        # What ``rng.choice(n, p=class_probs)`` searches, once: the
        # normalised cumulative sum, in which one ``rng.random()`` draw is
        # bisected (right side) — the same draw and index, without the
        # per-call validation of ``p``.
        cdf = np.cumsum(np.asarray(self.config.class_probs, dtype=np.float64))
        cdf /= cdf[-1]
        self._class_cdf = cdf.tolist()
        self._class_ranges = [
            [INTENSITY_CLASSES[name][kind] for kind in ResourceKind]
            for name in self.config.class_names
        ]

    # ------------------------------------------------------------------
    def iter_records(self) -> Iterator[TaskRecord]:
        """Stream the trace's records one at a time (submit-time order).

        Draws the same rng sequence as a full :meth:`generate` — the
        submit times up front (one ``(n_jobs,)`` array, the only O(n)
        allocation), then each task's draws in task order — so the
        streamed records are byte-identical to the materialized trace.
        Million-job workloads can be consumed chunk by chunk
        (:meth:`generate_chunks`) without ever holding every record's
        usage matrix in memory at once.
        """
        cfg = self.config
        rng = np.random.default_rng(cfg.seed)
        if cfg.arrival_span_s is not None:
            # Fixed-span arrivals: job count controls cluster density.
            submit_times = np.sort(rng.uniform(0.0, cfg.arrival_span_s, cfg.n_jobs))
        else:
            # Poisson arrivals: exponential inter-arrival gaps.
            gaps = rng.exponential(1.0 / cfg.arrival_rate_per_s, size=cfg.n_jobs)
            submit_times = np.cumsum(gaps)
        for task_id in range(cfg.n_jobs):
            is_short = bool(rng.random() < cfg.short_fraction)
            yield self._generate_task(
                task_id=task_id,
                submit_time_s=float(submit_times[task_id]),
                is_short=is_short,
                rng=rng,
            )

    def generate_chunks(
        self, chunk_size: int = 4096
    ) -> Iterator[list[TaskRecord]]:
        """Stream the trace as lists of at most ``chunk_size`` records.

        The streaming shape the hyperscale drivers consume (the
        ``--scale`` benchmark, ``ScaleConfig.chunk_size``): peak memory
        is one chunk of records, not the whole workload.
        """
        if chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        chunk: list[TaskRecord] = []
        for record in self.iter_records():
            chunk.append(record)
            if len(chunk) >= chunk_size:
                yield chunk
                chunk = []
        if chunk:
            yield chunk

    def generate(self) -> Trace:
        """Produce the full synthetic trace (deterministic in the seed)."""
        return Trace(list(self.iter_records()))

    # ------------------------------------------------------------------
    def _generate_task(
        self, *, task_id: int, submit_time_s: float, is_short: bool,
        rng: np.random.Generator,
    ) -> TaskRecord:
        cfg = self.config
        requested = self._draw_request(rng)
        if is_short:
            duration = min(
                max(
                    rng.lognormal(cfg.short_duration_mu, cfg.short_duration_sigma),
                    cfg.min_duration_s,
                ),
                SHORT_JOB_TIMEOUT_S,
            )
        else:
            lo, hi = cfg.long_duration_range_s
            duration = rng.uniform(lo, hi)
        n_samples = max(1, math.ceil(duration / cfg.sample_period_s))
        if is_short:
            util = self._short_utilization(n_samples, rng)
        else:
            util = self._long_utilization(n_samples, rng)
        usage = util[:, None] * requested[None, :]
        # Storage differs from CPU/MEM: usage is sticky (written data
        # stays) and requests are padded well above real needs — jobs
        # over-reserve disk, so a sizable fraction stays unused for the
        # job's whole life (the slack CORP's packing exploits).
        storage_scale = rng.uniform(0.2, 0.6)
        usage[:, ResourceKind.STORAGE] = (
            np.maximum.accumulate(usage[:, ResourceKind.STORAGE]) * storage_scale
        )
        usage = np.clip(usage, 0.0, requested[None, :])
        return TaskRecord(
            task_id=task_id,
            submit_time_s=submit_time_s,
            duration_s=duration,
            requested=requested,
            usage=usage,
            sample_period_s=cfg.sample_period_s,
            is_short=is_short,
        )

    # ------------------------------------------------------------------
    def _draw_request(self, rng: np.random.Generator) -> np.ndarray:
        ranges = self._class_ranges[bisect_right(self._class_cdf, rng.random())]
        uniform = rng.uniform
        return as_row([uniform(lo, hi) for lo, hi in ranges])

    # ------------------------------------------------------------------
    def _short_utilization(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Patternless regime-switching utilization series in ``[0, 1]``.

        Three regimes — centre (drifting random walk), peak burst, valley
        drop — entered at random with geometric dwell times.  This is the
        fluctuation structure Section III-A.1b's HMM discretizes into
        peak/center/valley observation symbols.  Scalars are clipped with
        ``min`` / ``max`` (``np.clip``'s value for finite floats).
        """
        cfg = self.config
        random, geometric, normal = rng.random, rng.geometric, rng.normal
        burst, dip = cfg.burst_prob, cfg.burst_prob + cfg.valley_prob
        burst_p, valley_p = 1.0 / cfg.burst_mean_len, 1.0 / cfg.valley_mean_len
        peak, valley = cfg.peak_level, cfg.valley_level
        walk, noise = cfg.centre_walk_sigma, cfg.noise_sigma
        util = [0.0] * n
        centre = rng.uniform(0.25, 0.55)
        level = regime = None
        dwell = 0
        for i in range(n):
            if dwell > 0:
                dwell -= 1
            else:
                u = random()
                if u < burst:
                    regime, level = "peak", peak
                    dwell = int(geometric(burst_p))
                elif u < dip:
                    regime, level = "valley", valley
                    dwell = int(geometric(valley_p))
                else:
                    regime = "centre"
            if regime == "centre":
                centre = min(max(centre + normal(0.0, walk), 0.15), 0.65)
                level = centre
            util[i] = level + normal(0.0, noise)
        return np.clip(np.array(util), 0.0, 1.0)

    def _long_utilization(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Patterned (periodic) utilization for long-lived service jobs."""
        cfg = self.config
        t = np.arange(n) * cfg.sample_period_s
        phase = rng.uniform(0.0, 2.0 * np.pi)
        base = rng.uniform(0.4, 0.6)
        amp = rng.uniform(0.2, 0.3)
        util = base + amp * np.sin(2.0 * np.pi * t / cfg.long_pattern_period_s + phase)
        util += rng.normal(0.0, cfg.noise_sigma, size=n)
        return np.clip(util, 0.0, 1.0)
