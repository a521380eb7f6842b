"""The trace generator's per-sample code, frozen as the test oracle.

A copy of ``GoogleTraceGenerator``'s draw code as it stood before the
generator hoisted its config reads, clipped scalars with ``min`` /
``max`` and drew intensity classes by bisecting a cumulative sum:
``np.clip`` on every scalar and ``rng.choice(n, p=...)`` on every task.
The generator must stay byte-equal to it (``test_same_stream.py``).
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.cluster.resources import NUM_RESOURCES, ResourceKind
from repro.trace.generator import INTENSITY_CLASSES, TraceConfig
from repro.trace.records import SHORT_JOB_TIMEOUT_S, TaskRecord


def iter_records(cfg: TraceConfig) -> Iterator[TaskRecord]:
    rng = np.random.default_rng(cfg.seed)
    if cfg.arrival_span_s is not None:
        submit_times = np.sort(rng.uniform(0.0, cfg.arrival_span_s, cfg.n_jobs))
    else:
        gaps = rng.exponential(1.0 / cfg.arrival_rate_per_s, size=cfg.n_jobs)
        submit_times = np.cumsum(gaps)
    for task_id in range(cfg.n_jobs):
        is_short = bool(rng.random() < cfg.short_fraction)
        yield _generate_task(
            cfg, task_id=task_id, submit_time_s=float(submit_times[task_id]),
            is_short=is_short, rng=rng,
        )


def _generate_task(
    cfg: TraceConfig, *, task_id: int, submit_time_s: float, is_short: bool,
    rng: np.random.Generator,
) -> TaskRecord:
    requested = _draw_request(cfg, rng)
    if is_short:
        duration = float(
            np.clip(
                rng.lognormal(cfg.short_duration_mu, cfg.short_duration_sigma),
                cfg.min_duration_s,
                SHORT_JOB_TIMEOUT_S,
            )
        )
    else:
        lo, hi = cfg.long_duration_range_s
        duration = float(rng.uniform(lo, hi))
    n_samples = max(1, int(np.ceil(duration / cfg.sample_period_s)))
    if is_short:
        util = _short_utilization(cfg, n_samples, rng)
    else:
        util = _long_utilization(cfg, n_samples, rng)
    usage = util[:, None] * requested[None, :]
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


def _draw_request(cfg: TraceConfig, rng: np.random.Generator) -> np.ndarray:
    idx = int(rng.choice(len(cfg.class_names), p=cfg.class_probs))
    ranges = INTENSITY_CLASSES[cfg.class_names[idx]]
    values = np.empty(NUM_RESOURCES)
    for kind in ResourceKind:
        lo, hi = ranges[kind]
        values[kind] = rng.uniform(lo, hi)
    return values


def _short_utilization(cfg: TraceConfig, n: int, rng: np.random.Generator) -> np.ndarray:
    util = np.empty(n)
    centre = rng.uniform(0.25, 0.55)
    regime = "centre"
    dwell = 0
    for i in range(n):
        if dwell > 0:
            dwell -= 1
        else:
            u = rng.random()
            if u < cfg.burst_prob:
                regime = "peak"
                dwell = int(rng.geometric(1.0 / cfg.burst_mean_len))
            elif u < cfg.burst_prob + cfg.valley_prob:
                regime = "valley"
                dwell = int(rng.geometric(1.0 / cfg.valley_mean_len))
            else:
                regime = "centre"
        if regime == "peak":
            level = cfg.peak_level
        elif regime == "valley":
            level = cfg.valley_level
        else:
            centre = float(
                np.clip(centre + rng.normal(0.0, cfg.centre_walk_sigma), 0.15, 0.65)
            )
            level = centre
        util[i] = level + rng.normal(0.0, cfg.noise_sigma)
    return np.clip(util, 0.0, 1.0)


def _long_utilization(cfg: TraceConfig, n: int, rng: np.random.Generator) -> np.ndarray:
    t = np.arange(n) * cfg.sample_period_s
    phase = rng.uniform(0.0, 2.0 * np.pi)
    base = rng.uniform(0.4, 0.6)
    amp = rng.uniform(0.2, 0.3)
    util = base + amp * np.sin(2.0 * np.pi * t / cfg.long_pattern_period_s + phase)
    util += rng.normal(0.0, cfg.noise_sigma, size=n)
    return np.clip(util, 0.0, 1.0)
