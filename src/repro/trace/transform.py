"""Trace resampling: the paper's 5-minute → 10-second transformation.

Section IV: "We transformed the remaining of the 5-minute trace into
[a] 10-second trace."  The raw Google trace averages usage over 5-minute
windows, which hides the sub-minute fluctuations short-lived jobs exhibit.
The transform therefore does two things:

1. linearly interpolates the coarse samples down to the target period, and
2. (optionally) re-injects short-timescale fluctuation noise so the fine
   series keeps the bursty character the coarse averaging removed.

The fluctuation re-injection is deterministic in the supplied seed and is
bounded so the fine series still integrates (approximately) to the coarse
one over each coarse window.
"""

from __future__ import annotations

import numpy as np

from .records import TaskRecord, Trace

__all__ = ["resample_record", "resample_trace", "DEFAULT_TARGET_PERIOD_S"]

#: The paper's target granularity: 10-second slots.
DEFAULT_TARGET_PERIOD_S: float = 10.0


def _interpolate(usage: np.ndarray, factor: int) -> np.ndarray:
    """Linear interpolation of each resource column by an integer factor."""
    n, l = usage.shape
    if n == 1:
        return np.repeat(usage, factor, axis=0)
    coarse_x = np.arange(n, dtype=np.float64)
    fine_x = np.arange(n * factor, dtype=np.float64) / factor
    out = np.empty((n * factor, l))
    for j in range(l):
        out[:, j] = np.interp(fine_x, coarse_x, usage[:, j])
    return out


def resample_record(
    record: TaskRecord,
    target_period_s: float = DEFAULT_TARGET_PERIOD_S,
    *,
    fluctuation_sigma: float = 0.05,
    seed: int | None = 0,
) -> TaskRecord:
    """Resample one record's usage to ``target_period_s``.

    Parameters
    ----------
    record:
        The coarse record.
    target_period_s:
        Desired sampling period; must evenly divide the record's period.
    fluctuation_sigma:
        Standard deviation (as a fraction of the request) of the
        re-injected short-timescale fluctuation.  Zero disables it.
    seed:
        Seed for the fluctuation noise; combined with the task id so
        different tasks get independent noise but the whole transform is
        reproducible.  ``None`` draws from fresh entropy.
    """
    if target_period_s <= 0:
        raise ValueError("target_period_s must be positive")
    ratio = record.sample_period_s / target_period_s
    factor = int(round(ratio))
    if factor < 1 or abs(ratio - factor) > 1e-9:
        raise ValueError(
            f"target period {target_period_s}s must evenly divide the "
            f"record period {record.sample_period_s}s"
        )
    if factor == 1:
        return record
    fine = _interpolate(record.usage, factor)
    if fluctuation_sigma > 0.0:
        rng = np.random.default_rng(
            None if seed is None else (seed * 1_000_003 + record.task_id)
        )
        scale = record.requested[None, :] * fluctuation_sigma
        noise = rng.normal(0.0, 1.0, size=fine.shape) * scale
        # Zero-mean the noise within each coarse window so the fine series
        # still averages back to (approximately) the coarse sample.
        noise = noise.reshape(record.n_samples, factor, -1)
        noise -= noise.mean(axis=1, keepdims=True)
        fine = fine + noise.reshape(fine.shape)
    fine = np.clip(fine, 0.0, record.requested[None, :])
    # Trim to the samples the job actually lives through.
    n_keep = max(1, int(np.ceil(record.duration_s / target_period_s)))
    fine = fine[:n_keep]
    return record.with_usage(fine, target_period_s)


def resample_trace(
    trace: Trace,
    target_period_s: float = DEFAULT_TARGET_PERIOD_S,
    *,
    fluctuation_sigma: float = 0.05,
    seed: int | None = 0,
) -> Trace:
    """Apply :func:`resample_record` to every record of a trace."""
    return trace.map(
        lambda r: resample_record(
            r, target_period_s, fluctuation_sigma=fluctuation_sigma, seed=seed
        )
    )
