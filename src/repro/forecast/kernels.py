"""The baselines' forecasters as array kernels over equal-length series.

RCCR forecasts with exponential smoothing (Section IV: "we first used a
time series forecasting technique, i.e., Exponential Smoothing (ETS)");
CloudScale with PRESS [37]: an FFT over the usage history looks for a
dominant period ("signature") and, where none shows, a discrete-time
Markov chain predicts instead.  Short-lived-job data carries no
signature and no pattern, which is the structural weakness Fig. 6
exploits.

Every kernel takes an ``(n, T)`` block, ``n`` series of ``T`` samples
each, and answers per row; row ``i`` is bit-identical to fitting
``block[i]`` alone.  The one place where stacking could move a bit is a
dot product: :func:`_row_dots` runs each row as a ``(1, m) @ (m, 1)``
item, the BLAS dot a single ``a @ b`` of two 1-D arrays takes, where the
``(n, m) @ (m,)`` product is a matrix-vector kernel that sums in another
order.  Callers with series of mixed lengths group them with
:func:`by_length`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = ["by_length", "ses_level", "holt_path", "markov_forecast", "fft_signature"]


def by_length(series: Sequence[np.ndarray]) -> dict[int, list[int]]:
    """Indices of ``series`` keyed by length, in input order per key."""
    groups: dict[int, list[int]] = {}
    for i, s in enumerate(series):
        groups.setdefault(len(s), []).append(i)
    return groups


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a[i] @ b[i]`` for every row of two ``(n, m)`` blocks."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must be in (0, 1]")


def ses_level(block: np.ndarray, alpha: float) -> np.ndarray:
    """Simple exponential smoothing's final level per row.

    ``s_t = α x_t + (1 − α) s_{t−1}`` seeded with ``s_0 = x_0``; the
    forecast is flat at this level for every horizon.  Closed form:
    ``s_{T−1} = (1−α)^{T−1} x_0 + α Σ_{k≥1} (1−α)^{T−1−k} x_k``.
    """
    _check_alpha(alpha)
    n, length = block.shape
    if length == 1:
        return block[:, 0].copy()
    decay = (1.0 - alpha) ** np.arange(length - 1, -1, -1, dtype=np.float64)
    weights = alpha * decay
    weights[0] = decay[0]  # the seed level carries no extra factor α
    return _row_dots(np.broadcast_to(weights, (n, length)), block)


def holt_path(block: np.ndarray, alpha: float, beta: float, horizon: int) -> np.ndarray:
    """Holt's linear-trend forecasts ``1..horizon`` steps ahead, ``(n, horizon)``.

    ``level_t = α x_t + (1−α)(level_{t−1} + trend_{t−1})``,
    ``trend_t = β (level_t − level_{t−1}) + (1−β) trend_{t−1}``, seeded
    with ``x_0`` and ``x_1 − x_0``; ``h`` ahead is ``level + h · trend``.
    """
    _check_alpha(alpha)
    if not 0.0 <= beta <= 1.0:
        raise ValueError("beta must be in [0, 1]")
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    level = block[:, 0].copy()
    trend = block[:, 1] - block[:, 0] if block.shape[1] > 1 else np.zeros(len(block))
    for t in range(1, block.shape[1]):
        prev = level
        level = alpha * block[:, t] + (1.0 - alpha) * (prev + trend)
        trend = beta * (level - prev) + (1.0 - beta) * trend
    return level[:, None] + np.arange(1, horizon + 1) * trend[:, None]


def markov_forecast(
    block: np.ndarray,
    horizons: Sequence[int],
    n_bins: int = 8,
    smoothing: float = 0.5,
) -> np.ndarray:
    """Value-binned first-order Markov chain forecasts, ``(n, len(horizons))``.

    Each row's range splits into ``n_bins`` equal bins (a constant row
    gets ``[x, x + 1]``); transitions between consecutive samples are
    counted with Laplace ``smoothing``, and ``h`` ahead is the expected
    bin center under ``row(last bin) · P^h``.  Raising ``P`` to the
    horizon is what weakens multi-step accuracy (Section IV-A).
    """
    if n_bins < 2:
        raise ValueError("n_bins must be >= 2")
    if smoothing < 0:
        raise ValueError("smoothing must be non-negative")
    n = len(block)
    lo = block.min(axis=1)
    hi = block.max(axis=1)
    hi = np.where(hi - lo <= 1e-12, lo + 1.0, hi)
    # np.linspace(lo, hi, n_bins + 1) per row, by its own arithmetic.
    edges = np.arange(n_bins + 1, dtype=np.float64) * ((hi - lo) / n_bins)[:, None]
    edges += lo[:, None]
    edges[:, -1] = hi
    centers = 0.5 * (edges[:, :-1] + edges[:, 1:])
    # searchsorted(edges, x, "right") - 1: the edges at or below x, less one.
    bins = (block[:, :, None] >= edges[:, None, :]).sum(axis=2) - 1
    bins = np.clip(bins, 0, n_bins - 1)
    cells = bins[:, :-1] * n_bins + bins[:, 1:] + (np.arange(n) * n_bins * n_bins)[:, None]
    counts = smoothing + np.bincount(
        cells.ravel(), minlength=n * n_bins * n_bins
    ).reshape(n, n_bins, n_bins)
    transition = counts / counts.sum(axis=2, keepdims=True)
    rows = np.arange(n)
    out = np.empty((n, len(horizons)))
    for j, h in enumerate(horizons):
        if h < 1:
            raise ValueError("horizon must be >= 1")
        # The one-hot start picks P^h's row exactly.
        step = np.linalg.matrix_power(transition, h)[rows, bins[:, -1]]
        out[:, j] = _row_dots(step, centers)
    return out


def fft_signature(
    block: np.ndarray,
    horizon: int,
    threshold: float = 0.25,
    max_period: int = 256,
) -> np.ndarray:
    """PRESS's signature forecast ``horizon`` ahead per row; NaN where none.

    A row has a signature when the dominant non-DC frequency carries at
    least ``threshold`` of the spectral energy and its period lies in
    ``[2, min(max_period, T // 2)]``; rows shorter than 8 samples never
    do.  The signature is the mean shape of the last whole cycles, read
    at the phase ``horizon`` steps past the end.
    """
    if not 0.0 < threshold < 1.0:
        raise ValueError("signature_threshold must be in (0, 1)")
    if max_period < 2:
        raise ValueError("max_period must be >= 2")
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    n, length = block.shape
    out = np.full(n, np.nan)
    if length < 8:
        return out
    centered = block - block.mean(axis=1, keepdims=True)
    spectrum = np.abs(np.fft.rfft(centered, axis=1)) ** 2
    total = spectrum[:, 1:].sum(axis=1)
    k = spectrum[:, 1:].argmax(axis=1) + 1
    periodic = total > 1e-12  # a constant row has no signature
    dominance = np.zeros(n)
    dominance[periodic] = spectrum[periodic, k[periodic]] / total[periodic]
    period = np.rint(length / k).astype(np.int64)
    periodic &= (dominance >= threshold) & (period >= 2)
    periodic &= period <= min(max_period, length // 2)
    for p in sorted(set(period[periodic].tolist())):
        rows = np.flatnonzero(periodic & (period == p))
        cycles = length // p
        tail = block[rows, length - cycles * p :].reshape(len(rows), cycles, p)
        out[rows] = tail.mean(axis=1)[:, (length + horizon - 1) % p]
    return out
