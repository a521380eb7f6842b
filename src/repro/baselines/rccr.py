"""RCCR baseline [Carvalho et al., SoCC 2014] as the paper implements it.

Section IV: "For RCCR, we first used a time series forecasting
technique, i.e., Exponential Smoothing (ETS), to predict the amount of
unused resource of VMs.  Then we calculated confidence intervals and
chose the lower bound of the confidence interval as the predicted value
for a time window ΔW.  Finally, we randomly chose a VM that can satisfy
the resource demands of a job and allocated resource to the job without
considering job packing."

So, relative to CORP: ETS instead of DNN+HMM, no Eq. 21 gate, random
feasible VM, no packing — but it *is* opportunistic (it reallocates
predicted-unused resources).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..cluster.machine import VirtualMachine
from ..cluster.resources import NUM_RESOURCES
from ..core.provisioning import ProvisioningSchedulerBase
from ..forecast.confidence import z_value
from ..forecast.kernels import by_length, holt_path, ses_level

__all__ = ["RccrScheduler"]


class RccrScheduler(ProvisioningSchedulerBase):
    """ETS + confidence-interval opportunistic provisioning."""

    name = "RCCR"
    supports_opportunistic = True

    def __init__(
        self,
        *,
        window_slots: int = 6,
        confidence_level: float = 0.9,
        alpha: float = 0.3,
        #: Trend smoothing; 0 selects simple (level-only) exponential
        #: smoothing — the paper's literal "Exponential Smoothing (ETS)"
        #: — which is far more robust on patternless series than a
        #: trend-extrapolating variant.
        beta: float = 0.0,
        history_slots: int = 60,
        error_tolerance: float = 0.75,
        seed: int = 0,
    ) -> None:
        super().__init__(
            window_slots=window_slots,
            error_tolerance=error_tolerance,
            seed=seed,
        )
        if history_slots < 2:
            raise ValueError("history_slots must be >= 2")
        self.confidence_level = confidence_level
        self.alpha = alpha
        self.beta = beta
        self.history_slots = history_slots
        self._z = z_value(confidence_level)
        #: ``σ̂ · z`` per resource, set once per window (``_begin_window``).
        self._shift_scale = np.zeros(NUM_RESOURCES)

    # ------------------------------------------------------------------
    def prepare(self, history) -> None:
        """Offline phase: seed σ̂ from historical forecasting errors.

        The paper's RCCR "calculated confidence intervals" from
        historical data; without seeding, the CI lower bound starts at
        the raw forecast and the early windows over-promise.  For each
        historical short job we fit the ETS on a prefix of its unused
        series and score the ``window_slots``-ahead forecast against the
        realized window mean, in fraction-of-request units (the same
        commitment-fraction scale the runtime trackers use).
        """
        horizon = self.window_slots
        heads: list[np.ndarray] = []  # the history a forecast sees
        tails: list[np.ndarray] = []  # the window it is scored on
        for record in history:
            n = record.n_samples
            if n < 2 * horizon + 2:
                continue
            series = 1.0 - record.utilization_series()
            for split in range(horizon + 2, n - horizon, horizon):
                heads.append(series[:split])
                tails.append(series[split : split + horizon])
            if len(heads) >= 150:
                break
        if heads:
            forecasts = np.empty((len(heads), NUM_RESOURCES))
            for rows in by_length(heads).values():
                forecasts[rows] = self._forecast(np.array([heads[i] for i in rows]))
            arr = np.array([tail.T for tail in tails]).mean(axis=2) - forecasts
            # Pair-average to approximate VM granularity, where ~2 jobs'
            # independent errors partially cancel (same reasoning as
            # CORP's seeding; job-level tails would inflate σ̂).
            if arr.shape[0] >= 2:
                half = (arr.shape[0] // 2) * 2
                arr = 0.5 * (arr[:half:2] + arr[1:half:2])
            for k in range(arr.shape[1]):
                self.raw_errors.trackers[k].seed(arr[:, k])
                # σ̂ of fewer than two samples is 0, as the trackers' own
                # ``sigma()`` has it: no CI shift to add.
                shift = 0.0
                if arr.shape[0] >= 2:
                    shift = float(np.std(arr[:, k], ddof=1)) * self._z
                self.gate.trackers[k].seed(arr[:, k] + shift)
        self._begin_window()

    # ------------------------------------------------------------------
    def predict_vms_unused(self, vms: Sequence[VirtualMachine]) -> list[np.ndarray]:
        """ETS per VM and resource over the recent unused history, one
        kernel call per history length."""
        histories = [vm.unused_history(last=self.history_slots) for vm in vms]
        out = np.zeros((len(vms), NUM_RESOURCES))
        for length, rows in by_length(histories).items():
            if length >= 2:  # no history yet: predict no reusable slack
                out[rows] = self._forecast(np.array([histories[i] for i in rows]))
        return list(out)

    def _forecast(self, block: np.ndarray) -> np.ndarray:
        """``window_slots``-ahead forecasts of an ``(m, T, l)`` block of
        unused histories, floored at zero: simple ES when ``beta == 0``,
        Holt's linear trend otherwise."""
        m, length, kinds = block.shape
        series = np.ascontiguousarray(block.transpose(0, 2, 1)).reshape(m * kinds, length)
        if self.beta <= 0.0:
            forecast = ses_level(series, self.alpha)
        else:
            forecast = holt_path(series, self.alpha, self.beta, self.window_slots)[:, -1]
        return np.where(forecast < 0.0, 0.0, forecast).reshape(m, kinds)

    def _begin_window(self) -> None:
        """σ̂ moves only when a window's error samples land, not per VM."""
        self._shift_scale = self.raw_errors.sigmas() * self._z

    def adjust_forecast(self, raw: np.ndarray, vm: VirtualMachine) -> np.ndarray:
        """Lower bound of the confidence interval (the paper's choice).

        σ̂ is tracked in commitment-fraction units, hence the rescale.
        """
        return raw - self._shift_scale * vm.committed()

    def opportunistic_allowed(self) -> bool:
        """RCCR has no Eq. 21 preemption gate — reuse is always on."""
        return True
