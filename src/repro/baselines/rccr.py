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

import numpy as np

from ..cluster.machine import VirtualMachine
from ..cluster.resources import NUM_RESOURCES
from ..core.provisioning import ProvisioningSchedulerBase
from ..forecast.confidence import z_value
from ..forecast.ets import HoltLinear, SimpleExponentialSmoothing

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
        samples: list[np.ndarray] = []
        for record in history:
            series = 1.0 - record.utilization_series()
            n = series.shape[0]
            if n < 2 * horizon + 2:
                continue
            for split in range(horizon + 2, n - horizon, horizon):
                errs = np.empty(series.shape[1])
                for k in range(series.shape[1]):
                    ets = self._make_forecaster().fit(series[:split, k])
                    forecast = max(ets.forecast(horizon), 0.0)
                    actual = series[split : split + horizon, k].mean()
                    errs[k] = actual - forecast
                samples.append(errs)
            if len(samples) >= 150:
                break
        if samples:
            arr = np.asarray(samples)
            # Pair-average to approximate VM granularity, where ~2 jobs'
            # independent errors partially cancel (same reasoning as
            # CORP's seeding; job-level tails would inflate σ̂).
            if arr.shape[0] >= 2:
                half = (arr.shape[0] // 2) * 2
                arr = 0.5 * (arr[:half:2] + arr[1:half:2])
            for k in range(arr.shape[1]):
                self.raw_errors.trackers[k].seed(arr[:, k])
                self.gate.trackers[k].seed(
                    arr[:, k] + float(np.std(arr[:, k], ddof=1)) * self._z
                )
        self._begin_window()

    # ------------------------------------------------------------------
    def predict_vm_unused(self, vm: VirtualMachine) -> np.ndarray:
        """Holt ETS per resource over the VM's recent unused history."""
        history = vm.unused_history(last=self.history_slots)
        out = np.zeros(NUM_RESOURCES)
        if history.shape[0] < 2:
            return out  # no history yet: predict no reusable slack
        for k in range(NUM_RESOURCES):
            ets = self._make_forecaster().fit(history[:, k])
            out[k] = max(ets.forecast(self.window_slots), 0.0)
        return out

    def _make_forecaster(self):
        """Simple ES when ``beta == 0``, Holt's linear trend otherwise."""
        if self.beta <= 0.0:
            return SimpleExponentialSmoothing(self.alpha)
        return HoltLinear(self.alpha, self.beta)

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
