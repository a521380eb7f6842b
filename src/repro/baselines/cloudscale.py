"""CloudScale baseline [Shen et al., SoCC 2011] as the paper implements it.

Section IV: "For CloudScale, we first used the prediction model
developed in [37] [PRESS: FFT signature + discrete-time Markov chain]
... to predict the amount of unused resource of VMs based on historical
resource usage data.  Then we extracted the burst pattern to get the
padding value and calculated the prediction errors ... Next, we used
the adaptive padding ... to correct the prediction errors.  Finally, we
also randomly chose a VM that can satisfy the resource demands of the
job and allocated the *unallocated* resource to the job without
considering job packing."

Note the last sentence: CloudScale allocates **unallocated** resources —
it scales allocations from predictions but does not opportunistically
reuse other jobs' unused allocations, which is why its utilization
trails CORP's and RCCR's in Fig. 7 ("CORP and RCCR allocate the
resource to jobs in an opportunistic approach ...").

CloudScale's defining behaviour — "employs online resource demand
prediction and prediction error handling to adaptively allocate the
resources on PMs to VMs" — is modeled by per-placement grant caps: each
window, every running job's next-window demand is predicted
(FFT-signature, Markov fallback) and its grant capped at
``prediction + pad``.  Under-predicted bursts get squeezed until the
adaptive padding catches up, which is CloudScale's SLO-violation source
in Fig. 9/13 (better than DRA's uncorrected averages, worse than the
conservative unused-side schemes).
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from ..cluster.machine import SlotOutcome, VirtualMachine
from ..cluster.resources import NUM_RESOURCES
from ..core.provisioning import ProvisioningSchedulerBase
from ..forecast.kernels import by_length, fft_signature, markov_forecast
from ..forecast.padding import AdaptivePadding

__all__ = ["CloudScaleScheduler"]


class CloudScaleScheduler(ProvisioningSchedulerBase):
    """PRESS-style prediction + adaptive padding, no opportunistic reuse."""

    name = "CloudScale"
    supports_opportunistic = False

    def __init__(
        self,
        *,
        window_slots: int = 6,
        history_slots: int = 30,
        signature_threshold: float = 0.15,
        n_bins: int = 8,
        padding_percentile: float = 60.0,
        #: Windows between per-job cap recomputations (CloudScale's
        #: resource rescaling runs on its own, slower schedule).
        cap_period_windows: int = 2,
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
        self.history_slots = history_slots
        self.signature_threshold = signature_threshold
        self.n_bins = n_bins
        self.padding_percentile = padding_percentile
        if cap_period_windows < 1:
            raise ValueError("cap_period_windows must be >= 1")
        self.cap_period_windows = cap_period_windows
        #: One padding tracker per (vm, resource) pair, created lazily.
        self._padding: dict[tuple[int, int], AdaptivePadding] = {}

    # ------------------------------------------------------------------
    def _pad_tracker(self, vm_id: int, kind: int) -> AdaptivePadding:
        key = (vm_id, kind)
        tracker = self._padding.get(key)
        if tracker is None:
            tracker = AdaptivePadding(percentile=self.padding_percentile)
            self._padding[key] = tracker
        return tracker

    # ------------------------------------------------------------------
    def _forecast(self, block: np.ndarray, *, signature: bool = True) -> np.ndarray:
        """``window_slots``-ahead forecasts of an ``(m, T, l)`` block of
        usage series, floored at zero: the FFT signature, and the Markov
        chain for series without one (all of them when ``signature`` is
        off)."""
        m, length, kinds = block.shape
        series = np.ascontiguousarray(block.transpose(0, 2, 1)).reshape(m * kinds, length)
        forecast = np.full(m * kinds, np.nan)
        if signature:
            forecast = fft_signature(series, self.window_slots, self.signature_threshold)
        chain = np.isnan(forecast)
        if chain.any():
            forecast[chain] = markov_forecast(
                series[chain], (self.window_slots,), self.n_bins
            )[:, 0]
        return np.where(forecast < 0.0, 0.0, forecast).reshape(m, kinds)

    def on_slot_start(self, slot: int) -> None:
        """Window refresh plus the periodic per-job cap recomputation."""
        super().on_slot_start(slot)
        if self._degraded:
            return  # elastic scaling is off while the predictor is down
        if slot % (self.window_slots * self.cap_period_windows) == 0:
            self._apply_demand_caps()

    def _apply_demand_caps(self) -> None:
        """Elastic scaling: cap each grant at predicted demand + pad.

        Jobs with less than two observed slots keep their full request —
        CloudScale has no basis to scale them yet.
        """
        capped = []
        for vm in self.vms:
            for placement in vm.placements:
                log = placement.job.demand_rows(self.history_slots)
                if len(log) < 2:
                    placement.granted_cap = None
                else:
                    capped.append((vm.vm_id, placement, log))
        predicted = np.empty((len(capped), NUM_RESOURCES))
        for rows in by_length([log for _, _, log in capped]).values():
            # Per-job series are short-lived and never carry a periodic
            # signature; PRESS's state-based (Markov) path is the
            # operative one here.
            predicted[rows] = self._forecast(
                np.array([capped[i][2] for i in rows]), signature=False
            )
        for (vm_id, placement, _), demand in zip(capped, predicted):
            pads = [self._pad_tracker(vm_id, k).pad() for k in range(NUM_RESOURCES)]
            placement.granted_cap = np.minimum(
                demand + pads, placement.job.requested
            )

    # ------------------------------------------------------------------
    def predict_vms_unused(self, vms: Sequence[VirtualMachine]) -> list[np.ndarray]:
        """FFT signature per VM and resource, Markov-chain fallback where
        none; one kernel call each per history length."""
        histories = [vm.unused_history(last=self.history_slots) for vm in vms]
        out = np.zeros((len(vms), NUM_RESOURCES))
        for length, rows in by_length(histories).items():
            if length >= 2:
                out[rows] = self._forecast(np.array([histories[i] for i in rows]))
        return list(out)

    def adjust_forecast(self, raw: np.ndarray, vm: VirtualMachine) -> np.ndarray:
        """Adaptive padding: shave the pad off the unused forecast.

        Padding protects against usage bursts, i.e. against the unused
        amount dipping below the forecast.
        """
        pads = np.array(
            [self._pad_tracker(vm.vm_id, k).pad() for k in range(NUM_RESOURCES)]
        )
        return raw - pads

    def on_slot_end(self, slot: int, outcomes: Mapping[int, SlotOutcome]) -> None:
        """Base error tracking plus padding-tracker updates."""
        super().on_slot_end(slot, outcomes)
        # Feed the padding trackers with per-slot usage and forecast errors.
        for vm_id, outcome in outcomes.items():
            record = self._window.get(vm_id)
            for k in range(NUM_RESOURCES):
                tracker = self._pad_tracker(vm_id, k)
                tracker.observe_usage(outcome.primary_demand[k])
                if record is not None:
                    # Under-prediction of *usage* == over-prediction of
                    # unused: actual unused below the forecast.
                    tracker.observe_error(
                        predicted=outcome.unused[k], actual=record.forecast[k]
                    )
