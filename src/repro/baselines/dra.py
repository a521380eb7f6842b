"""DRA baseline [Shanmuganathan et al., SIGMETRICS 2013] per Section IV.

"DRA provides the cloud customer with the abstraction of buying bulk
capacity ... and then re-distributes the purchased capacity among
[the] VMs based on their demand ... taking into account shares and not
giving the VMs more than what they demand."  The paper's setup:

* shares statically assigned at creation with a high:medium:low mix of
  4:2:1;
* "the run-time software ... periodically estimate[s] the amount of
  unused resource of VMs based on the historical resource usage data"
  — a plain running average, with no fluctuation handling and no
  confidence machinery (the reasons Fig. 6 ranks it last);
* capacity is redistributed equitably by share, capped at the demand
  estimate; no opportunistic reuse of unused allocations.

Mechanically, the redistribution sets per-placement grant caps: when a
job's real demand bursts past its (average-based) estimate, the cap
squeezes it, which stretches response times — DRA's high SLO-violation
rate in Fig. 9/13.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..cluster.job import Job
from ..cluster.machine import VirtualMachine, _segment_sums
from ..cluster.resources import NUM_RESOURCES
from ..core.provisioning import ProvisioningSchedulerBase
from ..forecast.kernels import by_length

__all__ = ["DraScheduler"]

#: The paper's high : medium : low share mix.
SHARE_VALUES: tuple[float, ...] = (4.0, 2.0, 1.0)


class DraScheduler(ProvisioningSchedulerBase):
    """Share/demand-based equitable capacity redistribution."""

    name = "DRA"
    supports_opportunistic = False

    def __init__(
        self,
        *,
        window_slots: int = 6,
        history_slots: int = 30,
        #: Headroom multiplier on the demand estimate when capping; 1.0
        #: caps at the running average itself (most aggressive).
        headroom: float = 1.1,
        error_tolerance: float = 0.75,
        seed: int = 0,
    ) -> None:
        super().__init__(
            window_slots=window_slots,
            error_tolerance=error_tolerance,
            seed=seed,
        )
        if history_slots < 1:
            raise ValueError("history_slots must be >= 1")
        if headroom < 1.0:
            raise ValueError("headroom must be >= 1")
        self.history_slots = history_slots
        self.headroom = headroom
        #: job_id -> share value, assigned at placement time.
        self._shares: dict[int, float] = {}

    # ------------------------------------------------------------------
    def _share_of(self, job: Job) -> float:
        share = self._shares.get(job.job_id)
        if share is None:
            share = float(SHARE_VALUES[int(self.rng.integers(len(SHARE_VALUES)))])
            self._shares[job.job_id] = share
        return share

    def _demand_estimates(self, jobs: Sequence[Job]) -> np.ndarray:
        """Run-time estimates, one ``(l,)`` row per job: the running
        average of its recent observed demand, one stacked mean (bit-equal
        to each job's own) per history length.  Fresh jobs (no
        observations) are estimated at their full request — DRA has no
        better information at admission.
        """
        logs = [job.demand_rows(self.history_slots) for job in jobs]
        estimates = np.empty((len(jobs), NUM_RESOURCES))
        for length, rows in by_length(logs).items():
            if length:
                estimates[rows] = np.array([logs[i] for i in rows]).mean(axis=1)
            else:
                estimates[rows] = [jobs[i].requested for i in rows]
        return estimates

    # ------------------------------------------------------------------
    def on_slot_start(self, slot: int) -> None:
        """Window refresh plus the periodic share-based redistribution."""
        super().on_slot_start(slot)
        if self._degraded:
            return  # no estimates to redistribute on while degraded
        if slot % self.window_slots == 0:
            self._redistribute()

    def _redistribute(self) -> None:
        """Equitable share-based redistribution with demand caps.

        Per VM: each placement's target is ``min(request, headroom ×
        demand_estimate)``; when the targets exceed the VM capacity they
        are scaled back proportionally to share weights.
        """
        held = [[p for p in vm.placements if not p.opportunistic] for vm in self.vms]
        jobs = [p.job for placements in held for p in placements]
        # The base class already charged this window's VM poll; the
        # redistribution reuses that telemetry.
        every_target = np.minimum(
            np.array([job.requested for job in jobs]).reshape(-1, NUM_RESOURCES),
            self.headroom * self._demand_estimates(jobs),
        )
        end = 0
        for vm, placements in zip(self.vms, held):
            if not placements:
                continue
            start, end = end, end + len(placements)
            targets = every_target[start:end]
            shares = np.array([self._share_of(p.job) for p in placements])
            capacity = vm.capacity
            total = targets.sum(axis=0)
            caps = targets.copy()
            for k in range(NUM_RESOURCES):
                if total[k] > capacity[k] + 1e-12:
                    # Scale back proportionally to shares (equitable).
                    weights = shares / shares.sum()
                    caps[:, k] = np.minimum(
                        targets[:, k], weights * capacity[k]
                    )
            for p, cap in zip(placements, caps):
                p.granted_cap = cap

    # ------------------------------------------------------------------
    def predict_vms_unused(self, vms: Sequence[VirtualMachine]) -> list[np.ndarray]:
        """DRA's unused estimate per VM: commitment minus average-demand
        estimates.

        Used only for the Fig. 6 error metric — DRA never reallocates
        unused resources.  Each VM's estimates add in order from zero.
        """
        held = [[p.job for p in vm.placements if not p.opportunistic] for vm in vms]
        owner = np.repeat(np.arange(len(vms)), [len(jobs) for jobs in held])
        estimates = self._demand_estimates([job for jobs in held for job in jobs])
        total = _segment_sums(estimates, owner, len(vms))
        committed = np.array([vm.committed() for vm in vms]).reshape(-1, NUM_RESOURCES)
        return list(np.clip(committed - total, 0.0, None))
