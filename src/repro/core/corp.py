"""The CORP scheduler (paper Section III).

Ties the pieces together:

* **Prediction** — per primary job, the DNN + HMM pipeline of
  :class:`~repro.core.predictor.CorpPredictor` forecasts unused
  resources; per VM the job forecasts are summed (Section IV: "we can
  know the amount of unused resources of each VM after we get the
  amount of unused resource of jobs").
* **Confidence interval** — the VM forecast is lowered by
  ``σ̂ · z_{θ/2}`` (Eq. 18-19).
* **Preemption gate** — predicted unused is only reallocated while
  ``Pr(0 ≤ δ < ε) ≥ P_th`` holds per resource (Eq. 21); the trackers
  are seeded from the predictor's held-out training errors, the
  "historical data with prediction error samples" of Section III-A.2.
* **Packing** — complementary pairs by maximum demand deviation
  (Section III-B).
* **Placement** — most-matched VM by smallest unused-resource volume
  (Eq. 22), first over unlocked predicted unused, then over unallocated
  capacity.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from ..check import CHECK
from ..cluster.job import Job, utilization_histories
from ..cluster.machine import VirtualMachine
from ..cluster.resources import NUM_RESOURCES, ResourceKind
from ..forecast.base import Predictor
from ..forecast.confidence import z_value
from ..obs import OBS
from ..trace.records import Trace
from .config import CorpConfig
from .packing import JobEntity, pack_jobs, singleton_entities
from .predictor import CorpPredictor
from .provisioning import ProvisioningSchedulerBase
from .vm_selection import CandidateSet, Choice

__all__ = ["CorpScheduler"]


class CorpScheduler(ProvisioningSchedulerBase):
    """Cooperative Opportunistic Resource Provisioning."""

    name = "CORP"
    supports_opportunistic = True

    def __init__(
        self,
        config: CorpConfig | None = None,
        *,
        predictor: Predictor | None = None,
    ) -> None:
        self.config = config or CorpConfig()
        # Eq. 21's gate asks whether the conservative forecast delivers
        # its promised reliability.  The CI lower bound's nominal
        # one-sided coverage is 1 − θ/2 (= 0.95 at the paper's η = 90%,
        # exactly Table II's P_th) — an estimator cannot exceed its own
        # nominal coverage, so at lower confidence levels the gate tests
        # against that nominal level instead of an unreachable constant.
        nominal_coverage = 1.0 - (1.0 - self.config.confidence_level) / 2.0
        effective_threshold = min(
            self.config.probability_threshold, nominal_coverage
        )
        super().__init__(
            window_slots=self.config.window_slots,
            error_tolerance=self.config.error_tolerance,
            probability_threshold=effective_threshold,
            seed=self.config.seed,
        )
        #: A pre-fitted predictor may be injected to share the (offline)
        #: DNN/HMM training across experiment runs.  Any registered
        #: :class:`~repro.forecast.base.Predictor` family drops in here;
        #: the DNN+HMM pipeline remains the default.
        self.predictor = predictor or CorpPredictor(config=self.config)
        self._z = z_value(self.config.confidence_level)
        #: Eq. 18-19 shift per unit of request (:meth:`_begin_window`) and
        #: the current refresh's per-VM mean shifts (kept under OBS only).
        self._job_scale = np.zeros(NUM_RESOURCES)
        self._shift_means: list[float] = []

    # ------------------------------------------------------------------
    def prepare(self, history: Trace) -> None:
        """Offline phase: fit the predictor and seed the error trackers."""
        if not self.predictor.fitted:
            self.predictor.fit(history)
        theta_half = self.config.significance_level / 2.0
        for kind in range(NUM_RESOURCES):
            # Trackers hold commitment-fraction δ samples at VM
            # granularity, where a VM aggregates ~2 jobs and their
            # individual errors partially cancel; pair-averaging the
            # job-level validation errors approximates that granularity
            # (raw job-level errors have fatter tails and would inflate
            # the quantile shift).
            errors = self.predictor.seed_errors[kind]
            if errors.size >= 2:
                half = (errors.size // 2) * 2
                errors = 0.5 * (errors[:half:2] + errors[1:half:2])
            errors = errors[-150:]
            self.raw_errors.trackers[kind].seed(errors)
            if errors.size and self.config.use_confidence_interval:
                # The gate's seeded δ samples describe the *conservative*
                # forecast (Eq. 19 applied) with the same empirical-
                # quantile shift the runtime adjustment uses.
                errors = errors - float(np.quantile(errors, theta_half))
            self.gate.trackers[kind].seed(errors)
        self._begin_window()

    # ------------------------------------------------------------------
    # forecasting hooks
    # ------------------------------------------------------------------
    def predict_vms_unused(self, vms: Sequence[VirtualMachine]) -> list[np.ndarray]:
        """Per VM, the sum of its primary jobs' forecasts, all of them
        from one predictor call.

        Each prediction consumes the *per-job* utilization history — one
        extra telemetry fetch per job, where the baselines poll only the
        VM-level aggregate counters.  This finer-grained monitoring is
        part of CORP's overhead story (Fig. 10/14: "The DNN has complex
        structure ... obtains accuracy at the expense of computation
        overhead").
        """
        jobs_of = [[p.job for p in vm.placements if not p.opportunistic] for vm in vms]
        jobs = [job for vm_jobs in jobs_of for job in vm_jobs]
        self.latency.charge_comm(len(jobs))  # per-job usage-history fetch
        forecasts = iter(self.predictor.predict_jobs_unused(
            utilization_histories(jobs), [job.requested for job in jobs]
        ))
        totals = []
        for vm_jobs in jobs_of:
            total = np.zeros(NUM_RESOURCES)
            for _ in vm_jobs:  # a running sum in placement order
                total += next(forecasts)
            totals.append(total)
        return totals

    def _begin_window(self) -> None:
        """Eq. 18-19 per-job error scale, once per refresh.

        The scale is the distribution-free analogue of ``σ̂ · z_{θ/2}``:
        the empirical ``θ/2``-quantile magnitude of the active
        predictor's job-level validation errors (fractions of the
        request), which gives one-sided coverage ``1 − θ/2`` even on the
        left-skewed, burst-driven error distributions short jobs produce
        (the Gaussian form under-covers there).  Falls back to ``σ̂ · z``
        when too few samples exist.  It depends on the error history
        only — recomputed here rather than per VM, and per refresh
        rather than per run because the ``σ̂`` fallback reads the live
        tracker, which every window's samples move.
        """
        if not self.config.use_confidence_interval:
            return
        theta_half = self.config.significance_level / 2.0
        for k, tracker in enumerate(self.raw_errors.trackers):
            errors = self.predictor.seed_errors[k]
            if errors.size >= 20:
                self._job_scale[k] = max(-float(np.quantile(errors, theta_half)), 0.0)
            else:
                self._job_scale[k] = tracker.sigma() * self._z

    def _refresh_forecasts(self) -> None:
        self._shift_means.clear()
        super()._refresh_forecasts()
        if self._shift_means:
            # One reading per refresh, over the VMs actually adjusted
            # (per-VM gauge writes would report the last VM polled).
            OBS.count("forecast.ci_adjusted", len(self._shift_means))
            OBS.gauge(
                "forecast.ci_shift_mean",
                sum(self._shift_means) / len(self._shift_means),
            )

    def adjust_forecast(self, raw: np.ndarray, vm: VirtualMachine) -> np.ndarray:
        """Eq. 19: subtract the CI lower-bound shift per resource.

        The shift is this window's per-job error scale
        (:meth:`_begin_window`) times the VM's scale.  Errors are
        tracked in request fractions, hence the rescale.
        """
        if not self.config.use_confidence_interval:
            return raw
        # Independent per-job errors: the VM-level half-width grows with
        # the root-sum-square of the member requests, not with the
        # commitment itself — consolidation averages errors out.
        sum_sq = np.zeros_like(raw)
        for p in vm.placements:
            if not p.opportunistic:
                sum_sq += p.job.requested ** 2
        shift = self._job_scale * np.sqrt(sum_sq)
        if OBS.enabled:
            self._shift_means.append(float(shift.mean()))
        return raw - shift

    def opportunistic_allowed(self) -> bool:
        """Eq. 21 gate across all resource types.

        Emits one ``preemption`` event per evaluation (the unlock/deny
        decision with the per-resource empirical Eq. 21 probability)
        when observability is on.
        """
        unlocked = self.gate.all_unlocked()
        if CHECK.enabled:
            CHECK.checker.observe_gate(
                self.gate, unlocked,
                scheduler=self.name,
                slot=self._sim.current_slot if self._sim is not None else None,
            )
        if OBS.enabled:
            OBS.emit(
                "preemption",
                slot=self._sim.current_slot if self._sim is not None else None,
                scheduler=self.name,
                unlocked=unlocked,
                probabilities=[
                    float(self.gate.probability(k)) for k in ResourceKind
                ],
                threshold=self.gate.probability_threshold,
                tolerance=self.gate.error_tolerance,
            )
            OBS.count(
                "preemption.unlock" if unlocked else "preemption.deny"
            )
        return unlocked

    def opportunistic_admission_sizes(
        self, entities: Iterable[JobEntity], demands: np.ndarray
    ) -> np.ndarray:
        """Admit riders at expected demand, not worst-case request: one
        multiply over every row.

        The predictor's unused-fraction prior says how much of a request
        a short job typically leaves idle; the complement is its
        expected draw.  Sizing admissions this way is what makes reuse
        the common path rather than the exception — riders that burst
        past it get squeezed first, which the P_th / η knobs trade
        against utilization (Fig. 8).
        """
        return demands * np.clip(1.0 - self.predictor.prior_unused_fraction, 0.05, 1.0)

    # ------------------------------------------------------------------
    # packing / placement hooks
    # ------------------------------------------------------------------
    @property
    def uses_volume_selection(self) -> bool:
        """Whether ``choose_vm`` applies the Eq. 22 most-matched rule."""
        return self.config.use_volume_selection

    def make_entities(self, pending: Sequence[Job]) -> list[JobEntity]:
        """Complementary packing (Section III-B), unless ablated off."""
        if not self.config.use_packing:
            return singleton_entities(pending)
        return pack_jobs(pending, reference=self.sim.max_vm_capacity())

    def choose_vm(
        self, demand: np.ndarray, candidates: CandidateSet
    ) -> Choice | None:
        """Most-matched VM by unused-resource volume (Eq. 22).

        The choice is one matrix expression over the pool; with volume
        selection ablated off it is the baselines' uniform-random
        feasible VM.
        """
        if not self.config.use_volume_selection:
            return super().choose_vm(demand, candidates)
        return candidates.select_most_matched(
            demand, self.sim.max_vm_capacity()
        )
