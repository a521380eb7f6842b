"""Discrete-time-slot cluster simulator.

Hosts the slot loop of Section II: jobs arrive per slot, the scheduler
places them, VMs execute the slot (granting resources and advancing
jobs), and the recorders accumulate utilization (Eq. 1-4), SLO outcomes
and allocation latency.

Since v1.5 the loop itself lives in the event-driven kernel
(:mod:`repro.service.kernel`); :meth:`ClusterSimulator.run` is a thin
batch driver that preloads the workload's arrivals as submission
events and steps the kernel to completion — byte-identical to the old
in-place loop (the golden-trace suite pins this).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

import numpy as np

from .job import Job

if TYPE_CHECKING:  # pragma: no cover - avoids a trace<->cluster import cycle
    from ..faults.injector import FaultInjector
    from ..faults.plan import FaultPlan
    from ..trace.records import Trace
from .logs import Log
from .machine import ClusterLanes, PhysicalMachine, VirtualMachine
from .metrics import MetricsRecorder
from .profiles import ClusterProfile
from .resources import fits_within
from .scheduler import Scheduler
from .shards import ScaleConfig
from .slo import SloSpec, SloTracker

__all__ = ["SimulationConfig", "SimulationResult", "ClusterSimulator"]


@dataclass(frozen=True)
class SimulationConfig:
    """Run-level knobs.

    Attributes
    ----------
    slot_duration_s:
        Seconds per slot (paper: 10 s).
    max_slots:
        Hard stop; a run normally ends when every job completed.
    slo:
        The response-time SLO specification.
    drain:
        Keep simulating after the last arrival until all jobs finish.
    scale:
        Deprecated knobs (``shards`` has no effect; ``chunk_size`` is
        read by trace-streaming callers only), removed in v1.10.
    """

    slot_duration_s: float = 10.0
    max_slots: int = 20_000
    slo: SloSpec = field(default_factory=SloSpec)
    drain: bool = True
    scale: ScaleConfig = field(default_factory=ScaleConfig)


@dataclass
class SimulationResult:
    """Everything a run produced, ready for the experiment harness."""

    scheduler_name: str
    metrics: MetricsRecorder
    slo: SloTracker
    n_slots: int
    n_submitted: int
    n_completed: int
    n_rejected: int
    allocation_latency_s: float
    prediction_error_rate: Optional[float]
    jobs: list[Job]
    #: Jobs that permanently failed under fault injection (gave up).
    n_failed: int = 0
    #: Resilience metrics from the fault injector; ``None`` when the run
    #: had no fault plan, so fault-free summaries stay byte-identical to
    #: pre-fault-layer output.
    resilience: Optional[dict[str, float]] = None
    #: True when the run stopped at ``max_slots`` with work still ahead
    #: (queued/running/backlogged jobs or arrivals never submitted) —
    #: such summaries cover an incomplete run and must not be read as a
    #: completed one.
    truncated: bool = False
    #: Scenario-family metrics (``pipeline_stall_slots``,
    #: ``flash_crowd_p99_wait``, ...) attached by the workload drivers;
    #: ``None`` for plain runs so their summaries stay byte-identical.
    extra_metrics: Optional[dict[str, float]] = None

    @property
    def all_done(self) -> bool:
        """Every submitted job completed, was rejected, or gave up."""
        return (
            self.n_completed + self.n_rejected + self.n_failed == self.n_submitted
        )

    def summary(self) -> dict[str, float]:
        """Flat scalar summary used by the report tables."""
        out: dict[str, float] = {
            "overall_utilization": self.metrics.mean_overall_utilization(),
            "overall_wastage": self.metrics.mean_overall_wastage(),
            "slo_violation_rate": self.slo.violation_rate,
            "allocation_latency_s": self.allocation_latency_s,
            "n_slots": float(self.n_slots),
            "n_completed": float(self.n_completed),
        }
        for kind, value in self.metrics.utilization_by_resource().items():
            out[f"utilization_{kind.label.lower()}"] = value
        if self.prediction_error_rate is not None:
            out["prediction_error_rate"] = self.prediction_error_rate
        if self.resilience is not None:
            out["n_failed"] = float(self.n_failed)
            out.update(self.resilience)
        # Only surfaced when set, so completed-run summaries (and the
        # golden traces) stay byte-identical to pre-v1.5 output.
        if self.truncated:
            out["truncated"] = 1.0
        if self.extra_metrics:
            out.update(self.extra_metrics)
        return out


class ClusterSimulator:
    """Instantiates a profile and replays a workload under a scheduler."""

    def __init__(
        self,
        profile: ClusterProfile,
        scheduler: Scheduler,
        config: SimulationConfig | None = None,
        *,
        fault_plan: "FaultPlan | None" = None,
    ) -> None:
        self.profile = profile
        self.scheduler = scheduler
        self.config = config or SimulationConfig()
        self.pms: list[PhysicalMachine]
        self.vms: list[VirtualMachine]
        self.pms, self.vms = profile.build()
        #: The cluster's VM state; ``vms[i]`` is row ``i``.
        self.lanes = ClusterLanes.of(self.vms)
        #: ``vms[i].vm_id`` by row, for expressions over the lanes, and
        #: the row of each ``vm_id``.
        self.vm_ids = np.array([vm.vm_id for vm in self.vms], dtype=np.int64)
        self.vm_rows = {vm.vm_id: row for row, vm in enumerate(self.vms)}
        self.metrics = MetricsRecorder()
        self.slo_tracker = SloTracker(spec=self.config.slo)
        self.pending: list[Job] = []
        self.running: list[Job] = []
        #: Terminal jobs, in the order they ended; nothing writes a job
        #: again once it is here.
        self.rejected = Log()
        self.completed = Log()
        self.failed = Log()
        self.current_slot: int = 0
        self._max_capacity_cache: tuple[int, np.ndarray] | None = None
        #: Max *nominal* VM capacity: admission outlasts any revocation.
        nominal = [vm.base_capacity for vm in self.vms]
        self._admission_limit = np.max(nominal, axis=0)
        # An empty plan builds no injector: the fault layer then adds
        # zero work (and zero behavioural difference) to the slot loop.
        self.faults: "FaultInjector | None" = None
        if fault_plan:
            from ..faults.injector import FaultInjector

            self.faults = FaultInjector(fault_plan)
        scheduler.bind(self)

    @property
    def predictor_available(self) -> bool:
        """False while a fault plan has the prediction service down."""
        return self.faults is None or self.faults.predictor_available

    # ------------------------------------------------------------------
    def max_vm_capacity(self) -> np.ndarray:
        """Elementwise max capacity across VMs (the ``C'`` of Eq. 22), a
        read-only ``(l,)`` row.

        Memoized on the lanes' capacity-change counter: it is read for
        every arriving job (and by CORP for every selection), but
        capacity only changes when a fault revokes or restores it.
        """
        changes = self.lanes.capacity_changes
        cached = self._max_capacity_cache
        if cached is not None and cached[0] == changes:
            return cached[1]
        value = np.maximum(self.lanes.capacity.max(axis=0), 0.0)
        value.setflags(write=False)
        self._max_capacity_cache = (changes, value)
        return value

    def _admit(self, job: Job) -> bool:
        """Reject jobs no VM could ever host (prevents starved queues);
        a job that fits once a revocation ends waits for it instead."""
        return fits_within(job.requested, self._admission_limit)

    # ------------------------------------------------------------------
    def run(self, trace: Trace, *, history: Trace | None = None) -> SimulationResult:
        """Replay ``trace`` and return the run's metrics.

        A thin batch driver over the event kernel: the workload's
        arrivals are preloaded as ``job-submitted`` events and the
        kernel is stepped until the run finishes.  Summaries are
        byte-identical to the pre-kernel in-place slot loop.

        Parameters
        ----------
        trace:
            The evaluation workload (already resampled to slot period).
        history:
            Historical trace for the scheduler's offline phase (model
            training).  Defaults to ``trace`` itself — the paper trains
            on "the historical resource usage data from the Google
            trace", i.e. the same distribution the evaluation replays.
        """
        from ..service.kernel import SchedulerKernel
        from ..trace.workload import build_workload

        workload = build_workload(trace, self.config.slot_duration_s)
        self.scheduler.prepare(history if history is not None else trace)
        kernel = SchedulerKernel.from_workload(self, workload)
        kernel.run_until_blocked()
        return kernel.result()
