"""Service Level Objective model and violation tracking.

Section IV: "SLO is specified by using a threshold on the response time
of a job, and the threshold is set based on the execution time of a task
in the trace" and "the SLO violation occurs when a job's response time
exceeds the threshold on its response time."
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .job import Job
from .logs import LogDict

__all__ = ["SloSpec", "SloTracker"]


@dataclass(frozen=True)
class SloSpec:
    """Response-time SLO derived from nominal execution time.

    A job with nominal runtime ``n`` slots violates its SLO when its
    response time (queueing + execution, in slots) exceeds
    ``ceil(slack_factor * n)``.

    Parameters
    ----------
    slack_factor:
        Multiplicative headroom over the nominal runtime; 1.2 means a job
        may run 20% longer than uncontended before violating.
    """

    slack_factor: float = 1.2

    def __post_init__(self) -> None:
        if self.slack_factor < 1.0:
            raise ValueError("slack_factor must be >= 1 (threshold below nominal "
                             "runtime would violate every job)")

    def threshold_slots(self, job: Job) -> int:
        """Response-time threshold for ``job``, in slots."""
        return max(1, int(-(-self.slack_factor * job.nominal_slots // 1)))

    def is_violated(self, job: Job) -> bool:
        """Whether a *completed* job violated its SLO."""
        response = job.response_slots()
        if response is None:
            raise ValueError(f"job {job.job_id} has not completed")
        return response > self.threshold_slots(job)


@dataclass
class SloTracker:
    """Accumulates per-job SLO outcomes over a simulation run."""

    spec: SloSpec = field(default_factory=SloSpec)
    completed: int = 0
    violated: int = 0
    #: job_id -> (response_slots, threshold_slots, violated)
    outcomes: LogDict = field(default_factory=LogDict)

    def record(self, job: Job) -> bool:
        """Record a completed job; returns whether it violated."""
        response = job.response_slots()
        if response is None:
            raise ValueError(f"job {job.job_id} has not completed")
        threshold = self.spec.threshold_slots(job)
        bad = response > threshold
        self.completed += 1
        self.violated += int(bad)
        self.outcomes[job.job_id] = (response, threshold, bad)
        return bad

    @property
    def violation_rate(self) -> float:
        """Fraction of completed jobs that violated (0 when none completed)."""
        if self.completed == 0:
            return 0.0
        return self.violated / self.completed
