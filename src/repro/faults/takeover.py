"""Mid-run scheduler takeover drill (HA standby resumes from snapshot).

The scenario the event kernel makes testable: a *live* kernel schedules
the workload while a *standby* holds a :class:`~repro.service.kernel.KernelSnapshot`
taken mid-run.  The live scheduler then "crashes" (we simply stop
consuming it) and the standby resumes from the snapshot — restore,
re-arm, run to completion.  The snapshot copies the live state and
shares only what nothing writes again (finished jobs, trace records, VM
history rows, SLO outcomes), and every event source is deterministic,
so the standby must finish the run with *exactly* the summary and
per-job outcomes the live kernel would have produced; the drill runs
both sides and reports any divergence.

This mirrors the leader-election handover of HA scheduler pairs
(active/standby cloud managers): the snapshot is the replicated state,
the takeover slot is the failover point, and summary plus per-job
equality is the "no decisions lost or repeated" guarantee.

Wall-clock metrics (``allocation_latency_s``) are excluded from the
comparison — both sides redo real scheduling work, so their timers
legitimately differ.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from ..core.config import CorpConfig
    from ..experiments.runner import PredictorCache
    from ..experiments.scenarios import Scenario
    from .plan import FaultPlan

__all__ = ["TakeoverReport", "takeover_run"]

#: Summary keys that measure host wall-clock, not simulated behaviour.
WALL_CLOCK_KEYS = frozenset({"allocation_latency_s"})


@dataclass(frozen=True)
class TakeoverReport:
    """Outcome of one takeover drill."""

    method: str
    #: The failover point: first slot the standby executed itself.
    takeover_slot: int
    #: Events the live kernel had consumed when the snapshot was taken.
    events_before_snapshot: int
    #: Events the standby consumed from restore to completion.
    events_after_takeover: int
    live_summary: dict[str, float]
    standby_summary: dict[str, float]
    #: ``key -> (live, standby)`` for every differing non-wall-clock
    #: metric, plus ``jobs_differing -> (0, n)`` when ``n`` jobs ended
    #: differently; empty when the handover was perfectly deterministic.
    divergence: dict[str, tuple[float, float]]

    @property
    def ok(self) -> bool:
        """True when the standby reproduced the live run exactly."""
        return not self.divergence

    def as_dict(self) -> dict[str, object]:
        """JSON-ready form for reports and the CLI."""
        return {
            "method": self.method,
            "takeover_slot": self.takeover_slot,
            "events_before_snapshot": self.events_before_snapshot,
            "events_after_takeover": self.events_after_takeover,
            "ok": self.ok,
            "divergence": {
                key: list(pair) for key, pair in self.divergence.items()
            },
            "live_summary": self.live_summary,
            "standby_summary": self.standby_summary,
        }


def takeover_run(
    *,
    scenario: "Scenario | None" = None,
    jobs: int = 40,
    testbed: str = "cluster",
    seed: int = 7,
    method: str = "CORP",
    takeover_slot: int | None = None,
    corp_config: "CorpConfig | None" = None,
    predictor_cache: "PredictorCache | None" = None,
    fault_plan: "FaultPlan | None" = None,
) -> TakeoverReport:
    """Run the standby-takeover drill and report live/standby divergence.

    Builds a batch kernel for (``scenario``, ``method``), advances the
    live side to ``takeover_slot`` (default: mid-horizon), snapshots,
    lets the live side finish as the ground truth, then restores the
    snapshot into a standby kernel and runs *it* to completion.  A
    correct handover yields an empty :attr:`TakeoverReport.divergence`.
    Both summaries carry the scenario family's metrics; a pipeline
    scenario raises :class:`ValueError` (driver-fed: no batch kernel).

    ``fault_plan=`` makes the drill adversarial: the standby must also
    resume mid-outage fault-injector state (backoffs, revocations,
    downed VMs) to match.
    """
    # Lazy: experiments.scenarios imports this package for FaultPlan.
    from ..experiments.runner import build_kernel, finish_result

    if scenario is None:
        from ..experiments.scenarios import testbed_scenario

        scenario = testbed_scenario(testbed, jobs, seed=seed)
    if fault_plan is not None:
        scenario = scenario.with_fault_plan(fault_plan)

    live = build_kernel(
        scenario=scenario,
        method=method,
        seed=seed,
        corp_config=corp_config,
        predictor_cache=predictor_cache,
        streaming=False,
    )
    if takeover_slot is None:
        takeover_slot = max(live.horizon // 2, 1)

    events_before = 0
    while not live.finished and live.next_slot < takeover_slot:
        if live.advance() is None:
            break
        events_before += 1
    snapshot = live.snapshot()

    # Ground truth: what the live kernel would have done uninterrupted.
    live.run_until_blocked()
    live_summary = finish_result(live.result(), scenario).summary()

    # Failover: the standby resumes from the replicated state.
    standby = snapshot.restore()
    events_after = standby.run_until_blocked()
    standby_summary = finish_result(standby.result(), scenario).summary()

    divergence: dict[str, tuple[float, float]] = {}
    for key in sorted(set(live_summary) | set(standby_summary)):
        if key in WALL_CLOCK_KEYS:
            continue
        live_value = live_summary.get(key, float("nan"))
        standby_value = standby_summary.get(key, float("nan"))
        if live_value != standby_value:
            divergence[key] = (live_value, standby_value)
    # Equal totals can hide jobs that ran at different slots.
    live_jobs, standby_jobs = (
        {j.job_id: (j.state, j.start_slot, j.completion_slot, j.evictions,
                    j.retries, j.opportunistic) for j in kernel.result().jobs}
        for kernel in (live, standby)
    )
    differing = sum(
        live_jobs.get(i) != standby_jobs.get(i) for i in live_jobs.keys() | standby_jobs.keys()
    )
    if differing:
        divergence["jobs_differing"] = (0, differing)

    return TakeoverReport(
        method=method,
        takeover_slot=snapshot.taken_at_slot,
        events_before_snapshot=events_before,
        events_after_takeover=events_after,
        live_summary=live_summary,
        standby_summary=standby_summary,
        divergence=divergence,
    )
