"""Mixed short + long-lived workload (extension).

Section IV removes long-lived jobs to stress the short-job challenge,
but notes that "CORP can also achieve good results using the original
Google trace because it can handle both long-lived and short-lived jobs
with deep learning and HMM model".  This experiment keeps the long jobs
in and verifies the claim: CORP's advantage over the baselines survives
when patterned long-running services share the cluster with patternless
short jobs.

Long jobs are scaled to 15–30 minutes (90–180 slots) with a 10-minute
periodic usage pattern so the experiment stays laptop-sized while
preserving the property that matters: their usage *has* a pattern.
"""

from __future__ import annotations

import dataclasses

from ..trace.generator import GoogleTraceGenerator
from ..trace.records import Trace
from ..trace.transform import resample_trace
from .runner import PredictorCache, RunSpec, run_scenario
from .scenarios import Scenario, cluster_scenario

__all__ = ["mixed_scenario", "run_mixed_workload"]


def _mixed_config(cfg, *, short_fraction: float):
    return dataclasses.replace(
        cfg,
        short_fraction=short_fraction,
        long_duration_range_s=(900.0, 1800.0),
        long_pattern_period_s=600.0,
    )


def mixed_scenario(
    n_jobs: int = 200, *, seed: int = 7, short_fraction: float = 0.7
) -> Scenario:
    """A cluster scenario whose trace keeps its long-lived jobs."""
    base = cluster_scenario(n_jobs, seed=seed)
    return dataclasses.replace(
        base,
        name=f"mixed-{n_jobs}jobs",
        trace_config=_mixed_config(base.trace_config, short_fraction=short_fraction),
        history_config=_mixed_config(
            base.history_config, short_fraction=short_fraction
        ),
    )


def _unfiltered(cfg, slot_duration_s: float) -> Trace:
    """``cfg``'s trace *without* the short-only filter."""
    return resample_trace(
        GoogleTraceGenerator(cfg).generate(), slot_duration_s, seed=cfg.seed
    )


def run_mixed_workload(
    *,
    n_jobs: int = 200,
    seed: int = 7,
    short_fraction: float = 0.7,
    cache: PredictorCache | None = None,
    methods=("CORP", "RCCR", "CloudScale", "DRA"),
) -> dict[str, dict[str, float]]:
    """Run the methods on the unfiltered (short + long) workload.

    The history trace is also unfiltered, so CORP's DNN/HMM train on
    both populations — the paper's "original Google trace" setting.
    Returns ``method → summary`` with a ``riders`` count added.
    """
    cache = cache if cache is not None else PredictorCache()
    scenario = mixed_scenario(n_jobs, seed=seed, short_fraction=short_fraction)
    slot_s = scenario.sim_config.slot_duration_s
    trace = _unfiltered(
        dataclasses.replace(scenario.trace_config, n_jobs=scenario.n_jobs), slot_s
    )
    history = _unfiltered(scenario.history_config, slot_s)
    out: dict[str, dict[str, float]] = {}
    for name in methods:
        scheduler = RunSpec(
            scenario=scenario, method=name, seed=seed
        ).make_scheduler(cache, history)
        result = run_scenario(
            scenario, scheduler, trace=trace, history=history
        )
        summary = result.summary()
        summary["riders"] = float(sum(1 for j in result.jobs if j.opportunistic))
        summary["n_long"] = float(sum(1 for j in result.jobs if not j.record.is_short))
        out[name] = summary
    return out
