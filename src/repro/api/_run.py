"""Batch entry points: ``run_one`` / ``compare`` / ``sweep`` / ``profile_run``.

Internal module — import these through :mod:`repro.api`.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from ..cluster.shards import ScaleConfig
from ..cluster.simulator import SimulationResult
from ..core.config import CorpConfig
from ..experiments.runner import (
    METHOD_ORDER,
    PredictorCache,
    RunSpec,
    run_specs,
    sweep_specs,
)
from ..experiments.scenarios import (
    SCENARIO_FAMILIES,
    Scenario,
    diurnal_scenario,
    pipeline_scenario,
    storm_scenario,
    testbed_scenario,
)
from ..faults.plan import FaultPlan
from ..forecast.base import Predictor
from ..obs import OBS, Sink
from ..obs import attach_sink as _attach_sink
from ..obs import detach_sink

__all__ = [
    "attach_sink",
    "build_scenario",
    "run_one",
    "compare",
    "sweep",
    "profile_run",
]


def attach_sink(sink: Sink | str) -> Sink:
    """Attach an event sink (a :class:`~repro.obs.Sink` or a JSONL path).

    Events from subsequent runs stream to the sink until
    :func:`detach_sink`.  Prefer the :func:`capture_events` context
    manager when the capture window is a single block.
    """
    return _attach_sink(sink)


def build_scenario(
    *,
    jobs: int = 200,
    testbed: str = "cluster",
    seed: int = 7,
    family: str | None = None,
) -> Scenario:
    """A testbed scenario by name (``"cluster"`` or ``"ec2"``).

    ``family=`` selects a scenario-zoo variant on the chosen testbed's
    profile: ``"pipeline"`` (phased DAG submission), ``"diurnal"``
    (day/night arrivals with flash crowds) or ``"storm"`` (spot
    revocation waves at intensity 0.5); ``None`` is the paper's plain
    steady-arrival scenario.
    """
    if family is None:
        return testbed_scenario(testbed, jobs, seed=seed)
    profile = testbed_scenario(testbed, 1, seed=seed).profile
    family_builders = {
        "pipeline": pipeline_scenario,
        "diurnal": diurnal_scenario,
        "storm": storm_scenario,
    }
    try:
        family_builder = family_builders[family]
    except KeyError:
        raise ValueError(
            f"unknown scenario family {family!r} "
            f"(expected one of {list(SCENARIO_FAMILIES)})"
        ) from None
    return family_builder(jobs, seed=seed, profile=profile)


def _apply_fault_plan(
    scenario: Scenario, fault_plan: FaultPlan | None
) -> Scenario:
    """Fold an explicit ``fault_plan=`` argument into the scenario."""
    if fault_plan is None:
        return scenario
    return scenario.with_fault_plan(fault_plan)


def _predictor_name(predictor: "str | Predictor") -> str:
    """The registry-name form of a ``predictor=`` argument (for specs/meta)."""
    if isinstance(predictor, str):
        return predictor
    return predictor.family


def _parallel_events_path(workers: int) -> str | None:
    """How a parallel run coexists with attached observability.

    Returns the shard base path (the attached sink's file path) when
    per-worker event shards can be merged on join, or ``None`` when no
    sink is attached.  Observability modes that cannot cross process
    boundaries raise a clear :class:`ValueError` instead of silently
    forcing the serial path.
    """
    if workers < 2:
        return None
    from ..check import CHECK

    if CHECK.enabled:
        raise ValueError(
            "workers >= 2 is incompatible with an installed invariant "
            "checker: violations recorded in worker processes cannot reach "
            "it. Use workers=0 while checking."
        )
    if OBS.profiling:
        raise ValueError(
            "workers >= 2 is incompatible with profiling: counters and "
            "timers are process-local. Use workers=0 while profiling."
        )
    sink = OBS.sink
    if sink is None:
        return None
    path = getattr(sink, "path", None)
    if path is None:
        raise ValueError(
            "workers >= 2 with an in-memory or stream-backed sink attached: "
            "events recorded in worker processes cannot reach it. Attach a "
            "path-backed JSONL sink (attach_sink('events.jsonl')) to have "
            "per-worker shards merged on join, or run with workers=0."
        )
    return path


def _emit_run_meta(
    *,
    scenario: Scenario,
    methods: tuple[str, ...],
    jobs: int | None,
    testbed: str | None,
    seed: int | None,
    replayable: bool,
    predictor: str = "corp",
) -> None:
    """Stamp an attached capture with the parameters replay needs.

    Emitted only when a sink is attached; a capture without this record
    cannot be replayed (:func:`replay` says so).  ``replayable`` is
    False for prebuilt scenarios — their construction parameters are
    unknown here, so the record still documents the run but replay
    refuses it.
    """
    if OBS.sink is None:
        return
    from dataclasses import asdict

    from .. import __version__

    plan = scenario.fault_plan
    plan_payload = None
    if plan:
        plan_payload = {"retry": asdict(plan.retry), "events": plan.to_dicts()}
    OBS.emit(
        "run_meta",
        version=__version__,
        replayable=replayable,
        jobs=jobs,
        testbed=testbed,
        seed=seed,
        scenario=scenario.name,
        methods=list(methods),
        predictor=predictor,
        fault_plan=plan_payload,
    )


def run_one(
    *,
    scenario: Scenario,
    method: str,
    seed: int = 0,
    corp_config: CorpConfig | None = None,
    predictor_cache: PredictorCache | None = None,
    predictor: "str | Predictor" = "corp",
    fault_plan: FaultPlan | None = None,
    scale: ScaleConfig | None = None,
) -> SimulationResult:
    """Run one method on one scenario (optionally under a fault plan).

    ``predictor=`` names the registered forecasting family CORP runs on
    (or passes a prebuilt :class:`~repro.forecast.base.Predictor`
    instance); baselines ignore it.  Unknown names raise
    :class:`ValueError` listing the registry.  ``scale=`` overrides the
    scenario's :class:`~repro.cluster.shards.ScaleConfig` (streaming
    chunk size; ``shards`` is a deprecated no-op).
    """
    spec = RunSpec(
        scenario=_apply_fault_plan(scenario, fault_plan).with_scale(scale),
        method=method,
        seed=seed,
        corp_config=corp_config,
        predictor=predictor,
    )
    return run_specs(specs=[spec], predictor_cache=predictor_cache)[0]


def compare(
    *,
    scenario: Scenario | None = None,
    jobs: int = 200,
    testbed: str = "cluster",
    seed: int = 7,
    methods: Iterable[str] = METHOD_ORDER,
    workers: int = 0,
    predictor_cache: PredictorCache | None = None,
    predictor: "str | Predictor" = "corp",
    fault_plan: FaultPlan | None = None,
    scale: ScaleConfig | None = None,
) -> dict[str, SimulationResult]:
    """Run every method on the same workload; ``method → result``.

    Pass either a prebuilt ``scenario`` or the (``jobs``, ``testbed``,
    ``seed``) triple to build one; ``fault_plan=`` replays a fault
    schedule against every method, ``predictor=`` selects CORP's
    forecasting family and ``scale=`` sets the scale knobs (streaming
    chunk size; ``shards`` is a deprecated no-op).  ``workers >= 2``
    fans the methods over worker processes — results are bit-identical
    to serial, and the predictor must then be a registry name
    (instances are process-local).  With a
    path-backed JSONL sink attached, each worker records its events to a
    shard merged (in method order) on join; in-memory sinks and
    profiling cannot cross processes and raise :class:`ValueError`.
    """
    built_here = scenario is None
    if scenario is None:
        scenario = build_scenario(jobs=jobs, testbed=testbed, seed=seed)
    scenario = _apply_fault_plan(scenario, fault_plan).with_scale(scale)
    methods = tuple(methods)
    specs = sweep_specs(
        scenarios=[scenario], methods=methods, seed=seed, predictor=predictor
    )
    _emit_run_meta(
        scenario=scenario,
        methods=methods,
        jobs=jobs if built_here else None,
        testbed=testbed if built_here else None,
        seed=seed if built_here else None,
        replayable=built_here,
        predictor=_predictor_name(predictor),
    )
    results = run_specs(
        specs=specs,
        workers=workers,
        predictor_cache=predictor_cache,
        events_path=_parallel_events_path(workers),
    )
    return {spec.method: result for spec, result in zip(specs, results)}


def sweep(
    *,
    scenarios: Sequence[Scenario],
    methods: Iterable[str] = METHOD_ORDER,
    seed: int = 0,
    corp_config: CorpConfig | None = None,
    workers: int = 0,
    predictor_cache: PredictorCache | None = None,
    predictor: "str | Predictor" = "corp",
    fault_plan: FaultPlan | None = None,
    scale: ScaleConfig | None = None,
) -> list[SimulationResult]:
    """Scenarios × methods, in sweep order (scenario-major).

    The list aligns with ``sweep_specs(scenarios=...)``.  A
    ``fault_plan=`` here applies the same schedule to *every* scenario
    (build per-scenario plans with :func:`inject` for anything finer,
    e.g. a fault-intensity sweep); ``predictor=`` selects CORP's
    forecasting family and ``scale=`` the hyperscale knobs for every
    run.  Parallel observability follows
    :func:`compare`'s rules: path-backed JSONL sinks shard per worker
    and merge on join; other recording modes raise :class:`ValueError`
    with ``workers >= 2`` — as does a predictor *instance*, which
    cannot cross process boundaries.
    """
    specs = sweep_specs(
        scenarios=[
            _apply_fault_plan(s, fault_plan).with_scale(scale)
            for s in scenarios
        ],
        methods=methods,
        seed=seed,
        corp_config=corp_config,
        predictor=predictor,
    )
    return run_specs(
        specs=specs,
        workers=workers,
        predictor_cache=predictor_cache,
        events_path=_parallel_events_path(workers),
    )


def profile_run(
    *,
    jobs: int = 50,
    testbed: str = "cluster",
    seed: int = 7,
    methods: Iterable[str] = METHOD_ORDER,
    predictor_cache: PredictorCache | None = None,
    predictor_cache_size: int = 16,
    predictor: "str | Predictor" = "corp",
    events: str | None = None,
) -> dict:
    """Run a profiled comparison and return the per-stage report.

    Enables counter/timer recording for the duration of one serial
    :func:`compare`, then returns::

        {
          "stages":   [{"stage", "calls", "total_s", "mean_s", "share"}...],
          "counters": {name: value, ...},
          "summaries": {method: summary-dict, ...},
          "predictor_cache": {size, maxsize, hits, misses[, store...]},
          "total_s":  float,
        }

    ``predictor_cache=`` profiles against a caller-configured cache
    (e.g. one with a :class:`PredictorStore` attached); otherwise a
    fresh in-memory cache of ``predictor_cache_size`` entries is used.
    ``events=`` additionally captures the run's event stream to a JSONL
    file for the duration of the profile — the sink is always detached
    on the way out, even when the run raises.  Without ``events=`` the
    caller keeps any already-attached sink; profiling state and
    previously recorded counters/timers are reset first so the report
    covers exactly this run.
    """
    cache = (
        predictor_cache
        if predictor_cache is not None
        else PredictorCache(maxsize=predictor_cache_size)
    )
    OBS.counters.reset()
    OBS.timers.reset()
    attached = attach_sink(events) if events is not None else None
    OBS.enable_profiling()
    try:
        results = compare(
            jobs=jobs, testbed=testbed, seed=seed, methods=methods,
            workers=0, predictor_cache=cache, predictor=predictor,
        )
    finally:
        OBS.disable_profiling()
        if attached is not None and OBS.sink is attached:
            detach_sink()
    stats = OBS.timers.snapshot()
    total = sum(s.total_s for s in stats)
    stages = [
        {
            "stage": s.name,
            "calls": s.count,
            "total_s": round(s.total_s, 6),
            "mean_s": round(s.mean_s, 6),
            "share": round(s.total_s / total, 4) if total > 0 else 0.0,
        }
        for s in stats
    ]
    return {
        "profile": "per-stage wall clock, one serial compare run",
        "jobs": jobs,
        "testbed": testbed,
        "seed": seed,
        "predictor": _predictor_name(predictor),
        "stages": stages,
        "counters": OBS.counters.snapshot(),
        "summaries": {m: r.summary() for m, r in results.items()},
        "predictor_cache": cache.stats(),
        "total_s": round(total, 6),
    }
