"""The four end-to-end workloads.

Everything here goes through ``repro.api`` plus the two names the
hyperscale path needs (``ClusterProfile.hyperscale``,
``GoogleTraceGenerator.generate_chunks``), so a refactor below the
facade cannot break the end-to-end numbers.  Each workload is a
``setup(ctx, trace_seed, size)`` that builds one pass's inputs — after
``prepare`` has warmed the process up and fitted the predictor once per
child — and a ``measure(state)`` that is the timed region.  The drivers
mark one boundary of their own, the streamed trace generation of
``hyperscale_stream``, with ``Context.span``: :meth:`tracer.Tracer.span`
in the traced pass and a no-op otherwise.

Load model (all four): arrivals follow a fixed schedule in *simulated*
time — open loop, a backlog shows as queue wait in slots — while in
host time the loop is closed: the kernel runs as fast as it can.
"""

from __future__ import annotations

import asyncio
import math
import os
import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Sequence

from repro import api
from repro.cluster.profiles import ClusterProfile
from repro.trace.generator import GoogleTraceGenerator

Span = Callable[[str], Any]


@dataclass
class Run:
    """One finished (scenario, method) run inside a workload pass."""

    label: str
    method: str
    result: api.SimulationResult
    #: Jobs the driver submitted to this run.
    expected: int
    #: Wall-clock of every ``kernel.advance()`` that returned a tick
    #: (stepped runs only).
    tick_s: list[float] = field(default_factory=list)
    #: ``placements()`` updates the subscriber received (stepped runs
    #: with a subscriber only).
    streamed: int | None = None


@dataclass
class Pass:
    """What one timed pass of a workload produced."""

    runs: list[Run] = field(default_factory=list)
    snapshot_s: list[float] = field(default_factory=list)
    sink_bytes: int = 0


def short_jobs_only(scenario: api.Scenario) -> api.Scenario:
    """Section IV evaluates short-lived jobs only.

    Known defect (b): with the default ``short_fraction=0.92``
    ``Scenario.evaluation_trace()`` over-generates by a fixed margin and
    raises ``RuntimeError`` when a seed draws too many long jobs (seeds
    18 and 30 at 300 jobs, 2 and 18 at 1,400).  The benchmark must run
    on any seed, so every workload generates short jobs only.
    """
    return replace(
        scenario, trace_config=replace(scenario.trace_config, short_fraction=1.0)
    )


@dataclass
class Context:
    """What one child prepares once and every pass of it shares."""

    #: ``spec.BASE_SEED``: history trace, predictor fit, scheduler rngs.
    seed: int
    #: Holds the predictor fitted on ``seed``'s history during warm-up.
    cache: api.PredictorCache
    work_dir: str
    span: Span


def prepare(workload: str, seed: int, work_dir: str, span: Span) -> Context:
    """Warm-up: a 30-job comparison fills lazy imports and the cache.

    The history trace depends on ``seed`` alone, so the predictor fitted
    here is the one every scenario built from ``seed`` asks the cache
    for afterwards — the set-up fit of the three stepped workloads.
    ``paper_sweep`` times its one cold fit, so its warm-up runs the
    three baselines only and fits nothing.
    """
    cache = api.PredictorCache()
    scenario = short_jobs_only(api.build_scenario(jobs=30, testbed="cluster", seed=seed))
    methods = [
        m for m in api.METHOD_ORDER if m != "CORP" or workload != "paper_sweep"
    ]
    api.compare(scenario=scenario, seed=seed, methods=methods, predictor_cache=cache)
    return Context(seed, cache, work_dir, span)


def build(
    ctx: Context, trace_seed: int, *, jobs: int, testbed: str = "cluster",
    **trace_overrides: Any,
) -> api.Scenario:
    """A short-jobs-only scenario: history from ``ctx.seed``, the
    evaluation trace from ``trace_seed`` (each pass of a run draws its
    own trace; all of them share the one fitted predictor)."""
    scenario = short_jobs_only(
        api.build_scenario(jobs=jobs, testbed=testbed, seed=ctx.seed)
    )
    return replace(
        scenario,
        trace_config=replace(scenario.trace_config, seed=trace_seed, **trace_overrides),
    )


# ----------------------------------------------------------------------
# stepping a service-owned kernel
# ----------------------------------------------------------------------


async def _serve(
    out: Pass,
    *,
    label: str,
    scenario: api.Scenario,
    method: str,
    seed: int,
    cache: api.PredictorCache,
    records: Sequence[Any],
    ahead: float = math.inf,
    subscribe: bool = False,
    snapshot_every: int = 0,
    fault_plan: api.FaultPlan | None = None,
    scale: api.ScaleConfig | None = None,
) -> None:
    """Drive one service run tick by tick and append it to ``out``.

    ``records`` (sorted by arrival) are submitted once the virtual
    clock is within ``ahead`` slots of their arrival slot — ``inf``
    submits everything up front, ``1`` is a live feed one slot ahead.
    The kernel is stepped with ``advance()`` so each tick is timed on
    its own; control returns to the event loop every 32 events, as
    ``SchedulerService.pump`` does, so the subscriber keeps draining.
    """
    slot_s = scenario.sim_config.slot_duration_s
    async with api.open_service(
        scenario=scenario, method=method, seed=seed, predictor_cache=cache,
        fault_plan=fault_plan, scale=scale,
    ) as svc:
        streamed = 0
        tick_s: list[float] = []

        async def drain_stream() -> None:
            nonlocal streamed
            async for _ in svc.placements():
                streamed += 1

        subscriber = asyncio.ensure_future(drain_stream()) if subscribe else None
        kernel = svc.kernel
        clock = time.perf_counter
        i, n, events = 0, len(records), 0
        while True:
            while i < n and records[i].submit_time_s // slot_s <= kernel.next_slot + ahead:
                await svc.submit(records[i])
                i += 1
            start = clock()
            event = kernel.advance()
            elapsed = clock() - start
            if event is None:
                if i >= n:
                    break
                # Idle gap in the arrival schedule: hand over the next job.
                await svc.submit(records[i])
                i += 1
                continue
            events += 1
            if events % 32 == 0:
                await asyncio.sleep(0)
            if event.kind.name != "SLOT_TICK":
                continue
            tick_s.append(elapsed)
            if snapshot_every and len(tick_s) % snapshot_every == 0:
                # Known defect (a): snapshot() deep-copies the kernel,
                # and a service-owned kernel's on_placements hook is a
                # bound method of the service, whose asyncio state
                # cannot be copied ("cannot pickle '_asyncio.Future'").
                # Detach the hook around the snapshot.
                hook, kernel.on_placements = kernel.on_placements, None
                start = clock()
                try:
                    kernel.snapshot()
                finally:
                    kernel.on_placements = hook
                out.snapshot_s.append(clock() - start)
        result = await svc.drain()
        if subscriber is not None:
            await subscriber
    out.runs.append(
        Run(label, method, result, len(records), tick_s,
            streamed if subscribe else None)
    )


# ----------------------------------------------------------------------
# paper_sweep
# ----------------------------------------------------------------------


def setup_paper_sweep(ctx: Context, trace_seed: int, size: dict) -> dict:
    # One trace seed per grid point: the paper subsamples one master
    # trace for every job count, which makes the twelve scenarios of a
    # sweep rise and fall together with the seed; independent traces are
    # the same work and average the seed out.
    grid = [(t, j) for t in size["testbeds"] for j in size["job_counts"]]
    scenarios = [
        build(ctx, trace_seed + 1_000_003 * k, jobs=jobs, testbed=testbed)
        for k, (testbed, jobs) in enumerate(grid)
    ]
    return {"ctx": ctx, "scenarios": scenarios}


def measure_paper_sweep(state: dict) -> Pass:
    # A fresh cache: the one cold DNN/HMM fit belongs to the researcher's
    # wait and so to the timed region.
    results = api.sweep(
        scenarios=state["scenarios"], seed=state["ctx"].seed, workers=0,
        predictor_cache=api.PredictorCache(),
    )
    out = Pass()
    n_methods = len(api.METHOD_ORDER)
    for i, result in enumerate(results):
        result.summary()
        scenario = state["scenarios"][i // n_methods]
        out.runs.append(
            Run(scenario.name, api.METHOD_ORDER[i % n_methods], result, scenario.n_jobs)
        )
    return out


# ----------------------------------------------------------------------
# saturated_queue
# ----------------------------------------------------------------------


def setup_saturated_queue(ctx: Context, trace_seed: int, size: dict) -> dict:
    scenario = build(ctx, trace_seed, jobs=size["jobs"])
    return {
        "ctx": ctx, "scenario": scenario,
        "records": list(scenario.evaluation_trace()),
    }


def measure_saturated_queue(state: dict) -> Pass:
    out = Pass()
    # CORP, then DRA (no packing, no reuse) on the same trace.
    for method in ("CORP", "DRA"):
        asyncio.run(
            _serve(
                out, label=state["scenario"].name, scenario=state["scenario"],
                method=method, seed=state["ctx"].seed, cache=state["ctx"].cache,
                records=state["records"],
            )
        )
        out.runs[-1].result.summary()
    return out


# ----------------------------------------------------------------------
# hyperscale_stream
# ----------------------------------------------------------------------


def setup_hyperscale_stream(ctx: Context, trace_seed: int, size: dict) -> dict:
    scenario = replace(
        build(
            ctx, trace_seed, jobs=size["jobs"], n_jobs=size["jobs"],
            arrival_span_s=None, arrival_rate_per_s=size["jobs_per_s"],
        ),
        name=f"hyperscale-{size['jobs']}jobs",
        profile=ClusterProfile.hyperscale(n_pms=size["n_pms"]),
    )
    scale = api.ScaleConfig()
    with ctx.span("trace.generate") as generated:
        records = [
            record
            for chunk in GoogleTraceGenerator(scenario.trace_config).generate_chunks(
                scale.chunk_size
            )
            for record in chunk
        ]
        generated.extra = float(len(records))
    return {
        "ctx": ctx, "scenario": scenario, "scale": scale,
        "records": records,
    }


def measure_hyperscale_stream(state: dict) -> Pass:
    out = Pass()
    asyncio.run(
        _serve(
            out, label=state["scenario"].name, scenario=state["scenario"],
            method="CORP", seed=state["ctx"].seed, cache=state["ctx"].cache,
            records=state["records"], ahead=1, subscribe=True,
            scale=state["scale"],
        )
    )
    out.runs[-1].result.summary()
    return out


# ----------------------------------------------------------------------
# service_churn
# ----------------------------------------------------------------------


def setup_service_churn(ctx: Context, trace_seed: int, size: dict) -> dict:
    base = build(ctx, trace_seed, jobs=size["jobs"])
    scenario = replace(
        base,
        trace_config=replace(
            base.trace_config,
            arrival_span_s=size["arrival_slots"] * base.sim_config.slot_duration_s,
        ),
    )
    horizon = size["fault_slots"]
    plan = api.FaultPlan(
        events=api.build_fault_plan(
            seed=trace_seed, n_slots=horizon, intensity=1.0
        ).events
        + api.build_revocation_storm(
            seed=trace_seed, n_slots=horizon, intensity=1.0
        ).events
    )
    return {
        "ctx": ctx, "scenario": scenario, "plan": plan,
        "records": list(scenario.evaluation_trace()),
        "snapshot_every": size["snapshot_every"],
        "sink_path": os.path.join(
            ctx.work_dir, f"churn-{os.getpid()}-{trace_seed}.jsonl"
        ),
    }


def measure_service_churn(state: dict) -> Pass:
    out = Pass()
    api.attach_sink(state["sink_path"])
    try:
        asyncio.run(
            _serve(
                out, label=state["scenario"].name, scenario=state["scenario"],
                method="CORP", seed=state["ctx"].seed, cache=state["ctx"].cache,
                records=state["records"], ahead=1, subscribe=True,
                snapshot_every=state["snapshot_every"], fault_plan=state["plan"],
            )
        )
    finally:
        api.detach_sink()
    out.runs[-1].result.summary()
    out.sink_bytes = os.path.getsize(state["sink_path"])
    os.unlink(state["sink_path"])
    return out


SETUP = {
    "paper_sweep": setup_paper_sweep,
    "saturated_queue": setup_saturated_queue,
    "hyperscale_stream": setup_hyperscale_stream,
    "service_churn": setup_service_churn,
}
MEASURE = {
    "paper_sweep": measure_paper_sweep,
    "saturated_queue": measure_saturated_queue,
    "hyperscale_stream": measure_hyperscale_stream,
    "service_churn": measure_service_churn,
}
