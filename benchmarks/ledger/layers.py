"""The one table of deep entry points the traced pass wraps.

The end-to-end drivers (``workloads.py``) import only ``repro.api``
names, ``ClusterProfile`` and ``GoogleTraceGenerator``; every import
deeper than that lives here, as a dotted path resolved at install time.
When a refactor moves or deletes an entry point, its layer's metrics
come out ``null`` and the span name is listed under ``unavailable`` —
the end-to-end numbers are untouched and this table is the one place
to repair.

Wrapping is from outside: ``install`` replaces the attribute on the
class with :meth:`tracer.Tracer.wrap` of the original, so ``src/``
carries no span code and the untraced pass runs the program as shipped.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import Any, Callable

from tracer import Aggregate, Tracer


def resolve(target: str) -> Any:
    """The object at ``"package.module:Attr.attr"``."""
    module_name, _, path = target.partition(":")
    obj = importlib.import_module(module_name)
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


@dataclass(frozen=True)
class Layer:
    span: str
    #: ``"package.module:Class.method"``.
    target: str
    #: Also wrap every loaded subclass that overrides the method (the
    #: scheduler and predictor hierarchies dispatch through overrides).
    overrides: bool = False
    extra: Callable[[tuple, Any], float] | None = None
    rename: Callable[[Any], str] | None = None


def _records_returned(args: tuple, result: Any) -> float:
    return float(len(result))


def _pending_seen(args: tuple, result: Any) -> float:
    return float(len(args[1]))


def _vm_found(args: tuple, result: Any) -> float:
    return 0.0 if result is None else 1.0


def _vm_idle(args: tuple, result: Any) -> float:
    return 0.0 if args[0].placements else 1.0


def _jobs_streamed(args: tuple, result: Any) -> float:
    return float(len(args[2]))


def _tick_or_event(result: Any) -> str:
    if result is not None and result.kind.name == "SLOT_TICK":
        return "kernel.tick"
    return "kernel.event"


_SCHEDULER = "repro.cluster.scheduler:Scheduler"
_PROVISIONING = "repro.core.provisioning:ProvisioningSchedulerBase"
_PREDICTOR = "repro.forecast.base:Predictor"
_CSET = "repro.core.vm_selection:CandidateSet"
_SHARDED = "repro.cluster.shards:ShardedCandidateIndex"
_KERNEL = "repro.service.kernel:SchedulerKernel"
_INJECTOR = "repro.faults.injector:FaultInjector"

LAYERS: tuple[Layer, ...] = (
    Layer("trace.generate", "repro.experiments.scenarios:Scenario.evaluation_trace",
          extra=_records_returned),
    Layer("trace.generate", "repro.experiments.scenarios:Scenario.history_trace",
          extra=_records_returned),
    Layer("forecast.cache_get", "repro.experiments.runner:PredictorCache.get"),
    Layer("forecast.fit", f"{_PREDICTOR}.fit", overrides=True),
    Layer("forecast.refresh", f"{_SCHEDULER}.on_slot_start", overrides=True),
    Layer("forecast.predict", f"{_PREDICTOR}.predict_job_unused", overrides=True),
    Layer("packing.make_entities", f"{_PROVISIONING}.make_entities",
          overrides=True, extra=_pending_seen),
    Layer("placement.place_jobs", f"{_SCHEDULER}.place_jobs", overrides=True),
    Layer("placement.choose_vm", f"{_PROVISIONING}.choose_vm",
          overrides=True, extra=_vm_found),
    Layer("index.select", f"{_CSET}.select_most_matched"),
    Layer("index.select", f"{_CSET}.select_random_feasible"),
    Layer("index.select", f"{_SHARDED}.select_most_matched"),
    Layer("index.select", f"{_SHARDED}.select_random_feasible"),
    Layer("index.consume", f"{_CSET}.consume"),
    Layer("index.consume", f"{_SHARDED}.consume"),
    Layer("index.refresh", f"{_SHARDED}.refresh"),
    Layer("machine.execute_slot", "repro.cluster.machine:VirtualMachine.execute_slot",
          extra=_vm_idle),
    Layer("sched.on_slot_end", f"{_SCHEDULER}.on_slot_end", overrides=True),
    Layer("kernel.event", f"{_KERNEL}.advance", rename=_tick_or_event),
    Layer("kernel.snapshot", f"{_KERNEL}.snapshot"),
    Layer("metrics.summary", f"{_KERNEL}.result"),
    Layer("metrics.summary", "repro.cluster.simulator:SimulationResult.summary"),
    Layer("sim.run", "repro.cluster.simulator:ClusterSimulator.run"),
    Layer("daemon.emit_placements",
          "repro.service.daemon:SchedulerService._emit_placements",
          extra=_jobs_streamed),
    Layer("faults.phase", f"{_INJECTOR}.restore_phase"),
    Layer("faults.phase", f"{_INJECTOR}.fault_phase"),
    Layer("obs.sink_emit", "repro.obs.events:JsonlSink.emit"),
)

#: Raw spans are kept for ticks and everything above them.
KEEP_RAW = frozenset(
    {"setup", "measure", "sim.run", "kernel.tick", "kernel.snapshot"}
)


def _loaded_subclasses(cls: type) -> list[type]:
    found: list[type] = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_loaded_subclasses(sub))
    return found


def install(tracer: Tracer) -> list[str]:
    """Wrap every resolvable layer; returns the span names that are not."""
    unavailable: list[str] = []
    for layer in LAYERS:
        owner_path, _, attr = layer.target.rpartition(".")
        try:
            owner = resolve(owner_path)
            getattr(owner, attr)
        except (ImportError, AttributeError):
            unavailable.append(layer.span)
            continue
        classes = [owner]
        if layer.overrides:
            classes += [c for c in _loaded_subclasses(owner) if attr in c.__dict__]
        for cls in classes:
            setattr(
                cls,
                attr,
                tracer.wrap(
                    getattr(cls, attr), layer.span,
                    extra=layer.extra, rename=layer.rename,
                ),
            )
    return sorted(set(unavailable))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


#: Per-layer metric -> (span names it reads, how to compute it from
#: ``get(span) -> Aggregate``).  A metric whose span is unavailable is
#: reported ``null``; a span that simply never ran reads as zeros.
#: Aggregates cover the timed region only, except for the metrics in
#: ``WHOLE_CHILD``, whose cost lands in set-up on three workloads.
TRACE_METRICS: dict[
    str, tuple[tuple[str, ...], Callable[[Callable[[str], Aggregate]], float]]
] = {
    "trace.generate_s": (("trace.generate",), lambda g: g("trace.generate").total_s),
    "trace.records": (("trace.generate",), lambda g: g("trace.generate").extra),
    "forecast.fit_s": (("forecast.fit",), lambda g: g("forecast.fit").total_s),
    "forecast.fit_calls": (("forecast.fit",), lambda g: g("forecast.fit").count),
    "forecast.cache_hit_ratio": (
        ("forecast.cache_get", "forecast.fit"),
        lambda g: _ratio(
            g("forecast.cache_get").count - g("forecast.fit").count,
            g("forecast.cache_get").count,
        ),
    ),
    "forecast.refresh_s": (("forecast.refresh",), lambda g: g("forecast.refresh").self_s),
    "forecast.predict_s": (("forecast.predict",), lambda g: g("forecast.predict").total_s),
    "forecast.predict_calls": (("forecast.predict",), lambda g: g("forecast.predict").count),
    "packing.make_entities_s": (
        ("packing.make_entities",), lambda g: g("packing.make_entities").total_s),
    "packing.calls": (("packing.make_entities",), lambda g: g("packing.make_entities").count),
    "packing.pending_mean": (
        ("packing.make_entities",),
        lambda g: _ratio(g("packing.make_entities").extra, g("packing.make_entities").count),
    ),
    "placement.place_jobs_self_s": (
        ("placement.place_jobs",), lambda g: g("placement.place_jobs").self_s),
    "placement.attempts": (("placement.choose_vm",), lambda g: g("placement.choose_vm").count),
    "placement.placed": (("placement.choose_vm",), lambda g: g("placement.choose_vm").extra),
    "placement.useful_ratio": (
        ("placement.choose_vm",),
        lambda g: _ratio(g("placement.choose_vm").extra, g("placement.choose_vm").count),
    ),
    "index.select_s": (("index.select",), lambda g: g("index.select").total_s),
    "index.select_calls": (("index.select",), lambda g: g("index.select").count),
    "index.consume_s": (("index.consume",), lambda g: g("index.consume").total_s),
    "index.refresh_s": (("index.refresh",), lambda g: g("index.refresh").total_s),
    "index.refresh_calls": (("index.refresh",), lambda g: g("index.refresh").count),
    "machine.execute_slot_s": (
        ("machine.execute_slot",), lambda g: g("machine.execute_slot").total_s),
    "machine.execute_slot_calls": (
        ("machine.execute_slot",), lambda g: g("machine.execute_slot").count),
    "machine.idle_call_share": (
        ("machine.execute_slot",),
        lambda g: _ratio(g("machine.execute_slot").extra, g("machine.execute_slot").count),
    ),
    "sched.on_slot_end_s": (("sched.on_slot_end",), lambda g: g("sched.on_slot_end").total_s),
    "kernel.tick_self_s": (("kernel.event",), lambda g: g("kernel.tick").self_s),
    "kernel.events": (
        ("kernel.event",), lambda g: g("kernel.tick").count + g("kernel.event").count),
    "kernel.slots": (("kernel.event",), lambda g: g("kernel.tick").count),
    "kernel.snapshot_s": (
        ("kernel.snapshot",),
        lambda g: _ratio(g("kernel.snapshot").total_s, g("kernel.snapshot").count),
    ),
    "kernel.snapshot_calls": (("kernel.snapshot",), lambda g: g("kernel.snapshot").count),
    "daemon.emit_placements_s": (
        ("daemon.emit_placements",), lambda g: g("daemon.emit_placements").total_s),
    "daemon.updates": (
        ("daemon.emit_placements",), lambda g: g("daemon.emit_placements").extra),
    "faults.phase_s": (("faults.phase",), lambda g: g("faults.phase").total_s),
    "metrics.summary_s": (("metrics.summary",), lambda g: g("metrics.summary").total_s),
    "obs.events": (("obs.sink_emit",), lambda g: g("obs.sink_emit").count),
}


WHOLE_CHILD = frozenset(
    {
        "trace.generate_s", "trace.records", "forecast.fit_s",
        "forecast.fit_calls", "forecast.cache_hit_ratio",
    }
)


def trace_metrics(
    tracer: Tracer, at_timed_start: dict[str, Aggregate], unavailable: list[str]
) -> dict[str, float | None]:
    """Every span-derived per-layer metric (``None`` where unavailable)."""
    missing = set(unavailable)

    def timed(name: str) -> Aggregate:
        return tracer.get(name, since=at_timed_start)

    return {
        name: None
        if missing.intersection(spans)
        else float(compute(tracer.get if name in WHOLE_CHILD else timed))
        for name, (spans, compute) in TRACE_METRICS.items()
    }
