"""Experiment runner: one (scheduler, scenario) pair → metrics.

Assembly has one path: :func:`build_kernel` (the only constructor of a
simulator from a scenario and caller of ``prepare``), a driver stepping
the kernel, then :func:`finish_result`.  :func:`run_scenario` is those
three in a row; :func:`default_schedulers` is the one method table.

Also hosts the :class:`PredictorCache`, which shares CORP's offline
DNN/HMM fit across the many runs of a sweep — the paper trains once on
the historical Google-trace data and reuses the models.

API convention (finalized in v1.2): the public entry points
:func:`run_specs` and :func:`sweep_specs` take keyword-only arguments
with uniform names (``specs=``, ``scenarios=``, ``predictor_cache=``,
``workers=``).  The v1.1 deprecation shims (positional forms, the
``cache=`` spelling) are gone: those calls now raise :class:`TypeError`.

:func:`run_specs` is the one orchestrator of "scenario x method ->
result": every :mod:`repro.api` entry point builds :class:`RunSpec`
lists and executes them here, on top of the :func:`run_scenario`
single-run primitive.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from ..baselines import CloudScaleScheduler, DraScheduler, RccrScheduler
from ..cluster.scheduler import Scheduler
from ..cluster.simulator import ClusterSimulator, SimulationResult
from ..core.config import CorpConfig
from ..core.corp import CorpScheduler
from ..core.predictor_store import PredictorStore, fit_fingerprint
from ..forecast.base import Predictor
from ..forecast.registry import create_predictor, predictor_class
from ..obs import OBS
from ..obs.events import Event, JsonlSink, read_jsonl
from ..trace.records import Trace
from ..service.kernel import SchedulerKernel
from ..trace.workload import build_workload
from .scenarios import Scenario
from .workloads.diurnal import flash_crowd_p99_wait
from .workloads.pipeline import run_pipeline

__all__ = [
    "PredictorCache",
    "default_schedulers",
    "build_kernel",
    "finish_result",
    "run_scenario",
    "RunSpec",
    "run_specs",
    "sweep_specs",
    "METHOD_ORDER",
]

#: Presentation order used by every report (matches the paper's legends).
METHOD_ORDER: tuple[str, ...] = ("CORP", "RCCR", "CloudScale", "DRA")

SchedulerFactory = Callable[[], Scheduler]


@dataclass
class PredictorCache:
    """LRU cache of fitted :class:`~repro.forecast.base.Predictor` objects.

    Keyed by the predictor family, the CORP config's identity fields and
    the history trace's *content* digest: sweeps regenerate the same
    seeded history trace at every point, so keying on object identity
    (the original behaviour) silently refit the DNN/HMM stack once per
    sweep point.  One offline fit now serves every run that trains on
    identical data, which is what the paper does — train once on the
    historical Google-trace data, reuse the models.

    The cache is bounded (``maxsize`` entries, least-recently-used
    evicted first) so a long-lived process sweeping many distinct
    (config, history) pairs cannot grow it without limit.  Hit/miss
    totals are kept on the instance and mirrored to the observability
    counters ``predictor_cache.hit`` / ``predictor_cache.miss`` when a
    sink or profiler is active.

    A :class:`~repro.core.predictor_store.PredictorStore` extends the
    cache across processes: memory misses consult the store before
    fitting, and fresh fits are persisted back.  ``warm_start=True``
    additionally seeds unavoidable fits from the nearest stored artifact
    of the same config (opt-in — warm-started weights differ from cold
    ones).
    """

    _cache: "OrderedDict[str, Predictor]" = field(
        default_factory=OrderedDict
    )
    #: Large enough to hold one fit per scenario of the full sweep (12)
    #: plus the ablation variants; small enough to bound a long-lived
    #: process.  LRU order makes sweeps (which touch keys consecutively)
    #: eviction-free even right at the bound.
    maxsize: int = 16
    hits: int = 0
    misses: int = 0
    #: Optional on-disk artifact store (cross-process tier).
    store: PredictorStore | None = None
    #: Seed unavoidable fits from the store's nearest same-config
    #: artifact.  Opt-in: changes the fitted weights.
    warm_start: bool = False
    store_hits: int = 0
    store_misses: int = 0
    warm_starts: int = 0

    def __post_init__(self) -> None:
        if self.maxsize < 1:
            raise ValueError("maxsize must be >= 1")
        # Worker-pool seeding hands over a plain dict; normalize it.
        if not isinstance(self._cache, OrderedDict):
            self._cache = OrderedDict(self._cache)

    def __len__(self) -> int:
        return len(self._cache)

    def get(
        self, config: CorpConfig, history: Trace, predictor: str = "corp"
    ) -> Predictor:
        """Fitted predictor for (family, config, history), fit once per key.

        ``predictor`` is a registry family name; the fingerprint keys on
        it, so artifacts from different families never collide.  Only
        families advertising the ``"serialize"`` capability touch the
        on-disk store.
        """
        digest = history.content_digest()
        key = fit_fingerprint(config, digest, predictor)
        cached = self._cache.get(key)
        if cached is not None:
            self._cache.move_to_end(key)
            self.hits += 1
            OBS.count("predictor_cache.hit")
            return cached
        self.misses += 1
        OBS.count("predictor_cache.miss")
        fresh = create_predictor(predictor, config)
        serializable = "serialize" in fresh.capabilities
        if self.store is not None and serializable:
            loaded = self.store.load(config, digest, predictor)
            if loaded is not None:
                self.store_hits += 1
                self._insert(key, loaded)
                return loaded
            self.store_misses += 1
        donor = None
        if (
            self.warm_start
            and self.store is not None
            and "warm_start" in fresh.capabilities
        ):
            donor = self.store.nearest(config, exclude_digest=digest)
        kwargs: dict = {}
        if "warm_start" in fresh.capabilities:
            kwargs["warm_start"] = donor
        fresh.fit(history, **kwargs)
        if donor is not None:
            self.warm_starts += 1
        if self.store is not None and serializable:
            self.store.save(config, digest, fresh)
        self._insert(key, fresh)
        return fresh

    def _insert(self, key: str, predictor: Predictor) -> None:
        self._cache[key] = predictor
        while len(self._cache) > self.maxsize:
            self._cache.popitem(last=False)

    def stats(self) -> dict:
        """Hit/miss summary for profile output and ``repro cache stats``."""
        out = {
            "size": len(self),
            "maxsize": self.maxsize,
            "hits": self.hits,
            "misses": self.misses,
        }
        if self.store is not None:
            out["store"] = self.store.stats()
            out["warm_starts"] = self.warm_starts
        return out


def default_schedulers(
    *,
    corp_config: CorpConfig | None = None,
    history: Trace | None = None,
    predictor_cache: PredictorCache | None = None,
    seed: int = 0,
    predictor: "str | Predictor" = "corp",
    confidence_level: float = 0.9,
    padding_percentile: float = 60.0,
    dra_headroom: float = 1.1,
) -> dict[str, SchedulerFactory]:
    """Factories for the four methods — the one method table.

    Passing ``history`` (and optionally a ``predictor_cache``) pre-fits
    CORP's predictor so the expensive offline phase is shared across
    runs.  ``predictor`` selects the family behind the CORP scheduler:
    a registry name (cache-shared) or an already-constructed
    :class:`~repro.forecast.base.Predictor` instance (cache-bypassing;
    fitted here if needed).

    The last three keywords are the baselines' conservatism (RCCR,
    CloudScale, DRA; CORP's lives in ``corp_config``).  The defaults are
    what ``repro compare``, the goldens and the ledger run; the figures
    pass their own.
    """
    cfg = corp_config or CorpConfig(seed=seed)
    if isinstance(predictor, str):
        predictor_class(predictor)  # unknown names fail at call time

    def make_corp() -> Scheduler:
        """CORP factory, reusing the cached offline fit when possible."""
        if isinstance(predictor, Predictor):
            if not predictor.fitted and history is not None:
                predictor.fit(history)
            return CorpScheduler(cfg, predictor=predictor)
        fitted = None
        if history is not None:
            # `is None`, not truthiness: an empty cache is falsy (len 0)
            # but must still be filled and shared, not replaced.
            owner = predictor_cache if predictor_cache is not None else PredictorCache()
            fitted = owner.get(cfg, history, predictor=predictor)
        elif predictor != "corp":
            fitted = create_predictor(predictor, cfg)
        return CorpScheduler(cfg, predictor=fitted)

    window = cfg.window_slots
    return {
        "CORP": make_corp,
        "RCCR": lambda: RccrScheduler(
            window_slots=window, confidence_level=confidence_level, seed=seed
        ),
        "CloudScale": lambda: CloudScaleScheduler(
            window_slots=window, padding_percentile=padding_percentile, seed=seed
        ),
        "DRA": lambda: DraScheduler(
            window_slots=window, headroom=dra_headroom, seed=seed
        ),
    }


def build_kernel(
    *,
    scenario: Scenario,
    scheduler: Scheduler | None = None,
    predictor_cache: PredictorCache | None = None,
    trace: Trace | None = None,
    history: Trace | None = None,
    streaming: bool = True,
    **spec_fields,
) -> SchedulerKernel:
    """A prepared kernel for one scenario — the one assembler.

    The only code that builds a :class:`ClusterSimulator` from a
    scenario (fault plan and ``sim_config`` attached) and runs the
    scheduler's offline phase.  The scheduler is ``scheduler``, prepared
    or not, else the one ``RunSpec(scenario, **spec_fields)`` names
    (``method``, ``seed``, ``corp_config``, ``predictor``), its fit
    shared through ``predictor_cache``.  ``trace`` / ``history``
    override the scenario's own traces.

    ``streaming=True`` returns an empty live kernel awaiting
    :meth:`~SchedulerKernel.submit`; ``streaming=False`` preloads the
    evaluation trace, which a driver-fed pipeline scenario refuses.
    """
    if scenario.pipeline is not None and not streaming:
        raise ValueError(
            f"scenario {scenario.name!r} is a pipeline: its phases are "
            "submitted by run_scenario's driver and cannot be preloaded "
            "as one batch (streaming=False)"
        )
    if history is None:
        history = scenario.history_trace()
    if scheduler is None:
        spec = RunSpec(scenario=scenario, **spec_fields)
        scheduler = spec.make_scheduler(predictor_cache, history)
    sim = ClusterSimulator(
        scenario.profile,
        scheduler,
        scenario.sim_config,
        fault_plan=scenario.fault_plan,
    )
    scheduler.prepare(history)
    if streaming:
        return SchedulerKernel(sim, streaming=True)
    if trace is None:
        trace = scenario.evaluation_trace()
    return SchedulerKernel.from_workload(
        sim, build_workload(trace, scenario.sim_config.slot_duration_s)
    )


def finish_result(result: SimulationResult, scenario: Scenario) -> SimulationResult:
    """Attach the scenario family's metrics — the end of every run path."""
    if scenario.arrival_pattern is not None:
        result.extra_metrics = {
            **(result.extra_metrics or {}),
            "flash_crowd_p99_wait": flash_crowd_p99_wait(
                result.jobs, scenario.arrival_pattern
            ),
        }
    return result


def run_scenario(
    scenario: Scenario,
    scheduler: Scheduler,
    *,
    trace: Trace | None = None,
    history: Trace | None = None,
) -> SimulationResult:
    """Run one scheduler over one scenario: assemble, drive, finish.

    ``trace`` / ``history`` override the scenario's own traces (an
    unfiltered workload, one history shared across seeds).  The
    scenario's ``fault_plan`` (if any) is replayed against the run.
    """
    phased = scenario.pipeline is not None
    kernel = build_kernel(
        scenario=scenario, scheduler=scheduler, trace=trace, history=history,
        streaming=phased,
    )
    with OBS.span(f"run:{scheduler.name}"):
        if phased:
            if trace is None:
                trace = scenario.evaluation_trace()
            result = run_pipeline(kernel, scenario.pipeline, trace)
        else:
            kernel.run_until_blocked()
            result = kernel.result()
    return finish_result(result, scenario)


# ----------------------------------------------------------------------
# Spec-based runner: the unit of work a sweep fans out over.
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class RunSpec:
    """One (scenario, method) run — the schedulable unit of a sweep.

    Specs are plain picklable data (a :class:`Predictor` instance in
    ``predictor`` aside): a sweep is a list of them, and the same list
    can execute serially or across worker processes with bit-identical
    results (wall-clock ``allocation_latency_s`` aside).  An unknown
    ``method`` raises :class:`ValueError` at construction.
    """

    scenario: Scenario
    method: str
    seed: int = 0
    #: Optional CORP config override (defaults to ``CorpConfig(seed=seed)``).
    corp_config: CorpConfig | None = None
    #: The family CORP forecasts with: a registry name, or a
    #: :class:`Predictor` instance (process-local, so in-process runs
    #: only — ``run_specs(workers >= 2)`` rejects it).
    predictor: "str | Predictor" = "corp"

    def __post_init__(self) -> None:
        if self.method not in METHOD_ORDER:
            raise ValueError(
                f"unknown method {self.method!r} "
                f"(expected one of {METHOD_ORDER})"
            )

    def make_scheduler(
        self, cache: PredictorCache | None, history: Trace | None = None
    ) -> Scheduler:
        """This spec's scheduler, its offline fit shared through ``cache``."""
        if history is None:
            history = self.scenario.history_trace()
        factories = default_schedulers(
            corp_config=self.corp_config,
            history=history,
            predictor_cache=cache,
            seed=self.seed,
            predictor=self.predictor,
        )
        return factories[self.method]()


def sweep_specs(
    *,
    scenarios: Iterable[Scenario],
    methods: Iterable[str] = METHOD_ORDER,
    seed: int = 0,
    corp_config: CorpConfig | None = None,
    predictor: "str | Predictor" = "corp",
) -> list[RunSpec]:
    """The full cross product of scenarios × methods, in sweep order.

    Keyword-only: ``sweep_specs(scenarios=[...])``.
    """
    methods = tuple(methods)
    return [
        RunSpec(
            scenario=scenario,
            method=method,
            seed=seed,
            corp_config=corp_config,
            predictor=predictor,
        )
        for scenario in scenarios
        for method in methods
    ]


def _execute_spec(spec: RunSpec, cache: PredictorCache) -> SimulationResult:
    return run_scenario(spec.scenario, spec.make_scheduler(cache))


#: Per-process predictor cache for pool workers, seeded by the parent's
#: prefit entries via the pool initializer (fork start methods would
#: inherit it anyway; the initializer also covers spawn).
_WORKER_CACHE: PredictorCache | None = None


def _init_worker(prefit: dict) -> None:
    global _WORKER_CACHE
    _WORKER_CACHE = PredictorCache(_cache=prefit)


def _run_spec_in_worker(
    spec: RunSpec, shard_path: str | None = None
) -> SimulationResult:
    cache = _WORKER_CACHE if _WORKER_CACHE is not None else PredictorCache()
    if shard_path is None:
        return _execute_spec(spec, cache)
    # Event capture in a pooled worker: record this spec's events into
    # its own shard file; the parent merges shards in spec order.
    from ..obs import capture_events

    with capture_events(JsonlSink(shard_path)):
        return _execute_spec(spec, cache)


def _shard_path(events_path: str, index: int) -> str:
    return f"{events_path}.shard-{index:04d}"


def _merge_shards(events_path: str, n_specs: int) -> None:
    """Re-emit per-spec shard files into the parent's attached sink.

    Shards are merged in spec-index order, so the merged stream is
    ordered exactly like a serial run's (events within one spec are
    already in emission order).  Shard files are removed after merging.
    """
    sink = OBS.sink
    for index in range(n_specs):
        shard = _shard_path(events_path, index)
        if not os.path.exists(shard):  # pragma: no cover - crashed worker
            continue
        for record in read_jsonl(shard):
            name = str(record.pop("event"))
            if sink is not None:
                sink.emit(Event(name=name, fields=record))
        os.unlink(shard)


def run_specs(
    *,
    specs: Sequence[RunSpec],
    workers: int = 0,
    predictor_cache: PredictorCache | None = None,
    events_path: str | None = None,
) -> list[SimulationResult]:
    """Execute ``specs`` and return results in the same order.

    Keyword-only: ``run_specs(specs=[...], workers=..., predictor_cache=...)``.

    Parameters
    ----------
    workers:
        ``0`` or ``1`` runs everything in-process (the default; no
        multiprocessing machinery involved); a negative count raises
        :class:`ValueError`.  ``N >= 2`` fans specs out
        over a :class:`ProcessPoolExecutor` of ``N`` processes.  Every
        run is seeded and single-threaded, so worker placement cannot
        change results: parallel output is bit-identical to serial
        output except for the wall-clock ``allocation_latency_s``.
    predictor_cache:
        Shared :class:`PredictorCache`.  CORP's offline fit is computed
        *once* in the parent for each distinct (config, history) pair
        and handed to the workers through the pool initializer, so no
        worker ever refits the DNN/HMM stack.
    events_path:
        Only meaningful with ``workers >= 2``: each spec's events are
        recorded to ``{events_path}.shard-NNNN`` in its worker process
        and merged, in spec order, into the parent's attached sink when
        the pool joins.  The serial path ignores this (events already
        flow to the parent's sink directly).
    """
    if workers < 0:
        raise ValueError(f"workers must be >= 0, got {workers}")
    shared = predictor_cache if predictor_cache is not None else PredictorCache()
    if workers <= 1:
        return [_execute_spec(spec, shared) for spec in specs]

    for spec in specs:
        if isinstance(spec.predictor, Predictor):
            raise ValueError(
                "workers >= 2 with a predictor instance: fitted predictors "
                "cannot cross process boundaries. Pass the registry name "
                f"(e.g. predictor={spec.predictor.family!r}) or run with "
                "workers=0."
            )
    # Pre-fit every CORP predictor the specs will need; workers receive
    # the fitted models and skip the offline phase entirely.
    for spec in specs:
        if spec.method == "CORP":
            spec.make_scheduler(shared)  # fits through the cache

    # Flush the parent's sink before the pool forks: an unflushed stdio
    # buffer is duplicated into every child, and each child's exit would
    # flush the same lines into the shared file again.
    sink_flush = getattr(OBS.sink, "flush", None)
    if sink_flush is not None:
        sink_flush()
    with ProcessPoolExecutor(
        max_workers=workers,
        initializer=_init_worker,
        initargs=(dict(shared._cache),),
    ) as pool:
        futures = [
            pool.submit(
                _run_spec_in_worker,
                spec,
                _shard_path(events_path, i) if events_path is not None else None,
            )
            for i, spec in enumerate(specs)
        ]
        results = [f.result() for f in futures]
    if events_path is not None:
        _merge_shards(events_path, len(specs))
    return results
