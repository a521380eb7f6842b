"""Long-lived asyncio allocation service over the event kernel.

``CORP-as-a-daemon``: instead of replaying a fixed batch, the service
accepts job submissions while the system runs, streams placement
decisions out to any number of subscribers, and closes the lifecycle
with ``drain()`` — the full :class:`~repro.cluster.simulator.SimulationResult`
of everything the service scheduled.  The architectural precedent is
Pace et al.'s data-driven allocation service and the CML-Cloud-Manager
scheduler-service decomposition (SNIPPETS.md snippet 1): a placement
engine behind a small submit/stream/drain surface.

Warm state: the offline DNN/HMM fit comes from the shared
:class:`~repro.experiments.runner.PredictorCache` (optionally backed by
the on-disk :class:`~repro.core.predictor_store.PredictorStore`), so a
service instance starts from fitted models whenever any earlier run —
in this process or another — trained on the same history.

Determinism: by default the kernel only advances inside :meth:`pump` /
:meth:`SchedulerService.drain`, so a test that submits a scenario's
records (each carrying its trace arrival slot) and then drains
reproduces the batch run of the same scenario exactly.
``auto_advance=True`` instead advances eagerly in a background task —
live-mode semantics, where a submission races the virtual clock and
lands at whatever slot the kernel has reached.

Usage::

    async with open_service(scenario=scn, method="CORP") as svc:
        stream = asyncio.create_task(collect(svc.placements()))
        for record in scn.evaluation_trace():
            await svc.submit(record)
        result = await svc.drain()
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import TYPE_CHECKING, AsyncIterator, Optional

from .kernel import SchedulerKernel

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from ..cluster.simulator import SimulationResult
    from ..cluster.shards import ScaleConfig
    from ..core.config import CorpConfig
    from ..experiments.runner import PredictorCache
    from ..experiments.scenarios import Scenario
    from ..faults.plan import FaultPlan
    from ..forecast.base import Predictor
    from ..trace.records import TaskRecord, Trace

__all__ = [
    "PlacementUpdate",
    "SchedulerService",
    "open_service",
]


@dataclass(frozen=True)
class PlacementUpdate:
    """One placement decision streamed to :meth:`SchedulerService.placements`."""

    slot: int
    job_id: int
    vm_id: Optional[int]
    opportunistic: bool
    method: str

    def as_dict(self) -> dict[str, object]:
        """Flat form for JSONL output and table rows."""
        return {
            "slot": self.slot,
            "job": self.job_id,
            "vm": self.vm_id,
            "opportunistic": self.opportunistic,
            "method": self.method,
        }


#: Stream-termination sentinel pushed to every subscriber on drain/close.
_CLOSE = object()

#: Kernel events :meth:`SchedulerService.pump` processes between yields
#: to the event loop (where subscribers receive streamed placements).
YIELD_EVERY = 32


class SchedulerService:
    """``submit(job)`` / ``placements()`` / ``drain()`` over a live kernel.

    Construct via :func:`open_service` and use as an async context
    manager; all methods must be called from one event loop.
    """

    def __init__(
        self,
        *,
        scenario: "Scenario",
        method: str = "CORP",
        seed: int = 0,
        corp_config: "CorpConfig | None" = None,
        predictor_cache: "PredictorCache | None" = None,
        predictor: "str | Predictor" = "corp",
        auto_advance: bool = False,
    ) -> None:
        self.scenario = scenario
        self.method = method
        self._seed = seed
        self._corp_config = corp_config
        self._predictor_cache = predictor_cache
        self._predictor = predictor
        self._auto_advance = auto_advance
        self._kernel: SchedulerKernel | None = None
        self._subscribers: list[asyncio.Queue] = []
        self._updates: list[PlacementUpdate] = []
        self._pump_lock = asyncio.Lock()
        self._wake = asyncio.Event()
        self._pump_task: asyncio.Task | None = None
        self._result: SimulationResult | None = None
        self._closed = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "SchedulerService":
        """Build the kernel (runs the offline fit) and go live."""
        if self._kernel is not None:
            return self
        # Deferred: experiments imports this package for the kernel.
        from ..experiments.runner import build_kernel

        self._kernel = build_kernel(
            scenario=self.scenario,
            method=self.method,
            seed=self._seed,
            corp_config=self._corp_config,
            predictor_cache=self._predictor_cache,
            predictor=self._predictor,
            streaming=True,
        )
        self._kernel.on_placements = self._emit_placements
        if self._auto_advance:
            self._pump_task = asyncio.ensure_future(self._auto_pump())
        return self

    async def __aenter__(self) -> "SchedulerService":
        return await self.start()

    async def __aexit__(self, *exc_info: object) -> None:
        await self.aclose()

    async def aclose(self) -> None:
        """Stop the pump and close every placement stream."""
        self._closed = True
        if self._pump_task is not None:
            self._wake.set()
            self._pump_task.cancel()
            try:
                await self._pump_task
            except asyncio.CancelledError:
                pass
            self._pump_task = None
        self._close_streams()

    @property
    def kernel(self) -> SchedulerKernel:
        """The live kernel (raises before :meth:`start`)."""
        if self._kernel is None:
            raise RuntimeError("service not started (use `async with`)")
        return self._kernel

    @property
    def result(self) -> SimulationResult | None:
        """The drained run's result (``None`` until :meth:`drain`)."""
        return self._result

    # ------------------------------------------------------------------
    # intake
    # ------------------------------------------------------------------
    async def submit(
        self, record: "TaskRecord", *, slot: int | None = None
    ) -> int:
        """Submit one job; returns the arrival slot it was accepted at."""
        if self._result is not None or self._closed:
            raise RuntimeError("service is drained/closed; open a new one")
        arrival = self.kernel.submit(record, slot=slot)
        self._wake.set()
        return arrival

    async def submit_trace(self, trace: "Trace") -> int:
        """Submit every record of ``trace`` (at its own arrival slot)."""
        n = 0
        for record in trace:
            await self.submit(record)
            n += 1
        return n

    # ------------------------------------------------------------------
    # placement streaming
    # ------------------------------------------------------------------
    def _emit_placements(self, slot: int, placed: list) -> None:
        for job in placed:  # ``add_placement`` recorded each job's VM
            update = PlacementUpdate(
                slot=slot,
                job_id=job.job_id,
                vm_id=job.vm_id,
                opportunistic=job.opportunistic,
                method=self.method,
            )
            self._updates.append(update)
            for queue in self._subscribers:
                queue.put_nowait(update)

    async def placements(
        self, *, replay: bool = True
    ) -> AsyncIterator[PlacementUpdate]:
        """Async stream of placement decisions, closed by drain/close.

        With ``replay`` (the default) the stream opens with every
        decision already made, then continues live — a subscriber
        always sees the complete decision sequence no matter when its
        task first ran.  ``replay=False`` starts at the current point
        (the past is still in :attr:`history`).
        """
        queue: asyncio.Queue = asyncio.Queue()
        if replay:
            for update in self._updates:
                queue.put_nowait(update)
        if self._result is not None or self._closed:
            queue.put_nowait(_CLOSE)
        else:
            self._subscribers.append(queue)
        try:
            while True:
                item = await queue.get()
                if item is _CLOSE:
                    break
                yield item
        finally:
            if queue in self._subscribers:
                self._subscribers.remove(queue)

    @property
    def history(self) -> tuple[PlacementUpdate, ...]:
        """Every placement decision made so far, in decision order."""
        return tuple(self._updates)

    def _close_streams(self) -> None:
        for queue in self._subscribers:
            queue.put_nowait(_CLOSE)

    # ------------------------------------------------------------------
    # advancing
    # ------------------------------------------------------------------
    async def pump(self) -> int:
        """Advance the kernel until idle, yielding control periodically.

        Returns the number of events processed.  Subscribers run (and
        receive streamed placements) at every yield point.
        """
        kernel = self.kernel
        n = 0
        async with self._pump_lock:
            while True:
                event = kernel.advance()
                if event is None:
                    break
                n += 1
                if n % YIELD_EVERY == 0:
                    await asyncio.sleep(0)
        if n:
            await asyncio.sleep(0)
        return n

    async def _auto_pump(self) -> None:
        while not self._closed:
            await self._wake.wait()
            self._wake.clear()
            await self.pump()

    async def drain(self) -> SimulationResult:
        """Run everything submitted to completion and close the service.

        Idempotent: a second call returns the same result.  Submissions
        after a drain raise — the run's accounting is final.
        """
        if self._result is not None:
            return self._result
        await self.pump()
        from ..experiments.runner import finish_result

        kernel = self.kernel
        kernel.finished = True
        self._result = finish_result(kernel.result(), self.scenario)
        self._close_streams()
        return self._result


def open_service(
    *,
    scenario: "Scenario | None" = None,
    jobs: int = 50,
    testbed: str = "cluster",
    seed: int = 7,
    method: str = "CORP",
    corp_config: "CorpConfig | None" = None,
    predictor_cache: "PredictorCache | None" = None,
    predictor: "str | Predictor" = "corp",
    fault_plan: "FaultPlan | None" = None,
    auto_advance: bool = False,
    scale: "ScaleConfig | None" = None,
) -> SchedulerService:
    """A ready-to-start :class:`SchedulerService` (async context manager).

    Pass a prebuilt ``scenario`` or the (``jobs``, ``testbed``,
    ``seed``) triple; ``seed`` also seeds the scheduler factories (the
    randomized baselines), so match it with the batch entry points when
    comparing runs.  ``fault_plan=`` attaches a seeded fault schedule
    the service replays while jobs stream in.  ``predictor=`` selects
    the registered forecasting family (or instance) CORP runs on, and
    ``scale=`` the scale knobs (streaming chunk size; ``shards`` is a
    deprecated no-op).  The heavy lifting (offline predictor fit)
    happens on
    ``start``/``__aenter__``, through ``predictor_cache`` when given —
    pass a store-backed cache to share fitted models across service
    instances and processes.
    """
    if scenario is None:
        from ..experiments.scenarios import testbed_scenario

        scenario = testbed_scenario(testbed, jobs, seed=seed)
    if fault_plan is not None:
        scenario = scenario.with_fault_plan(fault_plan)
    scenario = scenario.with_scale(scale)
    return SchedulerService(
        scenario=scenario,
        method=method,
        seed=seed,
        corp_config=corp_config,
        predictor_cache=predictor_cache,
        predictor=predictor,
        auto_advance=auto_advance,
    )
