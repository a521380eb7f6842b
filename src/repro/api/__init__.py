"""The stable public API facade.

Everything a consumer of the reproduction needs sits behind typed,
keyword-only entry points plus the observability attachments:

* :func:`run_one` — one (scenario, method) run → :class:`SimulationResult`;
* :func:`compare` — all methods on one workload → ``method → result``;
* :func:`sweep` — scenarios × methods, optionally process-parallel;
* ``predictor=`` (v1.6, on :func:`run_one` / :func:`compare` /
  :func:`sweep` / :func:`open_service`) — the registered forecasting
  family CORP runs on: ``"corp"`` (default), ``"quantile"``,
  ``"classify"`` or ``"markov"``; :func:`available_predictors` /
  :func:`predictor_summaries` enumerate the registry;
* ``scale=`` (v1.7, on :func:`run_one` / :func:`compare` /
  :func:`sweep` / :func:`open_service`) — a typed
  :class:`~repro.cluster.shards.ScaleConfig`: the streaming-trace
  chunk size, plus ``shards``, a deprecated no-op (the availability
  index is flat) removed in v1.10;
* :func:`build_fault_plan` / :func:`inject` — seeded deterministic
  fault schedules and their attachment to scenarios (``fault_plan=`` on
  the entry points is the shorthand);
* :func:`attach_sink` / :func:`detach_sink` / :func:`capture_events` —
  stream structured decision events (JSONL or custom sinks);
* :func:`profile_run` — a profiled comparison run returning the
  per-stage timing table ``repro profile`` prints;
* :func:`check_run` / :func:`replay` (v1.3) — a comparison run with the
  runtime invariant checker installed, and differential replay of a
  captured event stream against a fresh live run;
* :func:`open_service` / :func:`takeover_run` (v1.5) — the long-lived
  asyncio allocation service over the event kernel (submit jobs live,
  stream placements, ``drain()`` for the final result), and the
  standby-takeover drill (a snapshot-restored kernel must finish the
  run identically to the live one);
* the scenario zoo (v1.8) — ``family=`` on :func:`build_scenario`
  selects ``"pipeline"`` (phased DAG submission through the streaming
  kernel, :class:`PipelineSpec`), ``"diurnal"`` (day/night arrivals
  with flash-crowd spikes, :class:`DiurnalPattern`) or ``"storm"``
  (correlated spot revocations); :func:`build_revocation_storm` builds
  seeded :class:`RevocationWave` schedules and
  :func:`storm_sweep_scenarios` sweeps their intensity.

This facade is the **only supported import surface**: deeper imports
(``repro.experiments.runner`` and friends) may break without notice
between releases, while the signatures here are the ones the
deprecation policy protects.

Since v1.6 the facade is a package (``repro/api/``) split by concern —
``_run`` (batch entry points), ``_check`` (invariant checking and
replay), ``_faults`` (fault-plan helpers), ``_service`` (service mode)
— with this ``__init__`` re-exporting the identical public surface; the
underscore modules are implementation detail.
"""

from ..cluster.shards import ScaleConfig
from ..cluster.simulator import SimulationResult
from ..core.predictor_store import PredictorStore, default_store_dir
from ..experiments.runner import METHOD_ORDER, PredictorCache
from ..experiments.scenarios import Scenario, storm_sweep_scenarios
from ..experiments.workloads.diurnal import DiurnalPattern
from ..experiments.workloads.pipeline import PipelineSpec
from ..faults.plan import (
    FaultPlan,
    RetryPolicy,
    RevocationWave,
    build_fault_plan,
    build_revocation_storm,
)
from ..forecast.registry import available_predictors, predictor_summaries
from ..obs import capture_events, detach_sink
from ._check import check_run, replay
from ._faults import inject
from ._run import (
    attach_sink,
    build_scenario,
    compare,
    profile_run,
    run_one,
    sweep,
)
from ._service import (
    PlacementUpdate,
    SchedulerService,
    TakeoverReport,
    open_service,
    takeover_run,
)

__all__ = [
    "compare",
    "sweep",
    "run_one",
    "profile_run",
    "check_run",
    "replay",
    "inject",
    "build_fault_plan",
    "build_revocation_storm",
    "storm_sweep_scenarios",
    "open_service",
    "takeover_run",
    "PlacementUpdate",
    "SchedulerService",
    "TakeoverReport",
    "attach_sink",
    "detach_sink",
    "capture_events",
    "build_scenario",
    "available_predictors",
    "predictor_summaries",
    "FaultPlan",
    "RetryPolicy",
    "RevocationWave",
    "PipelineSpec",
    "DiurnalPattern",
    "PredictorCache",
    "PredictorStore",
    "default_store_dir",
    "ScaleConfig",
    "Scenario",
    "SimulationResult",
    "METHOD_ORDER",
]
