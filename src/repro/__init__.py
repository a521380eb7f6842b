"""CORP: Cooperative Opportunistic Resource Provisioning — reproduction.

Full Python reproduction of *"CORP: Cooperative Opportunistic Resource
Provisioning for Short-Lived Jobs in Cloud Systems"* (Liu, Shen, Chen —
IEEE CLUSTER 2016), including every substrate the evaluation needs:

* :mod:`repro.cluster` — discrete-time-slot cloud simulator (PMs, VMs,
  jobs, SLOs, the Eq. 1-4 metrics);
* :mod:`repro.trace` — synthetic Google-cluster-trace generator and the
  paper's trace transformations;
* :mod:`repro.nn` — from-scratch deep-learning stack (Eq. 5-8);
* :mod:`repro.hmm` — from-scratch Hidden Markov Model stack (Eq. 9-17);
* :mod:`repro.forecast` — ETS / FFT-signature / Markov-chain predictors
  and the confidence-interval machinery (Eq. 18-21);
* :mod:`repro.core` — the CORP scheduler itself (prediction pipeline,
  packing, most-matched placement, preemption gate);
* :mod:`repro.baselines` — RCCR, CloudScale and DRA as Section IV
  implements them;
* :mod:`repro.experiments` — scenario builders and one entry point per
  figure of the evaluation.

* :mod:`repro.obs` — zero-dependency structured observability (events,
  counters, timer spans) behind an attachable sink;
* :mod:`repro.faults` — deterministic fault injection (VM crashes,
  capacity revocations, predictor outages, job failures) and the
  resilience metrics the summaries report under churn;
* :mod:`repro.check` — runtime invariant checker (capacity / job
  conservation, Eq. 21 gate soundness, packing feasibility, Eq. 22
  optimality, per-placement re-derivation of the vectorized VM
  selection), differential replay of captured event streams, and the
  golden-trace regression digests;
* :mod:`repro.core.predictor_store` — persistent content-fingerprinted
  store of fitted predictors, so fresh processes load the offline
  DNN/HMM fit instead of repeating it (``repro cache
  warm|stats|clear``, ``--store`` / ``--warm-start`` on the CLI);
* :mod:`repro.api` — the stable keyword-only facade (``compare``,
  ``sweep``, ``run_one``, ``attach_sink``, ``check_run``, ``replay``)
  and the **only supported import surface** for new code.

Quickstart::

    from repro import api

    results = api.compare(jobs=100, testbed="cluster")
    for method, result in results.items():
        print(method, result.summary())

    with api.capture_events("events.jsonl"):
        api.run_one(scenario=api.build_scenario(jobs=50), method="CORP")

    plan = api.build_fault_plan(seed=0, intensity=0.5)
    faulted = api.compare(jobs=100, fault_plan=plan)

    report = api.check_run(jobs=50)          # invariant-checked run
    assert report.ok, report.violations
"""

from .baselines import CloudScaleScheduler, DraScheduler, RccrScheduler
from .cluster import (
    ClusterProfile,
    ClusterSimulator,
    Job,
    JobState,
    PhysicalMachine,
    Placement,
    ResourceKind,
    ResourceVector,
    ScaleConfig,
    Scheduler,
    ShardedCandidateIndex,
    SimulationConfig,
    SimulationResult,
    SloSpec,
    VirtualMachine,
)
from .core import (
    CorpConfig,
    CorpPredictor,
    CorpScheduler,
    JobEntity,
    pack_jobs,
)
from .experiments import (
    JOB_COUNTS,
    METHOD_ORDER,
    Scenario,
    cluster_scenario,
    ec2_scenario,
)
from .trace import (
    GoogleTraceGenerator,
    TaskRecord,
    Trace,
    TraceConfig,
    build_workload,
    remove_long_lived,
    resample_trace,
)
from . import api, check, faults, obs, service
from .api import (
    attach_sink,
    build_fault_plan,
    capture_events,
    check_run,
    compare,
    detach_sink,
    inject,
    open_service,
    replay,
    run_one,
    sweep,
    takeover_run,
)
from .check import CheckReport, InvariantChecker, ReplayReport, Violation
from .faults import FaultPlan, RetryPolicy, TakeoverReport
from .service import PlacementUpdate, SchedulerKernel, SchedulerService

__version__ = "1.9.0"

__all__ = [
    "CloudScaleScheduler",
    "DraScheduler",
    "RccrScheduler",
    "ClusterProfile",
    "ClusterSimulator",
    "Job",
    "JobState",
    "PhysicalMachine",
    "Placement",
    "ResourceKind",
    "ResourceVector",
    "ScaleConfig",
    "Scheduler",
    "ShardedCandidateIndex",
    "SimulationConfig",
    "SimulationResult",
    "SloSpec",
    "VirtualMachine",
    "CorpConfig",
    "CorpPredictor",
    "CorpScheduler",
    "JobEntity",
    "pack_jobs",
    "JOB_COUNTS",
    "METHOD_ORDER",
    "Scenario",
    "cluster_scenario",
    "ec2_scenario",
    "GoogleTraceGenerator",
    "TaskRecord",
    "Trace",
    "TraceConfig",
    "build_workload",
    "remove_long_lived",
    "resample_trace",
    "api",
    "check",
    "faults",
    "obs",
    "service",
    "compare",
    "sweep",
    "run_one",
    "inject",
    "build_fault_plan",
    "FaultPlan",
    "RetryPolicy",
    "attach_sink",
    "detach_sink",
    "capture_events",
    "check_run",
    "replay",
    "CheckReport",
    "InvariantChecker",
    "ReplayReport",
    "Violation",
    "open_service",
    "takeover_run",
    "PlacementUpdate",
    "SchedulerKernel",
    "SchedulerService",
    "TakeoverReport",
    "__version__",
]
