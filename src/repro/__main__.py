"""Command-line interface: ``python -m repro <command>`` (or ``repro``).

Commands
--------
``compare``   — run all four schedulers on one workload and print the
                comparison table (a single column of the evaluation);
                ``--scenario {pipeline,diurnal,storm}`` swaps in a
                scenario-zoo family with its extra summary metrics.
``storms``    — revocation-storm sweep: every method at every storm
                intensity, with per-intensity resilience tables.
``profile``   — run a profiled comparison, print the per-stage timing
                table and counters, and write ``PROFILE_runtime.json``.
``figure``    — regenerate one of the paper's figures (fig06..fig14).
``ablations`` — run the CORP component ablations (DESIGN.md §5).
``mixed``     — the mixed short+long workload extension.
``check``     — run a comparison with the runtime invariant checker
                installed and print the violation table (exit 1 on any
                violation); ``--replay capture.jsonl`` instead re-runs a
                captured event stream and diffs per-slot state.
``golden``    — compare the seeded summaries against the committed
                golden trace under ``tests/golden/`` (``--update``
                regenerates it after an intentional change).
``cache``     — manage the on-disk predictor store: ``stats`` prints
                the artifact inventory, ``clear`` deletes it, ``warm``
                pre-fits a scenario's predictor into it so later runs
                skip the offline DNN/HMM fit entirely.
``predictors``— list the registered predictor families the
                ``--predictor`` flag accepts.

``compare`` and ``profile`` accept ``--store [DIR]`` (reuse fitted
predictors across processes via the on-disk store), ``--warm-start``
(seed unavoidable refits from the nearest stored artifact; changes
fitted weights, so opt-in), ``--fit-workers N`` (fan the per-resource
fits across processes, bit-identical to serial), and
``--predictor-cache-size N`` (in-memory LRU bound).  ``compare``,
``profile`` and ``serve`` accept ``--predictor NAME`` to run CORP on a
different registered forecasting family (``corp``, ``quantile``,
``classify``, ``ets``, ``markov`` or ``auto``).

Experiment execution routes exclusively through :mod:`repro.api`; pass
``--events out.jsonl`` to stream structured decision events (slots,
placements, preemption-gate evaluations, predictor fits) to a JSONL
file.

Examples::

    python -m repro compare --jobs 200 --workers 4
    python -m repro compare --quick --predictor quantile
    python -m repro predictors
    python -m repro compare --jobs 50 --events /tmp/ev.jsonl
    python -m repro compare --faults 0.5 --quick
    python -m repro profile --jobs 50
    python -m repro figure fig09 --testbed cluster
    python -m repro check --quick --differential
    python -m repro check --jobs 30 --events /tmp/cap.jsonl
    python -m repro check --replay /tmp/cap.jsonl
    python -m repro golden
    python -m repro golden --update
    python -m repro cache warm --jobs 200 --seed 7
    python -m repro compare --jobs 200 --store
    python -m repro cache stats
    python -m repro cache clear
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__, api
from .experiments.report import format_table

FIGURES = (
    "fig06", "fig07", "fig08", "fig09", "fig10",
    "fig11", "fig12", "fig13", "fig14",
)


def _open_events(args: argparse.Namespace) -> bool:
    """Attach a JSONL sink when ``--events`` was given."""
    path = getattr(args, "events", None)
    if not path:
        return False
    api.attach_sink(path)
    return True


def _make_cache(args: argparse.Namespace) -> api.PredictorCache:
    """A :class:`PredictorCache` configured from the shared CLI flags."""
    store = None
    if getattr(args, "store", None) is not None:
        store = api.PredictorStore(args.store or None)
    if getattr(args, "warm_start", False) and store is None:
        raise ValueError("--warm-start requires --store")
    return api.PredictorCache(
        maxsize=args.predictor_cache_size,
        store=store,
        warm_start=getattr(args, "warm_start", False),
        fit_workers=args.fit_workers,
    )


def _print_cache_stats(stats: dict) -> None:
    """Render the in-memory + store hit/miss summary as a table."""
    rows = [
        ["memory entries", f"{stats['size']}/{stats['maxsize']}"],
        ["memory hits", stats["hits"]],
        ["memory misses", stats["misses"]],
    ]
    store = stats.get("store")
    if store is not None:
        rows += [
            ["store dir", store["root"]],
            ["store entries", store["entries"]],
            ["store hits", store["hits"]],
            ["store misses", store["misses"]],
            ["store saves", store["saves"]],
            ["warm starts", stats.get("warm_starts", 0)],
        ]
    print(format_table(["predictor cache", "value"], rows, title="predictor cache"))


def _warn_truncated(results: dict) -> None:
    """Flag runs that hit ``max_slots`` with work still outstanding."""
    names = [m for m, r in results.items() if r.truncated]
    if names:
        print(
            f"\nWARNING: truncated at max_slots with work still "
            f"outstanding: {', '.join(names)} — summaries cover an "
            f"incomplete run",
            file=sys.stderr,
        )


def _print_extra_metrics(results: dict) -> None:
    """Scenario-family metrics table (pipeline/diurnal/storm summaries)."""
    if not any(r.extra_metrics for r in results.values()):
        return
    keys = sorted(
        {k for r in results.values() for k in (r.extra_metrics or {})}
    )
    rows = [
        [method]
        + [(r.extra_metrics or {}).get(k, float("nan")) for k in keys]
        for method, r in results.items()
    ]
    print()
    print(format_table(["method"] + keys, rows, title="scenario metrics"))


def _cmd_compare(args: argparse.Namespace) -> int:
    jobs = min(args.jobs, 30) if args.quick else args.jobs
    fault_plan = None
    if args.faults is not None:
        fault_plan = api.build_fault_plan(
            seed=args.fault_seed, intensity=args.faults
        )
    scenario = None
    if args.scenario is not None:
        scenario = api.build_scenario(
            jobs=jobs, testbed=args.testbed, seed=args.seed,
            family=args.scenario,
        )
    cache = _make_cache(args)
    capturing = _open_events(args)
    try:
        results = api.compare(
            scenario=scenario,
            jobs=jobs,
            testbed=args.testbed,
            seed=args.seed,
            workers=args.workers,
            fault_plan=fault_plan,
            predictor_cache=cache,
            predictor=args.predictor,
            scale=_scale_from_args(args),
        )
    finally:
        if capturing:
            api.detach_sink()
    rows = []
    for method, result in results.items():
        summary = result.summary()
        rows.append(
            [
                method,
                summary["overall_utilization"],
                summary["slo_violation_rate"],
                summary.get("prediction_error_rate", float("nan")),
                summary["allocation_latency_s"],
            ]
        )
    workload = (
        f"the {args.scenario} scenario ({args.testbed} profile)"
        if args.scenario is not None
        else f"the {args.testbed} profile"
    )
    print(
        format_table(
            ["method", "utilization", "slo_rate", "err_rate", "latency_s"],
            rows,
            title=f"{jobs} jobs on {workload}",
        )
    )
    if any(r.resilience is not None for r in results.values()):
        fault_rows = []
        for method, result in results.items():
            summary = result.summary()
            fault_rows.append(
                [
                    method,
                    int(summary["evictions"]),
                    int(summary["retries"]),
                    int(summary["gave_up"]),
                    int(summary["slo_violations_faulted"]),
                    summary["recovery_latency_slots"],
                ]
            )
        if args.faults is not None:
            res_title = (
                f"resilience under fault intensity {args.faults:g} "
                f"(fault seed {args.fault_seed})"
            )
        else:  # the scenario carries its own plan (e.g. --scenario storm)
            res_title = "resilience under the scenario's fault plan"
        print()
        print(
            format_table(
                [
                    "method", "evictions", "retries", "gave_up",
                    "slo_viol_faulted", "recovery_slots",
                ],
                fault_rows,
                title=res_title,
            )
        )
    _print_extra_metrics(results)
    if cache.store is not None:
        stats = cache.stats()
        store = stats["store"]
        print(
            f"\npredictor store {store['root']}: "
            f"{store['hits']} hit(s), {store['misses']} miss(es), "
            f"{store['saves']} save(s), {stats['warm_starts']} warm start(s)"
        )
    if capturing:
        print(f"\nwrote events to {args.events}")
    _warn_truncated(results)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """One lifecycle of the asyncio allocation service (v1.5).

    Opens the service, streams every record of the generated workload
    into it, consumes the placement stream concurrently, drains, and
    prints the drained run's summary — the CI smoke path for
    ``CORP-as-a-daemon``.
    """
    import asyncio

    fault_plan = None
    if args.faults is not None:
        fault_plan = api.build_fault_plan(
            seed=args.fault_seed, intensity=args.faults
        )
    cache = _make_cache(args)
    capturing = _open_events(args)
    scenario = api.build_scenario(
        jobs=args.jobs, testbed=args.testbed, seed=args.seed
    )

    async def _serve():
        updates = []

        async def _consume(svc):
            async for update in svc.placements():
                updates.append(update)
                if args.show_placements and len(updates) <= args.show_placements:
                    opp = " (opportunistic)" if update.opportunistic else ""
                    print(
                        f"  slot {update.slot:>4}  job {update.job_id:>5}"
                        f" -> vm {update.vm_id}{opp}"
                    )

        async with api.open_service(
            scenario=scenario,
            method=args.method,
            fault_plan=fault_plan,
            predictor_cache=cache,
            predictor=args.predictor,
            scale=_scale_from_args(args),
        ) as svc:
            consumer = asyncio.ensure_future(_consume(svc))
            n = await svc.submit_trace(scenario.evaluation_trace())
            print(
                f"{args.method} service up on the {args.testbed} profile; "
                f"{n} job(s) submitted, draining..."
            )
            result = await svc.drain()
            await consumer
        return n, updates, result

    try:
        n_submitted, updates, result = asyncio.run(_serve())
    finally:
        if capturing:
            api.detach_sink()

    summary = result.summary()
    rows = [
        [
            args.method,
            summary["overall_utilization"],
            summary["slo_violation_rate"],
            summary.get("prediction_error_rate", float("nan")),
            summary["allocation_latency_s"],
        ]
    ]
    print(
        format_table(
            ["method", "utilization", "slo_rate", "err_rate", "latency_s"],
            rows,
            title=f"service drain: {n_submitted} job(s) submitted, "
                  f"{len(updates)} placement update(s) streamed",
        )
    )
    if cache.store is not None:
        _print_cache_stats(cache.stats())
    if capturing:
        print(f"\nwrote events to {args.events}")
    _warn_truncated({args.method: result})
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    cache = _make_cache(args)
    capturing = _open_events(args)
    try:
        report = api.profile_run(
            jobs=args.jobs, testbed=args.testbed, seed=args.seed,
            predictor_cache=cache, predictor=args.predictor,
        )
    finally:
        if capturing:
            api.detach_sink()
    stage_rows = [
        [s["stage"], s["calls"], s["total_s"], s["mean_s"], s["share"]]
        for s in report["stages"]
    ]
    print(
        format_table(
            ["stage", "calls", "total_s", "mean_s", "share"],
            stage_rows,
            title=f"per-stage wall clock ({args.jobs} jobs, {args.testbed})",
        )
    )
    counters = report["counters"]
    if counters:
        print()
        print(
            format_table(
                ["counter", "value"],
                [[name, value] for name, value in counters.items()],
                title="counters",
            )
        )
    print()
    _print_cache_stats(report["predictor_cache"])
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(f"\nwrote {args.out}")
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    from .experiments.figures import (
        fig06_prediction_error,
        fig07_utilization,
        fig08_utilization_vs_slo,
        fig09_slo_vs_confidence,
        fig10_overhead,
    )
    from .experiments.plot import save_figure_svg

    cache = api.PredictorCache()
    name = args.name
    testbed = args.testbed
    # EC2 figures are the cluster figures rerun on the EC2 profile.
    mapped = {
        "fig11": ("fig07", "ec2"),
        "fig12": ("fig08", "ec2"),
        "fig13": ("fig09", "ec2"),
        "fig14": ("fig10", "ec2"),
    }
    if name in mapped:
        name, testbed = mapped[name]
    if name == "fig06":
        result = fig06_prediction_error(testbed=testbed, seed=args.seed, cache=cache)
        print(result.to_table())
        if args.svg:
            print("wrote", save_figure_svg(result, args.svg, y_label="error rate"))
    elif name == "fig07":
        panels = fig07_utilization(testbed=testbed, seed=args.seed, cache=cache)
        for key in ("cpu", "mem", "storage", "overall"):
            print(panels[key].to_table())
            print()
        if args.svg:
            print("wrote", save_figure_svg(
                panels["overall"], args.svg, y_label="overall utilization"))
    elif name == "fig08":
        curves = fig08_utilization_vs_slo(testbed=testbed, seed=args.seed, cache=cache)
        rows = [
            [method, slo, util]
            for method, points in curves.items()
            for slo, util in points
        ]
        print(
            format_table(
                ["method", "slo_violation_rate", "overall_utilization"],
                rows,
                title=f"utilization vs SLO violation rate ({testbed})",
            )
        )
    elif name == "fig09":
        result = fig09_slo_vs_confidence(testbed=testbed, seed=args.seed, cache=cache)
        print(result.to_table())
        if args.svg:
            print("wrote", save_figure_svg(result, args.svg, y_label="SLO violation rate"))
    elif name == "fig10":
        latencies = fig10_overhead(testbed=testbed, seed=args.seed, cache=cache)
        print(
            format_table(
                ["method", "allocation_latency_s"],
                [[m, v] for m, v in latencies.items()],
                title=f"allocation latency, 300 jobs ({testbed})",
            )
        )
    else:
        raise ValueError(f"unknown figure {name!r} (expected {FIGURES})")
    return 0


def _cmd_ablations(args: argparse.Namespace) -> int:
    from .experiments.ablations import run_ablations, run_predictor_ablation

    if args.predictors:
        results = run_predictor_ablation(n_jobs=args.jobs, seed=args.seed)
        rows = [
            [
                name,
                s["overall_utilization"],
                s["slo_violation_rate"],
                s.get("prediction_error_rate", 0.0),
                int(s["riders"]),
                int(s["switches"]) if "switches" in s else "-",
            ]
            for name, s in results.items()
        ]
        print(
            format_table(
                [
                    "predictor", "utilization", "slo_rate", "err_rate",
                    "riders", "switches",
                ],
                rows,
                title="CORP predictor ablation (all families, same workload)",
            )
        )
        return 0
    results = run_ablations(n_jobs=args.jobs, seed=args.seed)
    rows = [
        [
            name,
            s["overall_utilization"],
            s["slo_violation_rate"],
            s.get("prediction_error_rate", 0.0),
            int(s["riders"]),
        ]
        for name, s in results.items()
    ]
    print(
        format_table(
            ["variant", "utilization", "slo_rate", "err_rate", "riders"],
            rows,
            title="CORP ablations",
        )
    )
    return 0


def _cmd_mixed(args: argparse.Namespace) -> int:
    from .experiments.mixed import run_mixed_workload

    results = run_mixed_workload(n_jobs=args.jobs, seed=args.seed)
    rows = [
        [
            m,
            s["overall_utilization"],
            s["slo_violation_rate"],
            s.get("prediction_error_rate", 0.0),
            int(s["riders"]),
        ]
        for m, s in results.items()
    ]
    print(
        format_table(
            ["method", "utilization", "slo_rate", "err_rate", "riders"],
            rows,
            title="Mixed short+long workload",
        )
    )
    return 0


def _cmd_storms(args: argparse.Namespace) -> int:
    """Revocation-storm sweep: every method at every storm intensity.

    The storm analogue of ``compare --faults``: one shared workload
    replayed under seeded :class:`RevocationWave` schedules of
    increasing intensity, with the per-intensity resilience and
    storm-recovery metrics tabulated for all four methods.
    """
    from .experiments.scenarios import FAULT_INTENSITIES

    jobs = min(args.jobs, 30) if args.quick else args.jobs
    intensities = (
        tuple(args.intensities) if args.intensities else FAULT_INTENSITIES
    )
    methods = tuple(args.methods) if args.methods else api.METHOD_ORDER
    base = api.build_scenario(
        jobs=jobs, testbed=args.testbed, seed=args.seed
    )
    scenarios = api.storm_sweep_scenarios(
        base, intensities=intensities, seed=args.storm_seed,
        n_slots=args.slots,
    )
    results = api.sweep(
        scenarios=scenarios,
        methods=methods,
        workers=args.workers,
        predictor_cache=api.PredictorCache(),
    )
    print(
        f"storm sweep: {jobs} jobs on the {args.testbed} profile, "
        f"storm seed {args.storm_seed}, intensities "
        f"{', '.join(f'{i:g}' for i in intensities)}"
    )
    for index, intensity in enumerate(intensities):
        rows = []
        for m, method in enumerate(methods):
            summary = results[index * len(methods) + m].summary()
            rows.append(
                [
                    method,
                    summary["overall_utilization"],
                    summary["slo_violation_rate"],
                    int(summary.get("storm_waves", 0)),
                    int(summary.get("storm_vms_hit", 0)),
                    summary.get("storm_recovery_slots", 0.0),
                    int(summary.get("evictions", 0)),
                    int(summary.get("gave_up", 0)),
                ]
            )
        print()
        print(
            format_table(
                [
                    "method", "utilization", "slo_rate", "waves",
                    "vms_hit", "recovery_slots", "evictions", "gave_up",
                ],
                rows,
                title=f"storm intensity {intensity:g}"
                      + ("" if intensity > 0 else " (fault-free control)"),
            )
        )
    _warn_truncated(
        {f"run{idx}": r for idx, r in enumerate(results) if r.truncated}
    )
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    if args.replay:
        report = api.replay(
            events=args.replay,
            methods=tuple(args.methods) if args.methods else None,
            tolerance=args.tolerance if args.tolerance is not None else 1e-9,
        )
        meta = report.meta
        print(
            f"replayed {meta['jobs']} jobs on the {meta['testbed']} "
            f"profile (seed {meta['seed']}, methods "
            f"{', '.join(meta['methods'])}): {report.n_compared} events "
            f"compared"
        )
        if report.ok:
            print("replay OK: live run reproduced the capture exactly")
            return 0
        rows = [list(m.as_row().values()) for m in report.mismatches]
        print(
            format_table(
                list(report.mismatches[0].as_row().keys()),
                rows,
                title=f"{len(report.mismatches)} replay mismatch(es)"
                + (" [truncated]" if report.truncated else ""),
            )
        )
        return 1

    jobs = min(args.jobs, 30) if args.quick else args.jobs
    fault_plan = None
    if args.faults is not None:
        fault_plan = api.build_fault_plan(
            seed=args.fault_seed, intensity=args.faults
        )
    report = api.check_run(
        jobs=jobs,
        testbed=args.testbed,
        seed=args.seed,
        methods=tuple(args.methods) if args.methods else api.METHOD_ORDER,
        fault_plan=fault_plan,
        rules=tuple(args.rules) if args.rules else None,
        tolerance=args.tolerance if args.tolerance is not None else 1e-6,
        differential=args.differential,
        events=args.events,
    )
    checked = ", ".join(
        f"{rule}={count}" for rule, count in sorted(report.checks.items())
    )
    print(
        f"checked {jobs} jobs on the {args.testbed} profile "
        f"(seed {args.seed}): {report.n_checks} invariant evaluations "
        f"({checked})"
    )
    if args.events:
        print(f"wrote events to {args.events}")
    if report.ok:
        print("check OK: no invariant violations")
        return 0
    rows = [list(v.as_row().values()) for v in report.violations]
    print(
        format_table(
            list(report.violations[0].as_row().keys()),
            rows,
            title=f"{report.n_violations} invariant violation(s)",
        )
    )
    return 1


def _cmd_golden(args: argparse.Namespace) -> int:
    from .check.golden import (
        GOLDEN_FAMILIES,
        compute_family_golden,
        compute_golden,
        default_golden_path,
        diff_golden,
        family_golden_path,
        load_golden,
        write_golden,
    )

    if args.family == "all":
        targets = ("base",) + GOLDEN_FAMILIES
    else:
        targets = (args.family,)

    status = 0
    for target in targets:
        if target == "base":
            path = default_golden_path(
                args.dir, jobs=args.jobs, testbed=args.testbed, seed=args.seed
            )
            fresh = compute_golden(
                jobs=args.jobs,
                testbed=args.testbed,
                seed=args.seed,
                fault_intensity=args.faults,
                fault_seed=args.fault_seed,
            )
        else:
            path = family_golden_path(
                args.dir, family=target, jobs=args.jobs, seed=args.seed
            )
            fresh = compute_family_golden(
                target, jobs=args.jobs, testbed=args.testbed, seed=args.seed
            )
        if args.update:
            write_golden(path, fresh)
            print(f"wrote {path} (digest {fresh['digest'][:12]})")
            continue
        try:
            recorded = load_golden(path)
        except FileNotFoundError:
            print(
                f"error: no golden file at {path}; record one with "
                f"python -m repro golden --update",
                file=sys.stderr,
            )
            status = max(status, 2)
            continue
        drift = diff_golden(recorded, fresh)
        if not drift:
            print(f"golden OK: {path} matches (digest {fresh['digest'][:12]})")
            continue
        print(f"golden DRIFT against {path}:")
        for line in drift:
            print(f"  {line}")
        print(
            "re-record with `python -m repro golden --update` if the "
            "behavioural change is intentional"
        )
        status = max(status, 1)
    return status


def _cmd_cache(args: argparse.Namespace) -> int:
    store = api.PredictorStore(args.dir or None)
    if args.action == "stats":
        stats = store.stats()
        rows = [
            ["dir", stats["root"]],
            ["store version", stats["store_version"]],
            ["entries", stats["entries"]],
            ["total bytes", stats["total_bytes"]],
        ]
        print(format_table(["predictor store", "value"], rows,
                           title="on-disk predictor store"))
        import time

        for meta in store.entries():
            created = time.strftime(
                "%Y-%m-%d %H:%M:%S", time.localtime(meta["created"])
            )
            print(
                f"  {meta['fingerprint'][:12]}  "
                f"history {meta['history_digest'][:12]}  {created}"
            )
        return 0
    if args.action == "clear":
        removed = store.clear()
        print(f"cleared {removed} artifact(s) from {store.root}")
        return 0
    # warm: fit this scenario's predictor into the store so any later
    # run with the same (config, history) loads instead of fitting.
    from .core.config import CorpConfig

    jobs = min(args.jobs, 30) if args.quick else args.jobs
    scenario = api.build_scenario(
        jobs=jobs, testbed=args.testbed, seed=args.seed
    )
    cache = api.PredictorCache(store=store, fit_workers=args.fit_workers)
    cache.get(CorpConfig(seed=args.seed), scenario.history_trace())
    verb = "loaded (already warm)" if store.hits else "fitted and stored"
    print(
        f"{verb}: predictor for {jobs} jobs on the {args.testbed} "
        f"profile (seed {args.seed}) in {store.root}"
    )
    return 0


def _cmd_predictors(args: argparse.Namespace) -> int:
    """List the registered predictor families ``--predictor`` accepts."""
    rows = [
        [name, summary]
        for name, summary in api.predictor_summaries().items()
    ]
    print(
        format_table(
            ["predictor", "summary"],
            rows,
            title="registered predictor families (--predictor NAME)",
        )
    )
    return 0


def _add_predictor_option(parser: argparse.ArgumentParser) -> None:
    """The ``--predictor`` flag shared by compare/profile/serve.

    Free-form (not ``choices=``) so third-party registrations work; an
    unknown name raises the registry's ValueError, which main() turns
    into the usual one-line error + exit 2.
    """
    parser.add_argument(
        "--predictor", default="corp", metavar="NAME",
        help="registered forecasting family CORP runs on: corp "
             "(DNN+HMM, default), quantile, classify, ets, markov, or "
             "auto (online per-workload selection); see `repro "
             "predictors`",
    )


def _add_scale_options(parser: argparse.ArgumentParser) -> None:
    """The hyperscale flags shared by ``compare`` and ``serve``."""
    parser.add_argument(
        "--shards", type=int, default=None, metavar="N",
        help="partition the availability index into N VM-pool shards "
             "(default: 1; results are identical at any shard count — "
             "sharding bounds per-slot recompute work on 10k+-VM "
             "clusters)",
    )
    parser.add_argument(
        "--chunk-size", type=int, default=None, metavar="N",
        help="records per chunk for streaming trace generation "
             "(default: 4096)",
    )


def _scale_from_args(args: argparse.Namespace) -> "api.ScaleConfig | None":
    """Build the ``scale=`` argument from the CLI flags (None = defaults)."""
    if args.shards is None and args.chunk_size is None:
        return None
    kwargs = {}
    if args.shards is not None:
        kwargs["shards"] = args.shards
    if args.chunk_size is not None:
        kwargs["chunk_size"] = args.chunk_size
    return api.ScaleConfig(**kwargs)


def _add_cache_options(parser: argparse.ArgumentParser) -> None:
    """The predictor-cache flags shared by ``compare`` and ``profile``."""
    parser.add_argument(
        "--store", nargs="?", const="", default=None, metavar="DIR",
        help="persist fitted predictors to an on-disk store and load "
             "them back on later runs (bare flag = $REPRO_CACHE_DIR or "
             "the XDG cache dir)",
    )
    parser.add_argument(
        "--warm-start", action="store_true",
        help="seed unavoidable refits from the nearest same-config "
             "stored artifact (requires --store; changes the fitted "
             "weights, so results differ from a cold fit)",
    )
    parser.add_argument(
        "--fit-workers", type=int, default=0,
        help="fan the three per-resource DNN/HMM fits across N worker "
             "processes (0 = serial; results are identical either way)",
    )
    parser.add_argument(
        "--predictor-cache-size", type=int, default=16,
        help="in-memory LRU bound of the fitted-predictor cache "
             "(default: 16)",
    )


def build_parser() -> argparse.ArgumentParser:
    """Build the argparse tree for all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="CORP (CLUSTER 2016) reproduction — experiment CLI",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    compare = sub.add_parser("compare", help="run all four schedulers once")
    compare.add_argument("--jobs", type=int, default=200)
    compare.add_argument("--testbed", choices=("cluster", "ec2"), default="cluster")
    compare.add_argument("--seed", type=int, default=7)
    compare.add_argument(
        "--workers", type=int, default=0,
        help="run the four schedulers across N worker processes "
             "(0 = in-process; results are identical either way)",
    )
    compare.add_argument(
        "--events", metavar="PATH", default=None,
        help="stream structured decision events (slot, placement, "
             "preemption, predictor_fit, vm_fail, evict, retry) to a "
             "JSONL file; with --workers, per-worker shards are merged",
    )
    compare.add_argument(
        "--faults", nargs="?", const=0.3, type=float, default=None,
        metavar="INTENSITY",
        help="replay a seeded deterministic fault plan (VM crashes, "
             "capacity revocations, predictor outages, job failures) of "
             "the given intensity against every scheduler and report "
             "resilience metrics (bare flag = 0.3)",
    )
    compare.add_argument(
        "--fault-seed", type=int, default=0,
        help="seed of the fault plan (independent of the workload seed)",
    )
    compare.add_argument(
        "--quick", action="store_true",
        help="cap the job count at 30 (the CI smoke setting)",
    )
    from .experiments.scenarios import SCENARIO_FAMILIES

    compare.add_argument(
        "--scenario", choices=SCENARIO_FAMILIES, default=None,
        help="run a scenario-zoo family instead of the steady arrival "
             "mix: pipeline (phased DAG submission), diurnal (day/night "
             "arrivals with flash crowds) or storm (correlated spot "
             "revocations at intensity 0.5)",
    )
    _add_cache_options(compare)
    _add_predictor_option(compare)
    _add_scale_options(compare)
    compare.set_defaults(func=_cmd_compare)

    serve = sub.add_parser(
        "serve",
        help="run the asyncio allocation service over a generated workload",
    )
    serve.add_argument("--jobs", type=int, default=50)
    serve.add_argument("--testbed", choices=("cluster", "ec2"), default="cluster")
    serve.add_argument("--seed", type=int, default=7)
    serve.add_argument(
        "--method", choices=api.METHOD_ORDER, default="CORP",
        help="the scheduler the service runs (default: CORP)",
    )
    serve.add_argument(
        "--show-placements", type=int, default=0, metavar="N",
        help="echo the first N streamed placement updates",
    )
    serve.add_argument(
        "--events", metavar="PATH", default=None,
        help="stream structured decision events to a JSONL file",
    )
    serve.add_argument(
        "--faults", nargs="?", const=0.3, type=float, default=None,
        metavar="INTENSITY",
        help="replay a seeded deterministic fault plan while jobs "
             "stream in (bare flag = 0.3)",
    )
    serve.add_argument(
        "--fault-seed", type=int, default=0,
        help="seed of the fault plan (independent of the workload seed)",
    )
    _add_cache_options(serve)
    _add_predictor_option(serve)
    _add_scale_options(serve)
    serve.set_defaults(func=_cmd_serve)

    profile = sub.add_parser(
        "profile",
        help="profiled comparison: per-stage timing table + counters",
    )
    profile.add_argument("--jobs", type=int, default=50)
    profile.add_argument("--testbed", choices=("cluster", "ec2"), default="cluster")
    profile.add_argument("--seed", type=int, default=7)
    profile.add_argument(
        "--out", default="PROFILE_runtime.json",
        help="JSON report path (default: PROFILE_runtime.json)",
    )
    profile.add_argument(
        "--events", metavar="PATH", default=None,
        help="also stream decision events to a JSONL file",
    )
    _add_cache_options(profile)
    _add_predictor_option(profile)
    profile.set_defaults(func=_cmd_profile)

    figure = sub.add_parser("figure", help="regenerate one paper figure")
    figure.add_argument("name", choices=FIGURES)
    figure.add_argument("--testbed", choices=("cluster", "ec2"), default="cluster")
    figure.add_argument("--seed", type=int, default=7)
    figure.add_argument(
        "--svg", metavar="PATH", default=None,
        help="also render the figure as a standalone SVG chart "
             "(fig06/fig07/fig09 and their EC2 twins)",
    )
    figure.set_defaults(func=_cmd_figure)

    ablations = sub.add_parser("ablations", help="CORP component ablations")
    ablations.add_argument("--jobs", type=int, default=300)
    ablations.add_argument("--seed", type=int, default=7)
    ablations.add_argument(
        "--predictors", action="store_true",
        help="ablate the forecasting family instead of the scheduler "
             "components: one CORP run per registered predictor",
    )
    ablations.set_defaults(func=_cmd_ablations)

    mixed = sub.add_parser("mixed", help="mixed short+long workload")
    mixed.add_argument("--jobs", type=int, default=200)
    mixed.add_argument("--seed", type=int, default=7)
    mixed.set_defaults(func=_cmd_mixed)

    storms = sub.add_parser(
        "storms",
        help="revocation-storm sweep: all methods at every storm intensity",
    )
    storms.add_argument("--jobs", type=int, default=200)
    storms.add_argument(
        "--testbed", choices=("cluster", "ec2"), default="cluster"
    )
    storms.add_argument("--seed", type=int, default=7)
    storms.add_argument(
        "--storm-seed", type=int, default=0,
        help="seed of the revocation-wave schedule "
             "(independent of the workload seed)",
    )
    storms.add_argument(
        "--slots", type=int, default=400,
        help="horizon (slots) the wave schedule covers (default: 400)",
    )
    storms.add_argument(
        "--intensities", nargs="+", type=float, default=None,
        metavar="I",
        help="storm intensities to sweep (default: 0 0.25 0.5 1)",
    )
    storms.add_argument(
        "--methods", nargs="+", metavar="METHOD", default=None,
        help="restrict to a subset of the schedulers (default: all four)",
    )
    storms.add_argument(
        "--workers", type=int, default=0,
        help="fan the sweep across N worker processes (0 = in-process)",
    )
    storms.add_argument(
        "--quick", action="store_true",
        help="cap the job count at 30 (the CI smoke setting)",
    )
    storms.set_defaults(func=_cmd_storms)

    from .check.rules import ALL_RULES

    check = sub.add_parser(
        "check",
        help="run with the runtime invariant checker (or --replay a capture)",
    )
    check.add_argument("--jobs", type=int, default=50)
    check.add_argument("--testbed", choices=("cluster", "ec2"), default="cluster")
    check.add_argument("--seed", type=int, default=7)
    check.add_argument(
        "--methods", nargs="+", metavar="METHOD", default=None,
        help="restrict to a subset of the schedulers "
             "(default: all four; for --replay, the captured set)",
    )
    check.add_argument(
        "--faults", nargs="?", const=0.3, type=float, default=None,
        metavar="INTENSITY",
        help="check under a seeded fault plan of the given intensity "
             "(bare flag = 0.3)",
    )
    check.add_argument("--fault-seed", type=int, default=0)
    check.add_argument(
        "--rules", nargs="+", metavar="RULE", choices=ALL_RULES, default=None,
        help=f"invariant rules to evaluate (default: all but "
             f"'differential'; choices: {', '.join(ALL_RULES)})",
    )
    check.add_argument(
        "--differential", action="store_true",
        help="also diff every slot outcome against the reference "
             "(pre-vectorization) executor — slower, strongest check",
    )
    check.add_argument(
        "--tolerance", type=float, default=None,
        help="numeric tolerance (default: 1e-6 for invariants, "
             "1e-9 for --replay)",
    )
    check.add_argument(
        "--events", metavar="PATH", default=None,
        help="also capture a replayable JSONL event stream "
             "(feed it back with --replay)",
    )
    check.add_argument(
        "--replay", metavar="PATH", default=None,
        help="differential replay: re-run the scenario this capture "
             "describes and diff per-slot state and placements "
             "against it",
    )
    check.add_argument(
        "--quick", action="store_true",
        help="cap the job count at 30 (the CI smoke setting)",
    )
    check.set_defaults(func=_cmd_check)

    golden = sub.add_parser(
        "golden",
        help="compare seeded summaries against the committed golden trace",
    )
    golden.add_argument(
        "--update", action="store_true",
        help="(re)write the golden file instead of comparing against it",
    )
    golden.add_argument(
        "--dir", default="tests/golden",
        help="directory of the golden files (default: tests/golden)",
    )
    from .check.golden import (
        GOLDEN_FAMILIES,
        GOLDEN_FAULT_INTENSITY,
        GOLDEN_FAULT_SEED,
        GOLDEN_JOBS,
        GOLDEN_SEED,
        GOLDEN_TESTBED,
    )

    golden.add_argument("--jobs", type=int, default=GOLDEN_JOBS)
    golden.add_argument(
        "--testbed", choices=("cluster", "ec2"), default=GOLDEN_TESTBED
    )
    golden.add_argument("--seed", type=int, default=GOLDEN_SEED)
    golden.add_argument(
        "--faults", type=float, default=GOLDEN_FAULT_INTENSITY,
        metavar="INTENSITY",
        help="fault intensity of the faulted golden section",
    )
    golden.add_argument("--fault-seed", type=int, default=GOLDEN_FAULT_SEED)
    golden.add_argument(
        "--family",
        choices=("all", "base") + GOLDEN_FAMILIES,
        default="all",
        help="which golden(s) to run: the base comparison, one scenario "
        "family, or all of them (default)",
    )
    golden.set_defaults(func=_cmd_golden)

    cache = sub.add_parser(
        "cache", help="manage the on-disk fitted-predictor store"
    )
    cache.add_argument(
        "action", choices=("stats", "clear", "warm"),
        help="stats: print the artifact inventory; clear: delete every "
             "artifact; warm: pre-fit one scenario's predictor into the "
             "store",
    )
    cache.add_argument(
        "--dir", default=None, metavar="DIR",
        help="store directory (default: $REPRO_CACHE_DIR or the XDG "
             "cache dir)",
    )
    cache.add_argument("--jobs", type=int, default=200,
                       help="(warm) scenario size to pre-fit")
    cache.add_argument("--testbed", choices=("cluster", "ec2"),
                       default="cluster")
    cache.add_argument("--seed", type=int, default=7)
    cache.add_argument("--fit-workers", type=int, default=0,
                       help="(warm) worker processes for the fit")
    cache.add_argument(
        "--quick", action="store_true",
        help="(warm) cap the job count at 30 (matches compare --quick)",
    )
    cache.set_defaults(func=_cmd_cache)

    predictors = sub.add_parser(
        "predictors",
        help="list the registered predictor families --predictor accepts",
    )
    predictors.set_defaults(func=_cmd_predictors)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code.

    Expected failures (bad figure names, unwritable paths, invalid
    parameter combinations) print one line on stderr and exit 2 instead
    of dumping a traceback; argparse errors keep argparse's own
    stderr-message-and-exit-2 behaviour.
    """
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
