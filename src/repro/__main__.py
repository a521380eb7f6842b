"""Command-line interface: ``python -m repro <command>`` (or ``repro``).

Commands
--------
``compare``   — run all four schedulers on one workload and print the
                comparison table (a single column of the evaluation);
                ``--scenario {pipeline,diurnal,storm}`` swaps in a
                scenario-zoo family with its extra summary metrics.
``serve``     — one lifecycle of the asyncio allocation service over a
                generated workload, echoing streamed placements.
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

The parser is data: every flag two subcommands share (workload,
``--faults``, ``--events``, the predictor cache/store group,
``--predictor``, ``--methods``, ``--workers``) is
declared once in ``_SHARED``, and each handler's ``@_command`` row names
the flags it takes — ``python -m repro <command> --help`` prints them.
Experiment execution routes exclusively through :mod:`repro.api`.

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
import contextlib
import json
import sys
from typing import Callable, Mapping

from . import __version__, api
from .check import golden as goldens
from .check.rules import ALL_RULES
from .experiments.report import format_table
from .experiments.scenarios import FAULT_INTENSITIES, SCENARIO_FAMILIES

def _flag(name: str, help: str | None = None, **kwargs) -> tuple[str, dict]:
    """One ``add_argument`` call as data: ``(flag, keyword arguments)``."""
    return name, dict(kwargs, help=help)


#: Flags that two or more subcommands take, declared once.
_SHARED = dict((
    _flag("--jobs", type=int),
    _flag("--testbed", choices=("cluster", "ec2"), default="cluster"),
    _flag("--seed", type=int, default=7),
    _flag("--quick", "cap the job count at 30 (the CI smoke setting)",
          action="store_true"),
    _flag("--faults",
          "replay a seeded deterministic fault plan (VM crashes, capacity revocations, "
          "predictor outages, job failures) of the given intensity against the run "
          "and report resilience metrics (bare flag = 0.3)",
          nargs="?", const=0.3, type=float, metavar="INTENSITY"),
    _flag("--fault-seed", "seed of the fault plan (independent of the workload seed)",
          type=int, default=0),
    _flag("--events",
          "stream structured decision events (slot, placement, preemption, "
          "predictor_fit, vm_fail, evict, retry) to a JSONL file; with --workers, "
          "per-worker shards are merged; `check --replay` re-runs a `check` capture",
          metavar="PATH"),
    _flag("--store",
          "persist fitted predictors to an on-disk store and load them back "
          "on later runs (bare flag = $REPRO_CACHE_DIR or the XDG cache dir)",
          nargs="?", const="", metavar="DIR"),
    _flag("--warm-start",
          "seed unavoidable refits from the nearest same-config stored "
          "artifact (requires --store; changes the fitted weights, so "
          "results differ from a cold fit)",
          action="store_true"),
    _flag("--predictor-cache-size",
          "in-memory LRU bound of the fitted-predictor cache (default: 16)",
          type=int, default=16),
    # Free-form (not ``choices=``) so third-party registrations work; an
    # unknown name raises the registry's ValueError, which main() turns
    # into the usual one-line error + exit 2.
    _flag("--predictor",
          "registered forecasting family CORP runs on: corp (DNN+HMM, "
          "default), quantile, classify or markov; see `repro predictors`",
          default="corp", metavar="NAME"),
    _flag("--methods",
          "restrict to a subset of the schedulers (default: all four; for "
          "check --replay, the captured set)",
          nargs="+", metavar="METHOD"),
    _flag("--workers",
          "fan the runs across N worker processes (0 = in-process; results "
          "are identical either way)",
          type=int, default=0),
))

_WORKLOAD = ("--jobs", "--testbed", "--seed")
_FAULTS = ("--faults", "--fault-seed")
_CACHE = ("--store", "--warm-start", "--predictor-cache-size")


#: The subcommand rows, in ``--help`` order (filled by :func:`_command`).
_COMMANDS: list[tuple] = []


def _command(name: str, help: str, *options, **defaults):
    """Register the decorated handler as subcommand ``name``.

    ``options`` are, in ``--help`` order, the names of the ``_SHARED``
    flags it takes and then a :func:`_flag` row per flag of its own;
    ``defaults`` are its own defaults for shared flags (``jobs=200``).
    """

    def register(handler: Callable[[argparse.Namespace], int]):
        _COMMANDS.append((name, help, handler, options, defaults))
        return handler

    return register


def _run_inputs(args: argparse.Namespace) -> tuple:
    """``(jobs, fault_plan, cache)`` as the shared flags describe them.

    A flag group the subcommand does not declare yields ``None`` (for
    ``jobs``: no ``--quick`` cap), so every handler reads its run inputs
    through this one function.
    """
    jobs = min(args.jobs, 30) if getattr(args, "quick", False) else args.jobs
    fault_plan = None
    if getattr(args, "faults", None) is not None:
        fault_plan = api.build_fault_plan(
            seed=args.fault_seed, intensity=args.faults
        )
    cache = None
    if hasattr(args, "store"):
        store = None
        if args.store is not None:
            store = api.PredictorStore(args.store or None)
        if args.warm_start and store is None:
            raise ValueError("--warm-start requires --store")
        cache = api.PredictorCache(
            maxsize=args.predictor_cache_size,
            store=store,
            warm_start=args.warm_start,
        )
    return jobs, fault_plan, cache


def _events(args: argparse.Namespace):
    """Capture events to ``--events PATH`` for a block (no flag: no-op)."""
    if args.events:
        return api.capture_events(args.events)
    return contextlib.nullcontext()


#: Summary-table columns are ``(header, summary key[, cast[, default]])``:
#: ``cast`` is ``int`` for counts (summaries store every scalar as a
#: float) and ``default`` is shown when the summary lacks the key — a
#: column without one requires it.
_UTILIZATION = ("utilization", "overall_utilization")
_SLO_RATE = ("slo_rate", "slo_violation_rate")
#: The comparison table of ``compare`` and ``serve``.
_RUN_COLUMNS = (
    _UTILIZATION,
    _SLO_RATE,
    ("err_rate", "prediction_error_rate", None, float("nan")),
    ("latency_s", "allocation_latency_s"),
)
#: The variant table of ``ablations`` and ``mixed``.
_VARIANT_COLUMNS = (
    _UTILIZATION,
    _SLO_RATE,
    ("err_rate", "prediction_error_rate", None, 0.0),
    ("riders", "riders", int),
)


def _print_summaries(
    title: str,
    summaries: Mapping[str, Mapping[str, float]],
    columns: tuple[tuple, ...],
    label: str = "method",
) -> None:
    """Print ``name -> summary dict`` as one table row per name."""

    def cell(summary, key, cast=None, default=None):
        if key not in summary and default is not None:
            return default
        return cast(summary[key]) if cast else summary[key]

    rows = [
        [name] + [cell(summary, *column[1:]) for column in columns]
        for name, summary in summaries.items()
    ]
    headers = [label] + [column[0] for column in columns]
    print(format_table(headers, rows, title=title))


def _print_rows(title: str, items: list) -> None:
    """Table of ``as_row()`` records (check violations, replay mismatches)."""
    rows = [list(item.as_row().values()) for item in items]
    print(format_table(list(items[0].as_row().keys()), rows, title=title))


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


@_command(
    "compare", "run all four schedulers once",
    *_WORKLOAD, "--quick", "--workers", "--events", *_FAULTS,
    *_CACHE, "--predictor",
    _flag("--scenario",
          "run a scenario-zoo family instead of the steady arrival mix: pipeline "
          "(phased DAG submission), diurnal (day/night arrivals with flash crowds) "
          "or storm (correlated spot revocations at intensity 0.5)",
          choices=SCENARIO_FAMILIES),
    jobs=200,
)
def _cmd_compare(args: argparse.Namespace) -> int:
    jobs, fault_plan, cache = _run_inputs(args)
    scenario = None
    if args.scenario is not None:
        scenario = api.build_scenario(
            jobs=jobs, testbed=args.testbed, seed=args.seed,
            family=args.scenario,
        )
    with _events(args):
        results = api.compare(
            scenario=scenario,
            jobs=jobs,
            testbed=args.testbed,
            seed=args.seed,
            workers=args.workers,
            fault_plan=fault_plan,
            predictor_cache=cache,
            predictor=args.predictor,
        )
    summaries = {method: r.summary() for method, r in results.items()}
    workload = (
        f"the {args.scenario} scenario ({args.testbed} profile)"
        if args.scenario is not None
        else f"the {args.testbed} profile"
    )
    _print_summaries(f"{jobs} jobs on {workload}", summaries, _RUN_COLUMNS)
    if any(r.resilience is not None for r in results.values()):
        if args.faults is not None:
            res_title = (
                f"resilience under fault intensity {args.faults:g} "
                f"(fault seed {args.fault_seed})"
            )
        else:  # the scenario carries its own plan (e.g. --scenario storm)
            res_title = "resilience under the scenario's fault plan"
        print()
        _print_summaries(
            res_title,
            summaries,
            (
                ("evictions", "evictions", int),
                ("retries", "retries", int),
                ("gave_up", "gave_up", int),
                ("slo_viol_faulted", "slo_violations_faulted", int),
                ("recovery_slots", "recovery_latency_slots"),
            ),
        )
    extras = {method: r.extra_metrics or {} for method, r in results.items()}
    extra_keys = sorted({key for extra in extras.values() for key in extra})
    if extra_keys:  # the pipeline/diurnal/storm family metrics
        print()
        _print_summaries(
            "scenario metrics",
            extras,
            tuple((key, key, None, float("nan")) for key in extra_keys),
        )
    if cache.store is not None:
        stats = cache.stats()
        store = stats["store"]
        print(
            f"\npredictor store {store['root']}: "
            f"{store['hits']} hit(s), {store['misses']} miss(es), "
            f"{store['saves']} save(s), {stats['warm_starts']} warm start(s)"
        )
    if args.events:
        print(f"\nwrote events to {args.events}")
    _warn_truncated(results)
    return 0


@_command(
    "serve", "run the asyncio allocation service over a generated workload",
    *_WORKLOAD, "--events", *_FAULTS, *_CACHE, "--predictor",
    _flag("--method", "the scheduler the service runs (default: CORP)",
          choices=api.METHOD_ORDER, default="CORP"),
    _flag("--show-placements", "echo the first N streamed placement updates",
          type=int, default=0, metavar="N"),
    jobs=50,
)
def _cmd_serve(args: argparse.Namespace) -> int:
    """One lifecycle of the asyncio allocation service (v1.5).

    Opens the service, streams every record of the generated workload
    into it, consumes the placement stream concurrently, drains, and
    prints the drained run's summary — the CI smoke path for
    ``CORP-as-a-daemon``.
    """
    import asyncio

    jobs, fault_plan, cache = _run_inputs(args)
    scenario = api.build_scenario(
        jobs=jobs, testbed=args.testbed, seed=args.seed
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

    with _events(args):
        n_submitted, updates, result = asyncio.run(_serve())

    _print_summaries(
        f"service drain: {n_submitted} job(s) submitted, "
        f"{len(updates)} placement update(s) streamed",
        {args.method: result.summary()},
        _RUN_COLUMNS,
    )
    if cache.store is not None:
        _print_cache_stats(cache.stats())
    if args.events:
        print(f"\nwrote events to {args.events}")
    _warn_truncated({args.method: result})
    return 0


@_command(
    "profile", "profiled comparison: per-stage timing table + counters",
    *_WORKLOAD, "--events", *_CACHE, "--predictor",
    _flag("--out", "JSON report path (default: PROFILE_runtime.json)",
          default="PROFILE_runtime.json"),
    jobs=50,
)
def _cmd_profile(args: argparse.Namespace) -> int:
    _, _, cache = _run_inputs(args)
    report = api.profile_run(
        jobs=args.jobs, testbed=args.testbed, seed=args.seed,
        predictor_cache=cache, predictor=args.predictor, events=args.events,
    )
    _print_summaries(
        f"per-stage wall clock ({args.jobs} jobs, {args.testbed})",
        {stage["stage"]: stage for stage in report["stages"]},
        tuple((key, key) for key in ("calls", "total_s", "mean_s", "share")),
        label="stage",
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


@_command(
    "figure", "regenerate one paper figure",
    _flag("name", choices=[f"fig{number:02d}" for number in range(6, 15)]),
    "--testbed", "--seed",
    _flag("--svg",
          "also render the figure as a standalone SVG chart "
          "(fig06/fig07/fig09 and their EC2 twins)",
          metavar="PATH"),
)
def _cmd_figure(args: argparse.Namespace) -> int:
    from .experiments import figures
    from .experiments.plot import save_figure_svg

    number, testbed = int(args.name[3:]), args.testbed
    if number >= 11:
        # EC2 figures 11-14 are cluster figures 7-10 on the EC2 profile.
        number, testbed = number - 4, "ec2"
    run = {
        6: figures.fig06_prediction_error,
        7: figures.fig07_utilization,
        8: figures.fig08_utilization_vs_slo,
        9: figures.fig09_slo_vs_confidence,
        10: figures.fig10_overhead,
    }[number]
    result = run(testbed=testbed, seed=args.seed, cache=api.PredictorCache())
    y_labels = {6: "error rate", 9: "SLO violation rate"}
    chart = None  # (FigureResult, y label) of the chart --svg renders
    if number in y_labels:
        print(result.to_table())
        chart = result, y_labels[number]
    elif number == 7:
        for key in ("cpu", "mem", "storage", "overall"):
            print(result[key].to_table())
            print()
        chart = result["overall"], "overall utilization"
    elif number == 8:
        rows = [
            [method, slo, util]
            for method, points in result.items()
            for slo, util in points
        ]
        print(
            format_table(
                ["method", "slo_violation_rate", "overall_utilization"],
                rows,
                title=f"utilization vs SLO violation rate ({testbed})",
            )
        )
    else:
        print(
            format_table(
                ["method", "allocation_latency_s"],
                [[m, v] for m, v in result.items()],
                title=f"allocation latency, 300 jobs ({testbed})",
            )
        )
    if args.svg and chart:
        print("wrote", save_figure_svg(chart[0], args.svg, y_label=chart[1]))
    return 0


@_command(
    "ablations", "CORP component ablations",
    "--jobs", "--seed",
    _flag("--predictors",
          "ablate the forecasting family instead of the scheduler "
          "components: one CORP run per registered predictor",
          action="store_true"),
    jobs=300,
)
def _cmd_ablations(args: argparse.Namespace) -> int:
    from .experiments.ablations import run_ablations, run_predictor_ablation

    if args.predictors:
        _print_summaries(
            "CORP predictor ablation (all families, same workload)",
            run_predictor_ablation(n_jobs=args.jobs, seed=args.seed),
            _VARIANT_COLUMNS,
            label="predictor",
        )
    else:
        _print_summaries(
            "CORP ablations",
            run_ablations(n_jobs=args.jobs, seed=args.seed),
            _VARIANT_COLUMNS,
            label="variant",
        )
    return 0


@_command("mixed", "mixed short+long workload", "--jobs", "--seed", jobs=200)
def _cmd_mixed(args: argparse.Namespace) -> int:
    from .experiments.mixed import run_mixed_workload

    _print_summaries(
        "Mixed short+long workload",
        run_mixed_workload(n_jobs=args.jobs, seed=args.seed),
        _VARIANT_COLUMNS,
    )
    return 0


@_command(
    "storms", "revocation-storm sweep: all methods at every storm intensity",
    *_WORKLOAD, "--quick", "--methods", "--workers",
    _flag("--storm-seed",
          "seed of the revocation-wave schedule (independent of the workload seed)",
          type=int, default=0),
    _flag("--slots", "horizon (slots) the wave schedule covers (default: 400)",
          type=int, default=400),
    _flag("--intensities", "storm intensities to sweep (default: 0 0.25 0.5 1)",
          nargs="+", type=float, metavar="I"),
    jobs=200,
)
def _cmd_storms(args: argparse.Namespace) -> int:
    """Revocation-storm sweep: every method at every storm intensity.

    The storm analogue of ``compare --faults``: one shared workload
    replayed under seeded :class:`RevocationWave` schedules of
    increasing intensity, with the per-intensity resilience and
    storm-recovery metrics tabulated for all four methods.
    """
    jobs, _, _ = _run_inputs(args)
    intensities = args.intensities or FAULT_INTENSITIES
    methods = args.methods or api.METHOD_ORDER
    base = api.build_scenario(
        jobs=jobs, testbed=args.testbed, seed=args.seed
    )
    scenarios = api.storm_sweep_scenarios(
        base, intensities=intensities, seed=args.storm_seed,
        n_slots=args.slots,
    )
    results = iter(
        api.sweep(
            scenarios=scenarios,
            methods=methods,
            workers=args.workers,
            predictor_cache=api.PredictorCache(),
        )
    )
    print(
        f"storm sweep: {jobs} jobs on the {args.testbed} profile, "
        f"storm seed {args.storm_seed}, intensities "
        f"{', '.join(f'{i:g}' for i in intensities)}"
    )
    labelled = {}
    for intensity in intensities:
        # Sweep order is scenario-major: one run per method per intensity.
        runs = {method: next(results) for method in methods}
        labelled.update(
            (f"{method}@{intensity:g}", run) for method, run in runs.items()
        )
        print()
        _print_summaries(
            f"storm intensity {intensity:g}"
            + ("" if intensity > 0 else " (fault-free control)"),
            {method: run.summary() for method, run in runs.items()},
            (
                _UTILIZATION,
                _SLO_RATE,
                ("waves", "storm_waves", int, 0),
                ("vms_hit", "storm_vms_hit", int, 0),
                ("recovery_slots", "storm_recovery_slots", None, 0.0),
                ("evictions", "evictions", int, 0),
                ("gave_up", "gave_up", int, 0),
            ),
        )
    _warn_truncated(labelled)
    return 0


@_command(
    "check", "run with the runtime invariant checker (or --replay a capture)",
    *_WORKLOAD, "--quick", "--methods", *_FAULTS, "--events",
    _flag("--rules",
          f"invariant rules to evaluate (default: all but 'differential'; "
          f"choices: {', '.join(ALL_RULES)})",
          nargs="+", metavar="RULE", choices=ALL_RULES),
    _flag("--differential",
          "also diff every slot outcome against the reference "
          "(pre-vectorization) executor — slower, strongest check",
          action="store_true"),
    _flag("--tolerance",
          "numeric tolerance (default: 1e-6 for invariants, 1e-9 for --replay)",
          type=float),
    _flag("--replay",
          "differential replay: re-run the scenario this capture describes "
          "and diff per-slot state and placements against it",
          metavar="PATH"),
    jobs=50,
)
def _cmd_check(args: argparse.Namespace) -> int:
    if args.replay:
        report = api.replay(
            events=args.replay,
            methods=args.methods,
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
        _print_rows(
            f"{len(report.mismatches)} replay mismatch(es)"
            + (" [truncated]" if report.truncated else ""),
            report.mismatches,
        )
        return 1

    jobs, fault_plan, _ = _run_inputs(args)
    report = api.check_run(
        jobs=jobs,
        testbed=args.testbed,
        seed=args.seed,
        methods=args.methods or api.METHOD_ORDER,
        fault_plan=fault_plan,
        rules=args.rules,
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
    _print_rows(
        f"{report.n_violations} invariant violation(s)", report.violations
    )
    return 1


@_command(
    "golden", "compare seeded summaries against the committed golden trace",
    *_WORKLOAD, "--fault-seed",
    _flag("--update", "(re)write the golden file instead of comparing against it",
          action="store_true"),
    _flag("--dir", "directory of the golden files (default: tests/golden)",
          default="tests/golden"),
    # The faulted golden section always runs, so a plain value flag
    # rather than the shared optional-intensity one.
    _flag("--faults", "fault intensity of the faulted golden section",
          type=float, default=goldens.GOLDEN_FAULT_INTENSITY, metavar="INTENSITY"),
    _flag("--family",
          "which golden(s) to run: the base comparison, one scenario family, "
          "or all of them (default)",
          choices=("all", "base") + goldens.GOLDEN_FAMILIES, default="all"),
    jobs=goldens.GOLDEN_JOBS, testbed=goldens.GOLDEN_TESTBED,
    seed=goldens.GOLDEN_SEED, fault_seed=goldens.GOLDEN_FAULT_SEED,
)
def _cmd_golden(args: argparse.Namespace) -> int:
    if args.family == "all":
        targets = ("base",) + goldens.GOLDEN_FAMILIES
    else:
        targets = (args.family,)

    status = 0
    for target in targets:
        if target == "base":
            path = goldens.default_golden_path(
                args.dir, jobs=args.jobs, testbed=args.testbed, seed=args.seed
            )
            fresh = goldens.compute_golden(
                jobs=args.jobs,
                testbed=args.testbed,
                seed=args.seed,
                fault_intensity=args.faults,
                fault_seed=args.fault_seed,
            )
        else:
            path = goldens.family_golden_path(
                args.dir, family=target, jobs=args.jobs, seed=args.seed
            )
            fresh = goldens.compute_family_golden(
                target, jobs=args.jobs, testbed=args.testbed, seed=args.seed
            )
        if args.update:
            goldens.write_golden(path, fresh)
            print(f"wrote {path} (digest {fresh['digest'][:12]})")
            continue
        try:
            recorded = goldens.load_golden(path)
        except FileNotFoundError:
            print(
                f"error: no golden file at {path}; record one with "
                f"python -m repro golden --update",
                file=sys.stderr,
            )
            status = max(status, 2)
            continue
        drift = goldens.diff_golden(recorded, fresh)
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


@_command(
    "cache", "manage the on-disk fitted-predictor store",
    _flag("action",
          "stats: print the artifact inventory; clear: delete every artifact; "
          "warm: pre-fit one scenario's predictor into the store (the "
          "workload flags describe that scenario)",
          choices=("stats", "clear", "warm")),
    *_WORKLOAD, "--quick",
    _flag("--dir", "store directory (default: $REPRO_CACHE_DIR or the XDG cache dir)",
          metavar="DIR"),
    jobs=200,
)
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

    jobs, _, _ = _run_inputs(args)
    scenario = api.build_scenario(
        jobs=jobs, testbed=args.testbed, seed=args.seed
    )
    cache = api.PredictorCache(store=store)
    cache.get(CorpConfig(seed=args.seed), scenario.history_trace())
    verb = "loaded (already warm)" if store.hits else "fitted and stored"
    print(
        f"{verb}: predictor for {jobs} jobs on the {args.testbed} "
        f"profile (seed {args.seed}) in {store.root}"
    )
    return 0


@_command("predictors", "list the registered predictor families --predictor accepts")
def _cmd_predictors(args: argparse.Namespace) -> int:
    rows = [list(item) for item in api.predictor_summaries().items()]
    title = "registered predictor families (--predictor NAME)"
    print(format_table(["predictor", "summary"], rows, title=title))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Build the argparse tree from ``_SHARED`` and the ``_COMMANDS`` rows."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="CORP (CLUSTER 2016) reproduction — experiment CLI",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help, handler, options, defaults in _COMMANDS:
        cmd = sub.add_parser(name, help=help)
        for option in options:
            if isinstance(option, str):
                option = option, _SHARED[option]
            flag, kwargs = option
            dest = flag.lstrip("-").replace("-", "_")
            if dest in defaults:
                kwargs = {**kwargs, "default": defaults[dest]}
            cmd.add_argument(flag, **kwargs)
        cmd.set_defaults(func=handler)
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
