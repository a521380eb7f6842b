"""The performance ledger: one harness for every speed number.

Two ways in:

``run.py --workload W --seed N --seconds S --trace 0|1``
    One workload, one pass kind; the last line of standard output is the
    result object ``BENCHMARK.json`` describes (end-to-end metrics with
    ``--trace 0``, per-layer metrics with ``--trace 1``).

``run.py --seed N --out PATH``
    The whole ledger: every workload untraced and traced, the probes,
    the cross-pass checks, a machine fingerprint; prints every metric
    and writes ``PATH`` for ``compare.py``.

Every pass runs in a fresh child interpreter (``child.py``) with BLAS
and OpenMP pinned to one thread, one child at a time.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import asdict
from pathlib import Path

import spec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
MANIFEST = ROOT / "BENCHMARK.json"
COMMAND = ["python3", "benchmarks/ledger/run.py"]
PATHS = ["benchmarks/ledger"]

#: Fresh children whose set-up time is the sample behind ``setup_s``.
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 170
INVOCATION_LIMIT_S = 175
SINGLE_THREAD = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
    )
}


class BenchmarkError(RuntimeError):
    """A child failed or an output check did not hold."""


def child_env() -> dict[str, str]:
    return {**os.environ, **SINGLE_THREAD, "PYTHONPATH": str(ROOT / "src")}


def spawn(cfg: dict) -> dict:
    """Run one child to completion and return the object it printed."""
    cfg = {**cfg, "t_spawn": time.monotonic()}
    done = subprocess.run(
        [sys.executable, str(HERE / "child.py"), json.dumps(cfg)],
        env=child_env(), cwd=ROOT, stdout=subprocess.PIPE, text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if done.returncode != 0:
        raise BenchmarkError(f"child exited with code {done.returncode}: {cfg}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_pass(
    workload: spec.Workload, seed: int, seconds: float, work_dir: str, *,
    trace: bool = False, mini: bool = False, setup_only: bool = False,
    raw_spans: bool = False,
) -> dict:
    return spawn(
        {
            "mode": "workload",
            "workload": workload.name,
            "seed": spec.BASE_SEED,
            "trace_seeds": spec.pass_seeds(seed, spec.passes_for(workload, seconds)),
            "size": workload.mini if mini else workload.size,
            "mini_size": workload.mini,
            "trace": trace,
            "setup_only": setup_only,
            "raw_spans": raw_spans,
            "work_dir": work_dir,
        }
    )


def import_repro_s(samples_wanted: int) -> float:
    """Median wall-clock of a fresh ``python -c "import repro"``."""
    samples = []
    for _ in range(samples_wanted):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import repro"], env=child_env(), cwd=ROOT,
            check=True, timeout=CHILD_TIMEOUT_S,
        )
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def run_probes(seed: int, work_dir: str, *, mini: bool = False) -> dict:
    """The probes at full size: 300-job comparison, three alternating
    rounds, a 10,000-row index, three fresh imports."""
    out = spawn(
        {
            "mode": "probes", "seed": seed, "work_dir": work_dir,
            "compare_jobs": 40 if mini else 300,
            "rounds": 1 if mini else 3,
            "index_pms": 25 if mini else 1250,
        }
    )
    out["import.repro_s"] = import_repro_s(1 if mini else 3)
    return out


# ----------------------------------------------------------------------
# metric assembly and checks
# ----------------------------------------------------------------------


def end_to_end(measured: dict, setup_samples: list[float]) -> dict[str, float]:
    values = {m.name: measured[m.name] for m in spec.END_TO_END if m.name != "setup_s"}
    values["setup_s"] = statistics.median(setup_samples)
    return values


def run_untraced(
    workload: spec.Workload, seed: int, seconds: float, work_dir: str
) -> tuple[dict, dict[str, float]]:
    """One end-to-end run: the measuring child, then the children that
    stop after set-up; returns the child's output and the metric values."""
    measured = run_pass(workload, seed, seconds, work_dir)
    setups = [measured["setup_s"]] + [
        run_pass(workload, seed, seconds, work_dir, setup_only=True)["setup_s"]
        for _ in range(SETUP_SAMPLES - 1)
    ]
    return measured, end_to_end(measured, setups)


def per_layer(untraced: dict, traced: dict, probes: dict) -> dict[str, float | None]:
    values: dict[str, float | None] = dict(traced["layers"])
    values.update(probes)
    values.update(
        {
            "forecast.prediction_error_rate": traced["prediction_error_rate"],
            "sched.decision_s": traced["decision_s"],
            "kernel.slots_per_s": untraced["slots"] / untraced["wall_s"],
            "kernel.tick_p50_ms": untraced["tick_p50_ms"],
            "kernel.tick_p90_ms": untraced["tick_p90_ms"],
            "faults.evictions": traced["evictions"],
            "faults.retries": traced["retries"],
            "obs.sink_bytes": traced["sink_bytes"],
            "tracer.overhead_ratio": traced["wall_s"] / untraced["wall_s"],
            "tracer.unattributed_share": traced["unattributed_share"],
            "sim.wait_p50_slots": traced["wait_p50_slots"],
            "sim.wait_p99_slots": traced["wait_p99_slots"],
            "sim.slo_violation_rate": traced["slo_violation_rate"],
            "sim.failed_share": traced["failed_share"],
        }
    )
    return {m.name: values[m.name] for m in spec.PER_LAYER}


def failed_checks(untraced: dict, traced: dict | None = None) -> list[str]:
    """Names of the output checks that did not hold."""
    failed = [name for name, ok in untraced["checks"].items() if not ok]
    if traced is not None:
        failed += [f"traced:{name}" for name, ok in traced["checks"].items() if not ok]
        # tracing must not perturb simulated behaviour
        if traced["sim_digest"] != untraced["sim_digest"]:
            failed.append("traced_digest_equals_untraced")
    return failed


def tracer_over_limit(untraced: dict, traced: dict) -> list[str]:
    """The limits the traced pass itself must meet.

    Kept apart from the output checks: they say whether the per-layer
    numbers can be trusted, not whether the program computed the right
    thing, and the overhead ratio compares two wall-clocks taken minutes
    apart on a noisy box.  The ledger form fails on them; the one-line
    result object's ``correct`` does not.
    """
    over = []
    if traced["unattributed_share"] > spec.MAX_UNATTRIBUTED:
        over.append("tracer_unattributed_share")
    if traced["wall_s"] / untraced["wall_s"] > spec.MAX_TRACER_OVERHEAD:
        over.append("tracer_overhead_ratio")
    return over


UNITS = {m.name: m.unit for m in spec.END_TO_END + spec.PER_LAYER}


def print_metrics(workload: str, values: dict) -> None:
    for name, value in values.items():
        shown = "null" if value is None else f"{value:.6g}"
        print(f"{workload:18s} {name:34s} {shown:>12s} {UNITS[name]}")


def print_samples(workload: str, untraced: dict, runs: int = 1) -> None:
    print(
        f"{workload:18s} samples: {untraced['ticks']} ticks, "
        f"{untraced['submitted']} jobs, {len(untraced['pass_digests'])} pass(es) "
        f"per run, {runs} run(s), {SETUP_SAMPLES} set-ups per run"
    )


# ----------------------------------------------------------------------
# entry points
# ----------------------------------------------------------------------


def _out_of_time(signum: int, frame: object) -> None:
    raise BenchmarkError(f"no result within {INVOCATION_LIMIT_S} s")


def contract_run(args: argparse.Namespace, work_dir: str) -> int:
    # One invocation must end within 180 s.  The alarm raises inside
    # subprocess.run, which kills the child it was waiting for.
    signal.signal(signal.SIGALRM, _out_of_time)
    signal.alarm(INVOCATION_LIMIT_S)
    workload = spec.WORKLOAD[args.workload]
    if args.trace:
        untraced = run_pass(workload, args.seed, args.seconds, work_dir)
        traced = run_pass(workload, args.seed, args.seconds, work_dir, trace=True)
        values = per_layer(untraced, traced, run_probes(args.seed, work_dir))
        failed = failed_checks(untraced, traced)
        # The result object must carry every per-layer metric as a number,
        # and a layer whose entry point moved has none.  Its metrics are
        # left out and the run is not correct: a 0 would read as a perfect
        # gain on every lower-is-better row.  (The ledger form writes null
        # and lists the layer under "unavailable" instead.)
        failed += [f"layer_unavailable:{span}" for span in traced["unavailable"]]
        if over := tracer_over_limit(untraced, traced):
            print("traced pass over its limits:", over)
    else:
        untraced, values = run_untraced(workload, args.seed, args.seconds, work_dir)
        failed = failed_checks(untraced)
    print_samples(workload.name, untraced)
    print_metrics(workload.name, values)
    print("sim_digest", untraced["sim_digest"])
    if failed:
        print("FAILED checks:", failed)
    print(
        json.dumps(
            {
                "correct": not failed,
                "attempted": untraced["submitted"],
                "failed": untraced["submitted"] - untraced["completed"],
                "metrics": {
                    name: {"value": value, "unit": UNITS[name]}
                    for name, value in values.items() if value is not None
                },
            }
        )
    )
    return 1 if failed else 0


def calibrate() -> float:
    """A fixed pure-Python + NumPy loop; median of 3, for normalising
    numbers taken on different machines."""
    import numpy as np

    samples = []
    for _ in range(3):
        start = time.perf_counter()
        acc = 0.0
        for i in range(2_000_000):
            acc += (i % 7) * 0.5
        a = np.linspace(0.0, 1.0, 256 * 256).reshape(256, 256)
        for _ in range(100):
            a = a @ a
            a /= np.abs(a).max()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def machine() -> dict:
    import numpy as np

    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model or platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "loadavg_at_start": list(os.getloadavg()),
    }


def ledger_run(args: argparse.Namespace, work_dir: str) -> int:
    report: dict = {
        "schema": 1,
        "seed": args.seed,
        "seconds": args.seconds,
        "machine": machine(),
        "calib_s": calibrate(),
        "loop": spec.LOOP,
        "workloads": {},
    }
    print(f"machine {report['machine']}  calib_s {report['calib_s']:.4f}")
    probes = run_probes(args.seed, work_dir)
    all_failed: list[str] = []
    raw_spans: dict[str, list] = {}
    for name, workload in spec.WORKLOAD.items():
        runs, e2e = zip(
            *(
                run_untraced(workload, args.seed, args.seconds, work_dir)
                for _ in range(args.repeat)
            )
        )
        traced = run_pass(
            workload, args.seed, args.seconds, work_dir, trace=True, raw_spans=True
        )
        untraced = runs[0]
        layer_values = per_layer(untraced, traced, probes)
        failed = failed_checks(untraced, traced) + tracer_over_limit(untraced, traced)
        if any(r["sim_digest"] != untraced["sim_digest"] for r in runs):
            failed.append("digest_repeats_for_a_seed")
        all_failed += [f"{name}:{check}" for check in failed]
        print_samples(name, untraced, len(runs))
        print_metrics(name, {k: statistics.median(v[k] for v in e2e) for k in e2e[0]})
        print_metrics(name, layer_values)
        print(f"{name:18s} sim_digest {untraced['sim_digest']}")
        if failed:
            print(f"{name:18s} FAILED checks: {failed}")
        report["workloads"][name] = {
            "why": workload.why,
            "size": workload.size,
            "passes": len(untraced["pass_digests"]),
            "ticks": untraced["ticks"],
            "jobs": untraced["submitted"],
            "end_to_end": {
                m.name: {**asdict(m), "values": [v[m.name] for v in e2e]}
                for m in spec.END_TO_END
            },
            "per_layer": {
                m.name: {**asdict(m), "value": layer_values[m.name]}
                for m in spec.PER_LAYER
            },
            "unavailable": traced["unavailable"],
            "sim_digest": untraced["sim_digest"],
            "failed_checks": failed,
            "span_aggregates": traced["spans"],
        }
        raw_spans[name] = traced["raw_spans"]
    report["claim"] = None
    if args.out:
        out = Path(args.out)
        out.write_text(json.dumps(report, indent=1) + "\n")
        # (id, parent id, name, start, end) of every tick and above
        spans = out.with_suffix(".spans.json")
        spans.write_text(json.dumps(raw_spans) + "\n")
        print("wrote", out, "and", spans)
    if all_failed:
        print("FAILED:", all_failed)
    return 1 if all_failed else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(spec.WORKLOAD))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=float(spec.RUN_SECONDS))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="ledger mode: write the result file here")
    parser.add_argument("--repeat", type=int, default=1,
                        help="ledger mode: untraced runs per workload")
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--manifest", action="store_true",
                        help="write BENCHMARK.json from spec.py and exit")
    args = parser.parse_args(argv)
    if args.manifest:
        MANIFEST.write_text(json.dumps(spec.manifest(COMMAND, PATHS), indent=2) + "\n")
        return 0
    # Scratch files (the JSONL sinks) stay inside the checkout, next to
    # the harness: the driver allows no write outside it, so not /tmp.
    work_dir = tempfile.mkdtemp(prefix=".work-", dir=HERE)
    try:
        if args.selftest:
            import selftest

            return selftest.run(work_dir)
        if args.workload:
            return contract_run(args, work_dir)
        return ledger_run(args, work_dir)
    except (BenchmarkError, subprocess.TimeoutExpired) as error:
        print("benchmark failed:", error, file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    os.environ.update(SINGLE_THREAD)
    sys.exit(main())
