"""One benchmark child: a fresh interpreter that sets up and measures.

``run.py`` starts this file once per pass with a JSON config as its only
argument and reads one JSON object from the last line of its standard
output.  Set-up time is counted from the parent's spawn stamp
(``CLOCK_MONOTONIC`` is system-wide on Linux), so interpreter start and
``import repro`` are inside it.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def percentile(ordered: list[float], q: float) -> float:
    """Nearest-rank percentile of an already sorted, non-empty list."""
    return ordered[min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))]


def _weighted(pairs: list[tuple[float, int]]) -> float:
    total = sum(n for _, n in pairs)
    return sum(v * n for v, n in pairs) / total if total else 0.0


def _round10(value: float) -> float:
    return float(f"{value:.10g}")


def _placements_made(result) -> int:
    """Placement decisions the run made, derived from its jobs alone.

    Every placement ends in a completion (``start_slot`` stays set), an
    eviction or a transient failure, so this is independent of what the
    ``placements()`` stream delivered.
    """
    return sum(
        j.evictions + j.retries + (j.start_slot is not None) for j in result.jobs
    )


def _waits(runs: list) -> list[int]:
    """Queue wait in slots of every CORP job that started."""
    return sorted(
        j.start_slot - j.submit_slot
        for r in runs if r.method == "CORP"
        for j in r.result.jobs if j.start_slot is not None
    )


def _digest(one_pass) -> str:
    """sha256 of a pass's simulated behaviour: counts, waits and every
    summary value except the wall-clock one, at 10 significant digits."""
    digest = hashlib.sha256()
    for r in one_pass.runs:
        res = r.result
        row = {
            k: _round10(v) for k, v in res.summary().items()
            if k != "allocation_latency_s"
        }
        digest.update(
            json.dumps(
                [r.label, r.method, res.n_submitted, res.n_completed,
                 res.n_rejected, res.n_failed, res.n_slots, row],
                sort_keys=True,
            ).encode()
        )
    digest.update(json.dumps(_waits(one_pass.runs)).encode())
    return digest.hexdigest()


def summarise(passes: list, walls: list[float]) -> dict:
    """Fold the timed passes of one child into numbers and checks."""
    runs = [run for p in passes for run in p.runs]
    corp = [r for r in runs if r.method == "CORP"]
    dra = [r for r in runs if r.method == "DRA"]
    summaries = [(r, r.result.summary()) for r in runs]
    submitted = sum(r.result.n_submitted for r in runs)
    completed = sum(r.result.n_completed for r in runs)
    wall = sum(walls)
    # Tick percentiles are over the CORP runs, as the waits and the
    # utilization are: a DRA tick does no packing and would pull the
    # median of saturated_queue onto the bypass.
    ticks = sorted(t for r in corp for t in r.tick_s)
    slots = sum(r.result.n_slots for r in runs)
    waits = _waits(runs)

    def over(method: str, key: str) -> float:
        return _weighted(
            [(s[key], r.result.n_submitted) for r, s in summaries if r.method == method]
        )

    errors = [
        (r.result.prediction_error_rate, r.result.n_submitted)
        for r in corp if r.result.prediction_error_rate is not None
    ]
    resilience = [r.result.resilience for r in runs if r.result.resilience]
    snapshots = [s for p in passes for s in p.snapshot_s]
    pass_digests = [_digest(p) for p in passes]
    streamed = [r for r in runs if r.streamed is not None]
    checks = {
        # every job accounted for and no run cut short at max_slots
        "all_jobs_accounted": all(
            r.result.all_done and not r.result.truncated
            and r.result.n_submitted == r.expected
            for r in runs
        ),
        "streamed_equals_placed": all(
            r.streamed == _placements_made(r.result) for r in streamed
        ),
    }
    if corp and dra:
        checks["corp_utilization_beats_dra"] = (
            over("CORP", "overall_utilization") > over("DRA", "overall_utilization")
        )
    return {
        "wall_s": wall,
        "submitted": submitted,
        "completed": completed,
        "jobs_per_s": completed / wall,
        "ticks": len(ticks),
        "slots": slots,
        # paper_sweep runs through api.sweep, which exposes no tick
        # boundary: no samples, and both percentiles read 0.
        "tick_p50_ms": 1e3 * percentile(ticks, 0.50) if ticks else 0.0,
        "tick_p90_ms": 1e3 * percentile(ticks, 0.90) if ticks else 0.0,
        "utilization": over("CORP", "overall_utilization"),
        "slo_violation_rate": over("CORP", "slo_violation_rate"),
        "wait_p50_slots": percentile(waits, 0.50) if waits else 0,
        "wait_p99_slots": percentile(waits, 0.99) if waits else 0,
        "failed_share": (submitted - completed) / submitted,
        "prediction_error_rate": _weighted(errors),
        # Known defect (c): allocation_latency_s adds a modelled RTT per
        # remote operation to the measured compute time.
        "decision_s": sum(r.result.allocation_latency_s for r in runs),
        "evictions": sum(x["evictions"] for x in resilience),
        "retries": sum(x["retries"] for x in resilience),
        "snapshot_calls": len(snapshots),
        "snapshot_mean_s": sum(snapshots) / len(snapshots) if snapshots else 0.0,
        "streamed": sum(r.streamed for r in streamed),
        "sink_bytes": sum(p.sink_bytes for p in passes),
        "pass_digests": pass_digests,
        "sim_digest": hashlib.sha256("".join(pass_digests).encode()).hexdigest(),
        "checks": checks,
    }


def digest_follows_seed(ctx, cfg: dict) -> bool:
    """Two miniature passes on neighbouring trace seeds must not share a
    digest.  The timed passes of a run cannot show this themselves: most
    workloads run one, and a digest is only comparable at equal sizes."""
    import workloads

    setup, measure = workloads.SETUP[cfg["workload"]], workloads.MEASURE[cfg["workload"]]
    first = cfg["trace_seeds"][0]
    digests = {
        _digest(measure(setup(ctx, trace_seed, cfg["mini_size"])))
        for trace_seed in (first, first + 1)
    }
    return len(digests) == 2


def run_workload(cfg: dict) -> dict:
    from tracer import Tracer, null_span

    tracer = None
    span = null_span
    if cfg["trace"]:
        import layers

        tracer = Tracer(layers.KEEP_RAW)
        span = tracer.span
    with span("setup"):
        import repro
        import workloads

        if Path(repro.__file__).resolve().parents[1] != ROOT / "src":
            raise SystemExit(
                f"imported repro from {repro.__file__}, not from {ROOT / 'src'}"
            )
        unavailable = layers.install(tracer) if tracer is not None else []
        ctx = workloads.prepare(cfg["workload"], cfg["seed"], cfg["work_dir"], span)
        states = [
            workloads.SETUP[cfg["workload"]](ctx, trace_seed, cfg["size"])
            for trace_seed in cfg["trace_seeds"]
        ]
    if cfg["setup_only"]:
        return {"setup_s": time.monotonic() - cfg["t_spawn"]}
    at_timed_start = tracer.mark() if tracer is not None else {}
    passes, walls = [], []
    setup_s = None
    for state in states:
        gc.collect()
        start = time.monotonic()
        if setup_s is None:
            setup_s = start - cfg["t_spawn"]
        with span("measure"):
            passes.append(workloads.MEASURE[cfg["workload"]](state))
        walls.append(time.monotonic() - start)
    out = summarise(passes, walls)
    out["setup_s"] = setup_s
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        measure = tracer.get("measure")
        out["unavailable"] = unavailable
        out["layers"] = layers.trace_metrics(tracer, at_timed_start, unavailable)
        out["unattributed_share"] = measure.self_s / measure.total_s
        out["spans"] = {
            name: [agg.count, agg.total_s, agg.self_s, agg.extra]
            for name, agg in sorted(tracer.aggregates.items())
        }
        if cfg["raw_spans"]:
            out["raw_spans"] = list(tracer.raw)
    out["checks"]["digest_differs_per_seed"] = digest_follows_seed(ctx, cfg)
    return out


def main() -> None:
    cfg = json.loads(sys.argv[1])
    if cfg["mode"] == "probes":
        import probes

        out = probes.run(cfg)
    else:
        out = run_workload(cfg)
    sys.stdout.flush()
    print(json.dumps(out))


if __name__ == "__main__":
    main()
