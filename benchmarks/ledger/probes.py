"""Direct probes: costs no workload's trace can show.

Run in one child of their own (``child.py`` with ``mode: probes``):

* ``obs.overhead_ratio`` / ``check.overhead_ratio`` — the paper-scale
  comparison (300 jobs, cluster, four methods) under ``capture_events``
  and under ``api.check_run``, each over the bare run; the three
  variants alternate and the median over the rounds (three) is reported.
* ``index.select_us_10k.shards1`` / ``.shards8`` — 2,000 fixed demands
  against a static 10,000-row availability index.  Demands are drawn
  before the loop and nothing allocates under ``tracemalloc``, the two
  things that made ``BENCH_scale.json`` read low.
"""

from __future__ import annotations

import os
import statistics
import time

SELECTS = 2000


def _overheads(seed: int, jobs: int, rounds: int, work_dir: str) -> dict[str, float]:
    from repro import api
    from workloads import short_jobs_only

    cache = api.PredictorCache()
    scenario = short_jobs_only(
        api.build_scenario(jobs=jobs, testbed="cluster", seed=seed)
    )
    events_path = os.path.join(work_dir, f"probe-{os.getpid()}.jsonl")

    def bare() -> None:
        api.compare(scenario=scenario, seed=seed, predictor_cache=cache)

    def with_obs() -> None:
        with api.capture_events(events_path):
            bare()

    def with_check() -> None:
        api.check_run(scenario=scenario, seed=seed, predictor_cache=cache)

    bare()  # the fit, and every lazy import, before anything is timed
    timings: dict[str, list[float]] = {"bare": [], "obs": [], "check": []}
    for _ in range(rounds):
        for name, variant in (("bare", bare), ("obs", with_obs), ("check", with_check)):
            start = time.perf_counter()
            variant()
            timings[name].append(time.perf_counter() - start)
    os.unlink(events_path)
    base = statistics.median(timings["bare"])
    return {
        "obs.overhead_ratio": statistics.median(timings["obs"]) / base,
        "check.overhead_ratio": statistics.median(timings["check"]) / base,
    }


def _index_select_us(seed: int, n_pms: int, shards: int) -> float:
    import numpy as np

    from layers import resolve

    profile = resolve("repro.cluster.profiles:ClusterProfile").hyperscale(n_pms=n_pms)
    vector = resolve("repro.cluster.resources:ResourceVector")
    _, vms = profile.build()
    index = resolve("repro.cluster.shards:ShardedCandidateIndex").for_vms(
        vms, shards=shards
    )
    index.refresh()
    capacity = profile.vm_capacity
    rng = np.random.default_rng(seed)
    demands = [
        vector(capacity.as_array() * fraction)
        for fraction in rng.uniform(0.05, 0.6, size=(SELECTS, 3))
    ]
    start = time.perf_counter()
    for demand in demands:
        index.select_most_matched(demand, capacity)
    return 1e6 * (time.perf_counter() - start) / SELECTS


def run(cfg: dict) -> dict:
    out: dict[str, float | None] = _overheads(
        cfg["seed"], cfg["compare_jobs"], cfg["rounds"], cfg["work_dir"]
    )
    for shards in (1, 8):
        name = f"index.select_us_10k.shards{shards}"
        try:
            out[name] = _index_select_us(cfg["seed"], cfg["index_pms"], shards)
        except (ImportError, AttributeError):
            out[name] = None
    return out
