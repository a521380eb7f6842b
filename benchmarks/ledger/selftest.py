"""``run.py --selftest``: the harness checks itself in under 30 s.

* tracer arithmetic on synthetic nested spans with known sleeps;
* a 60-job miniature of every workload through the traced pass —
  ``saturated_queue`` through the untraced pass too (equal digests) —
  so every output check runs for real;
* the emitted metric names against ``spec.py``, ``spec.py`` against the
  committed ``BENCHMARK.json``, and every name against the manifest's
  character set.
"""

from __future__ import annotations

import json
import os
import re
import time
from concurrent.futures import ThreadPoolExecutor
from functools import partial

import run as harness
import spec
from tracer import Tracer

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def check_tracer() -> None:
    tracer = Tracer(keep_raw=frozenset({"outer"}))

    def leaf(seconds: float) -> float:
        time.sleep(seconds)
        return seconds

    inner = tracer.wrap(leaf, "inner", extra=lambda args, result: result)
    renamed = tracer.wrap(leaf, "plain", rename=lambda result: "long" if result > 0.015 else "plain")
    with tracer.span("root"):
        with tracer.span("outer"):
            inner(0.02)
            inner(0.03)
            time.sleep(0.01)
        renamed(0.02)
        renamed(0.005)
        time.sleep(0.01)
    root, outer, leafs = tracer.get("root"), tracer.get("outer"), tracer.get("inner")
    assert leafs.count == 2 and abs(leafs.extra - 0.05) < 1e-12
    assert 0.05 <= leafs.total_s < 0.06, leafs
    # self time = duration minus the part the children cover
    assert abs(outer.self_s - (outer.total_s - leafs.total_s)) < 1e-9
    assert 0.01 <= outer.self_s < 0.02, outer
    assert tracer.get("long").count == 1 and tracer.get("plain").count == 1
    covered = outer.total_s + tracer.get("long").total_s + tracer.get("plain").total_s
    assert abs(root.self_s - (root.total_s - covered)) < 1e-9
    unattributed = root.self_s / root.total_s
    assert 0.08 < unattributed < 0.2, unattributed
    # raw spans: kept only for the requested names, parent = enclosing span id
    (span_id, parent, name, start, end) = tracer.raw[0]
    assert len(tracer.raw) == 1 and name == "outer" and parent == 0 and span_id == 1
    assert abs((end - start) - outer.total_s) < 1e-12
    # an override reaching super() under the same name is one span
    base = tracer.wrap(lambda: 1, "same")
    assert tracer.wrap(lambda: base() + 1, "same")() == 2
    assert tracer.get("same").count == 1
    # "since" subtracts what an earlier mark had already seen
    mark = tracer.mark()
    inner(0.001)
    assert tracer.get("inner", since=mark).count == 1


def check_names() -> None:
    manifest = spec.manifest(harness.COMMAND, harness.PATHS)
    committed = json.loads(harness.MANIFEST.read_text())
    assert committed == manifest, "BENCHMARK.json drifted: run.py --manifest"
    names = [w.name for w in spec.WORKLOADS] + [
        m.name for m in spec.END_TO_END + spec.PER_LAYER
    ]
    assert len(names) == len(set(names)), "a name is used twice"
    for name in names:
        assert NAME.match(name), name
    assert any(m.name == "setup_s" and m.better == "lower" for m in spec.END_TO_END)


def check_miniatures(work_dir: str) -> None:
    untraced_too = "saturated_queue"
    jobs = {"probes": partial(harness.run_probes, 7, work_dir, mini=True)}
    for workload in spec.WORKLOADS:
        mini = partial(
            harness.run_pass, workload, 7, workload.pass_seconds, work_dir, mini=True
        )
        jobs[workload.name, True] = partial(mini, trace=True)
        if workload.name == untraced_too:
            jobs[workload.name, False] = mini
    # Nothing here is a measurement, so the children may share the box:
    # two at a time keeps the selftest under 30 s on two cores.
    with ThreadPoolExecutor(max_workers=min(2, os.cpu_count() or 1)) as pool:
        futures = {key: pool.submit(job) for key, job in jobs.items()}
        done = {key: future.result() for key, future in futures.items()}
    for workload in spec.WORKLOADS:
        traced = done[workload.name, True]
        untraced = done.get((workload.name, False), traced)
        assert "digest_differs_per_seed" in untraced["checks"]
        assert traced["unavailable"] == [], traced["unavailable"]
        failed = harness.failed_checks(untraced, traced)
        assert not failed, (workload.name, failed)
        # the overhead limit is for full-size passes; a 0.2 s miniature is noise
        over = harness.tracer_over_limit(untraced, traced)
        assert "tracer_unattributed_share" not in over, traced["unattributed_share"]
        layer_values = harness.per_layer(untraced, traced, done["probes"])
        assert set(layer_values) == {m.name for m in spec.PER_LAYER}
        assert all(v is not None for v in layer_values.values()), layer_values
        e2e = harness.end_to_end(untraced, [untraced["setup_s"]])
        assert set(e2e) == {m.name for m in spec.END_TO_END}
        assert all(v > 0 for v in e2e.values()), e2e
        print(f"selftest miniature {workload.name}: ok "
              f"({untraced['submitted']} jobs, {untraced['ticks']} ticks)")


def run(work_dir: str) -> int:
    start = time.perf_counter()
    check_tracer()
    print("selftest tracer arithmetic: ok")
    check_names()
    print("selftest names and manifest: ok")
    check_miniatures(work_dir)
    print(f"selftest passed in {time.perf_counter() - start:.1f} s")
    return 0
