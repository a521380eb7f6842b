"""Compare two ledger result files: ``compare.py A.json B.json``.

One row per (metric, workload): A's median, B's median, the ratio B/A
(A is the base), the bound, and a verdict —

``ok``          B is no worse than A by more than the bound;
``worse``       it is;
``unresolved``  it is, but either side's own runs spread wider than the
                bound (files written with ``--repeat 4`` or more carry
                the spread) and B's runs are not all worse than A's.

Two files of one seed ran the same inputs, so they are held to ISSUE
11's bounds (``same_seed_bound`` in ``spec.py``): 10% on throughput and
the median tick, 15% on set-up and the tick tail, 5% on memory, nothing
on utilization, and simulated behaviour (``sim_digest``, the ``sim.*``
rows) must be identical.  Files of different seeds are held to the
manifest's wider bounds, which also cover the spread across seeds, and
their per-layer rows get no verdict.  Most per-layer rows never get
one: they say where a change landed.  Exits 1 on any ``worse`` row.
"""

from __future__ import annotations

import json
import statistics
import sys

import spec


def spread(values: list[float]) -> float | None:
    """Interquartile distance over the median, where there are runs for it."""
    if len(values) < 4:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def verdict(better: str, bound: float, a: list[float], b: list[float]) -> str:
    base, new = statistics.median(a), statistics.median(b)
    sign = 1.0 if better == "lower" else -1.0
    if sign * (new - base) / base <= bound:
        return "ok"
    noisy = any((s := spread(v)) is not None and s > bound for v in (a, b))
    all_worse = min(b) > max(a) if better == "lower" else max(b) < min(a)
    return "unresolved" if noisy and not all_worse else "worse"


def compare(a: dict, b: dict) -> int:
    worse = 0
    same_seed = a["seed"] == b["seed"] and a["seconds"] == b["seconds"]
    print(f"A: seed {a['seed']}, calib_s {a['calib_s']:.4f}, {a['machine']['cpu_model']}")
    print(f"B: seed {b['seed']}, calib_s {b['calib_s']:.4f}, {b['machine']['cpu_model']}")
    header = f"{'workload':18s} {'metric':34s} {'A':>12s} {'B':>12s} {'B/A':>7s} {'bound':>6s}  verdict"
    print(header)
    for name in spec.WORKLOAD:
        wa, wb = a["workloads"][name], b["workloads"][name]
        for metric in spec.END_TO_END:
            va = wa["end_to_end"][metric.name]["values"]
            vb = wb["end_to_end"][metric.name]["values"]
            bound = metric.same_seed_bound if same_seed else metric.bound
            word = verdict(metric.better, bound, va, vb)
            worse += word == "worse"
            base, new = statistics.median(va), statistics.median(vb)
            print(
                f"{name:18s} {metric.name:34s} {base:12.6g} {new:12.6g} "
                f"{new / base:7.3f} {bound:6.2f}  {word}"
            )
        if same_seed:
            word = "ok" if wa["sim_digest"] == wb["sim_digest"] else "worse"
            worse += word == "worse"
            print(
                f"{name:18s} {'sim_digest':34s} {wa['sim_digest'][:12]:>12s} "
                f"{wb['sim_digest'][:12]:>12s} {'':7s} {'exact':>6s}  {word}"
            )
        for metric in spec.PER_LAYER:
            la = wa["per_layer"][metric.name]["value"]
            lb = wb["per_layer"][metric.name]["value"]
            if la is None or lb is None:
                print(f"{name:18s} {metric.name:34s} {'unavailable':>12s}")
                continue
            ratio = f"{lb / la:7.3f}" if la else f"{'':7s}"
            bound, word = "-", "-"
            if same_seed and metric.layer == "simulated":
                bound, word = "exact", "ok" if la == lb else "worse"
            elif same_seed and metric.same_seed_bound is not None and la:
                bound = f"{metric.same_seed_bound:.2f}"
                word = verdict(metric.better, metric.same_seed_bound, [la], [lb])
            worse += word == "worse"
            print(
                f"{name:18s} {metric.name:34s} {la:12.6g} {lb:12.6g} {ratio} "
                f"{bound:>6s}  {word}"
            )
    print(f"{worse} row(s) worse")
    return 1 if worse else 0


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    with open(argv[0]) as fa, open(argv[1]) as fb:
        return compare(json.load(fa), json.load(fb))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
