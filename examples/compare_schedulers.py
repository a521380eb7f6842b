"""Compare CORP against RCCR, CloudScale and DRA on one shared workload.

Reproduces a single column of the paper's evaluation: every scheme
replays the *same* trace (as Section IV does), and the table reports the
metrics the figures plot — utilization, SLO violation rate, prediction
error rate and allocation latency.

Run with::

    python examples/compare_schedulers.py [n_jobs]
"""

import sys

from repro import api
from repro.experiments.report import format_table


def main(n_jobs: int = 200) -> None:
    scenario = api.build_scenario(jobs=n_jobs, seed=7)
    print(f"running all four methods on {n_jobs} jobs "
          f"({scenario.profile.n_vms} VMs) ...")
    results = api.compare(scenario=scenario)

    rows = []
    for method, result in results.items():
        summary = result.summary()
        riders = sum(1 for job in result.jobs if job.opportunistic)
        rows.append(
            [
                method,
                summary["overall_utilization"],
                summary["slo_violation_rate"],
                summary.get("prediction_error_rate", float("nan")),
                riders,
                summary["allocation_latency_s"],
            ]
        )
    print()
    print(
        format_table(
            ["method", "utilization", "slo_rate", "err_rate", "riders", "latency_s"],
            rows,
            title=f"Scheduler comparison — {n_jobs} short-lived jobs",
        )
    )
    print()
    print("Expected shape (paper Figs. 6-10): CORP highest utilization,")
    print("lowest SLO violation and prediction error; latency near the top.")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 200)
