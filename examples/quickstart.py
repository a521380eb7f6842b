"""Quickstart: run CORP on a simulated cluster and read the results.

This is the smallest end-to-end use of the public API:

1. build a scenario (cluster profile + synthetic Google-like workload),
2. run the CORP scheduler over it,
3. print the headline metrics of the paper's evaluation.

It is the one example that wires the pieces together by hand —
``ClusterSimulator(profile, scheduler, config).run(trace, history=)`` —
to show what they are.  Everything else (``repro.api``, the CLI, the
other examples) goes through ``run_scenario`` / ``api.run_one``, which
also attach the scenario's fault plan and family metrics; the by-hand
form below would silently ignore both.

Run with::

    python examples/quickstart.py
"""

from repro import ClusterSimulator, CorpScheduler, cluster_scenario


def main() -> None:
    # A modest scenario: 100 short-lived jobs on the cluster profile
    # (Section IV-A's testbed, scaled per Table II).
    scenario = cluster_scenario(n_jobs=100, seed=7)

    scheduler = CorpScheduler()
    simulator = ClusterSimulator(scenario.profile, scheduler, scenario.sim_config)

    # The history trace plays the role of "the historical resource usage
    # data from the Google trace": CORP's DNN and HMM are fitted on it
    # before the evaluation workload replays.
    result = simulator.run(
        scenario.evaluation_trace(), history=scenario.history_trace()
    )

    summary = result.summary()
    riders = sum(1 for job in result.jobs if job.opportunistic)
    print(f"jobs completed        : {result.n_completed}/{result.n_submitted}")
    print(f"opportunistic riders  : {riders}")
    print(f"overall utilization   : {summary['overall_utilization']:.3f}")
    print(f"overall wastage       : {summary['overall_wastage']:.3f}")
    print(f"SLO violation rate    : {summary['slo_violation_rate']:.3f}")
    print(f"prediction error rate : {summary['prediction_error_rate']:.3f}")
    print(f"allocation latency    : {summary['allocation_latency_s']:.2f} s")


if __name__ == "__main__":
    main()
