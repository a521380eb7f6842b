"""Pick an operating point on the utilization/SLO tradeoff (Fig. 8 in use).

A cloud operator chooses how aggressively to reallocate unused capacity
by setting the preemption gate's probability threshold ``P_th`` and the
confidence level ``η`` (Table II).  This example sweeps CORP's
conservatism and prints the resulting (SLO violation, utilization)
frontier so an operator can pick the point matching their SLO budget.

Run with::

    python examples/capacity_planning.py
"""

import dataclasses

from repro import CorpConfig, CorpScheduler, cluster_scenario
from repro.experiments.report import format_table
from repro.experiments.runner import PredictorCache, run_scenario


def main() -> None:
    scenario = cluster_scenario(n_jobs=300, seed=7)
    history = scenario.history_trace()
    cache = PredictorCache()

    rows = []
    # Sweep from very conservative to very aggressive.
    for label, p_th, eta in [
        ("very conservative", 0.99, 0.90),
        ("conservative", 0.95, 0.90),
        ("balanced", 0.85, 0.80),
        ("aggressive", 0.70, 0.65),
        ("very aggressive", 0.50, 0.50),
    ]:
        config = dataclasses.replace(
            CorpConfig(seed=7),
            probability_threshold=p_th,
            confidence_level=eta,
        )
        scheduler = CorpScheduler(config, predictor=cache.get(config, history))
        result = run_scenario(scenario, scheduler)
        summary = result.summary()
        riders = sum(1 for j in result.jobs if j.opportunistic)
        rows.append(
            [
                label,
                p_th,
                eta,
                summary["slo_violation_rate"],
                summary["overall_utilization"],
                riders,
            ]
        )

    print(
        format_table(
            ["operating point", "P_th", "eta", "slo_rate", "utilization", "riders"],
            rows,
            title="CORP capacity-planning frontier (300 jobs, cluster profile)",
        )
    )
    print()
    print("Read the frontier top-down: each step trades SLO risk for")
    print("utilization — the choice the paper's Fig. 8 curves visualize.")


if __name__ == "__main__":
    main()
