"""Extending the framework: write your own provisioning scheduler.

:class:`~repro.core.provisioning.ProvisioningSchedulerBase` factors the
per-window rhythm (forecast → adjust → place → score) out of CORP and
the baselines; a new scheme only supplies its forecast and policies.

The example implements *OracleScheduler* — a cheating scheduler that
reads each job's true future demand from the trace — and uses it as an
upper bound to show how much headroom CORP leaves on the table.

Run with::

    python examples/custom_scheduler.py
"""

from typing import Iterable, Sequence

import numpy as np

from repro import CorpScheduler, cluster_scenario
from repro.cluster.machine import VirtualMachine
from repro.cluster.resources import NUM_RESOURCES
from repro.core.packing import JobEntity
from repro.core.provisioning import ProvisioningSchedulerBase
from repro.core.vm_selection import CandidateSet, Choice
from repro.experiments.report import format_table
from repro.experiments.runner import PredictorCache, run_scenario
from repro.core.config import CorpConfig


class OracleScheduler(ProvisioningSchedulerBase):
    """Forecasts each VM's unused resources from the *true* future demand.

    Real systems cannot do this — the oracle bounds what any prediction
    pipeline could achieve on this workload.  Its placement policies
    mirror CORP's (most-matched VM, expected-demand rider admission) so
    the comparison isolates prediction quality.
    """

    name = "Oracle"
    supports_opportunistic = True

    def predict_vms_unused(self, vms: Sequence[VirtualMachine]) -> list[np.ndarray]:
        # One (l,) row per VM, asked once per window for every occupied VM.
        return [self._true_unused(vm) for vm in vms]

    def _true_unused(self, vm: VirtualMachine) -> np.ndarray:
        total = np.zeros(NUM_RESOURCES)
        horizon = self.window_slots
        for placement in vm.placements:
            if placement.opportunistic:
                continue
            job = placement.job
            record = job.record
            # True demand over the coming window, read straight from the
            # trace (starting at the job's current progress position).
            start = min(int(job.progress), record.n_samples - 1)
            window = record.usage[start : start + horizon]
            future_demand = window.mean(axis=0)
            total += np.maximum(job.requested - future_demand, 0.0)
        return total

    def opportunistic_allowed(self) -> bool:
        return True  # an oracle needs no certification gate

    def opportunistic_admission_sizes(
        self, entities: Iterable[JobEntity], demands: np.ndarray
    ) -> np.ndarray:
        # True mean demand of each member job — perfect rider sizing —
        # capped at the entity's request: one row per row of ``demands``.
        sizes = [
            np.minimum(sum(job.record.usage.mean(axis=0) for job in entity.jobs), demand)
            for entity, demand in zip(entities, demands)
        ]
        return np.array(sizes).reshape(-1, NUM_RESOURCES)

    def choose_vm(self, demand: np.ndarray, candidates: CandidateSet) -> Choice | None:
        # ``demand`` is a read-only (l,) row.  Only the pool can name the
        # chosen VM's row, so the choice comes from one of its selectors.
        return candidates.select_most_matched(demand, self.sim.max_vm_capacity())


def main() -> None:
    scenario = cluster_scenario(n_jobs=300, seed=7)
    cache = PredictorCache()

    rows = []
    config = CorpConfig(seed=7)
    for scheduler in (
        CorpScheduler(
            config, predictor=cache.get(config, scenario.history_trace())
        ),
        OracleScheduler(),
    ):
        # run_scenario assembles the scenario's cluster, SLO and fault
        # plan around any scheduler, a hand-written one included.
        result = run_scenario(scenario, scheduler)
        summary = result.summary()
        riders = sum(1 for j in result.jobs if j.opportunistic)
        rows.append(
            [
                scheduler.name,
                summary["overall_utilization"],
                summary["slo_violation_rate"],
                riders,
            ]
        )

    print(
        format_table(
            ["scheduler", "utilization", "slo_rate", "riders"],
            rows,
            title="CORP vs a future-knowing oracle (300 jobs)",
        )
    )
    print()
    print("The oracle bounds what better *prediction* could add on top of")
    print("CORP's placement policies on this workload.")


if __name__ == "__main__":
    main()
