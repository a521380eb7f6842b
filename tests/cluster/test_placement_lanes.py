"""The placement lanes are a recount of the placement lists, always.

A slot reads every running placement off ``ClusterLanes.placed``
(owner, class, cap, progress, nominal, the usage row), so the columns
must equal what the VMs' placement lists say after any step the kernel
admits: submissions, ticks, crashes and restores, transient failures,
revocation waves, DRA / CloudScale cap rewrites, degraded mode, and a
snapshot resumed from its restore.  Over the same interleavings the
Eq. 20 churn test gated by ``vm.placement_changes`` must agree with the
job-set comparison it skips.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.profiles import ClusterProfile
from repro.core.config import CorpConfig
from repro.core.provisioning import ProvisioningSchedulerBase
from repro.experiments.runner import build_kernel
from repro.experiments.scenarios import cluster_scenario
from repro.faults.plan import (
    FaultPlan,
    JobFailure,
    PredictorOutage,
    RetryPolicy,
    RevocationWave,
    VmCrash,
)

pytestmark = pytest.mark.slow

N_VMS = 6
SCENARIO = cluster_scenario(
    24, seed=5, profile=ClusterProfile.palmetto(n_pms=3, vms_per_pm=2)
)
TINY_CORP = CorpConfig(n_hidden_layers=1, units_per_layer=8, train_max_epochs=2, seed=3)

_SLOTS = st.integers(0, 14)
_VM = st.integers(0, N_VMS - 1)
_EVENTS = st.lists(
    st.one_of(
        st.builds(VmCrash, slot=_SLOTS, vm_index=_VM, downtime_slots=st.integers(1, 8)),
        st.builds(JobFailure, slot=_SLOTS, vm_index=_VM),
        st.builds(PredictorOutage, slot=_SLOTS, duration_slots=st.integers(1, 8)),
        st.builds(
            RevocationWave,
            slot=_SLOTS,
            vm_indices=st.lists(_VM, min_size=1, max_size=3, unique=True).map(tuple),
            downtime_slots=st.integers(1, 8),
        ),
    ),
    max_size=6,
)
#: ("advance", events) | ("submit", jobs) | ("snapshot", 0)
_STEPS = st.lists(
    st.tuples(st.sampled_from(("advance", "advance", "submit", "snapshot")),
              st.integers(1, 12)),
    min_size=1,
    max_size=14,
)


def assert_lanes_recount(sim) -> None:
    """Every placement-lane column against the VMs' placement lists."""
    placed = sim.lanes.placed
    (held,) = np.nonzero(placed.owner >= 0)
    seen = []
    for row, vm in enumerate(sim.vms):
        assert sim.lanes.occupied[row] == len(vm.placements)
        order = []
        for p in vm.placements:
            r, job = p.row, p.job
            seen.append(r)
            assert placed.owner[r] == row
            assert bool(placed.rider[r]) is p.opportunistic
            assert placed.cap[r].tobytes() == p.effective_cap().tobytes()
            assert placed.progress[r] == job.progress
            assert placed.nominal[r] == job.nominal_slots
            assert placed.jobs[r] is job
            position = placed.positions(np.array([r]))[0]
            assert placed.usage[placed.start[r] + position].tobytes() == job.demand().tobytes()
            order.append(placed.seq[r])
        assert order == sorted(order)  # a VM's rows in seq order are its list
    assert sorted(seen) == held.tolist()


def audited_on_slot_end(churns: list[int]):
    """The base ``on_slot_end``, checked against a job-set comparison
    made for every tracked VM on every slot."""
    original = ProvisioningSchedulerBase.on_slot_end

    def audited(self, slot, outcomes):
        expected = {
            vm_id for vm_id, record in self._window.items()
            if vm_id not in outcomes or frozenset(
                p.job.job_id for p in record.vm.placements if not p.opportunistic
            ) != record.jobset
        }
        before = set(self._window)
        original(self, slot, outcomes)
        assert before - set(self._window) == expected
        churns.append(len(expected))

    return audited


@settings(max_examples=20, deadline=None)
@given(
    method=st.sampled_from(("DRA", "CloudScale", "RCCR", "CORP")),
    events=_EVENTS,
    steps=_STEPS,
)
def test_lanes_are_a_recount_of_the_placement_lists(
    predictor_cache, method, events, steps
):
    plan = FaultPlan(events=tuple(events), retry=RetryPolicy(max_retries=2))
    kernel = build_kernel(
        scenario=SCENARIO.with_fault_plan(plan),
        method=method,
        corp_config=TINY_CORP,
        predictor_cache=predictor_cache,
    )
    records = list(SCENARIO.evaluation_trace())
    churns: list[int] = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ProvisioningSchedulerBase, "on_slot_end", audited_on_slot_end(churns))
        for action, n in steps:
            if action == "submit":
                for record in records[:n]:
                    kernel.submit(record)
                del records[:n]
            elif action == "advance":
                for _ in range(n):
                    if kernel.advance() is None:
                        break
            else:
                snapshot = kernel.snapshot()
                assert_lanes_recount(kernel.sim)
                kernel = snapshot.restore()
            assert_lanes_recount(kernel.sim)
        for record in records:
            kernel.submit(record)
        while kernel.advance() is not None:
            assert_lanes_recount(kernel.sim)
    assert not kernel.sim.lanes.occupied.any()
