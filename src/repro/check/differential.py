"""Reference-vs-vectorized differential execution: the slot-execution oracle.

:func:`reference_outcome` is the one scalar reference for the slot
semantics of Section III (primaries served out of their reservation,
opportunists sharing what is left).  The batched
:func:`~repro.cluster.machine.execute_slots` is
property-tested against it on randomized placements
(``tests/cluster/test_execute_slot_property.py``), and the same function
is a runtime tool: snapshot a VM just before it executes a slot,
re-derive the slot from the snapshot without mutating anything, and diff
the aggregates and per-job execution rates against what the vectorized
path produced.

Enabled via the ``differential`` rule of
:class:`~repro.check.rules.InvariantChecker` (``repro check
--differential``); it re-executes every slot of every VM, so it is
opt-in rather than part of the default rule set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from ..cluster.machine import SlotOutcome, VirtualMachine

__all__ = [
    "SlotSnapshot",
    "ReferenceOutcome",
    "capture_snapshot",
    "reference_outcome",
    "diff_outcome",
]

#: Absolute tolerance for vectorized-vs-reference float comparisons;
#: the two paths reorder the same additions, so disagreement beyond
#: accumulated rounding noise indicates a semantic divergence.
DIFF_ATOL = 1e-9


@dataclass(frozen=True)
class SlotSnapshot:
    """A VM's execution inputs, captured just before its slot executes."""

    vm_id: int
    capacity: np.ndarray       # effective (revocation-aware) capacity
    committed: np.ndarray      # commitment total at snapshot time
    demands: np.ndarray        # (n_placements, l) current job demands
    caps: np.ndarray           # (n_placements, l) effective grant ceilings
    opportunistic: np.ndarray  # (n_placements,) placement class flags
    job_ids: tuple[int, ...]


@dataclass(frozen=True)
class ReferenceOutcome:
    """What the per-placement reference semantics produce for one slot."""

    primary_demand: np.ndarray
    opportunistic_demand: np.ndarray
    served_demand: np.ndarray
    unused: np.ndarray
    rates: np.ndarray  # (n_placements,) execution rates, snapshot order


def capture_snapshot(vm: "VirtualMachine") -> SlotSnapshot:
    """Copy everything a slot will read (demands, caps, capacity)."""
    placements = vm.placements
    committed = vm.committed()
    return SlotSnapshot(
        vm_id=vm.vm_id,
        capacity=vm.capacity,
        committed=committed,
        demands=np.array([p.job.demand() for p in placements]).reshape(-1, len(committed)),
        caps=np.array([p.effective_cap() for p in placements]).reshape(-1, len(committed)),
        opportunistic=np.array([p.opportunistic for p in placements], dtype=bool),
        job_ids=tuple(p.job.job_id for p in placements),
    )


def reference_outcome(snapshot: SlotSnapshot) -> ReferenceOutcome:
    """The per-placement reference semantics of one slot, side-effect free.

    Placement-by-placement grant arithmetic (primaries first, each
    capped at ``min(demand, cap)``, scaled back if they collectively
    exceed capacity; opportunists share the remainder proportionally),
    computed from the snapshot without touching any job or VM state.
    """
    cap_arr = snapshot.capacity
    n = len(snapshot.job_ids)
    n_resources = cap_arr.shape[0]
    grants: list[np.ndarray] = [np.zeros(n_resources) for _ in range(n)]

    # --- primaries ---------------------------------------------------
    primary_demand = np.zeros(n_resources)
    primary_granted = np.zeros(n_resources)
    for i in range(n):
        if snapshot.opportunistic[i]:
            continue
        d = snapshot.demands[i]
        g = np.minimum(d, snapshot.caps[i])
        primary_demand = primary_demand + d
        grants[i] = g
        primary_granted = primary_granted + g
    over = primary_granted > cap_arr + 1e-9
    if over.any():
        scale = np.ones(n_resources)
        scale[over] = cap_arr[over] / primary_granted[over]
        for i in range(n):
            if not snapshot.opportunistic[i]:
                grants[i] = grants[i] * scale
        primary_granted = np.minimum(primary_granted, cap_arr)

    # --- opportunists -------------------------------------------------
    remaining = np.maximum(cap_arr - primary_granted, 0.0)
    opp_demand = np.zeros(n_resources)
    for i in range(n):
        if snapshot.opportunistic[i]:
            opp_demand = opp_demand + snapshot.demands[i]
    if snapshot.opportunistic.any():
        scale = np.ones(n_resources)
        tight = opp_demand > remaining + 1e-12
        scale[tight] = np.where(
            opp_demand[tight] > 0, remaining[tight] / opp_demand[tight], 0.0
        )
        for i in range(n):
            if snapshot.opportunistic[i]:
                grants[i] = np.minimum(snapshot.demands[i] * scale,
                                       snapshot.caps[i])

    # --- rates / aggregates ------------------------------------------
    served = np.zeros(n_resources)
    rates = np.empty(n)
    for i in range(n):
        d = snapshot.demands[i]
        g = grants[i]
        served = served + np.minimum(g, d)
        needed = d > 1e-12
        if not needed.any():
            rates[i] = 1.0
        else:
            rates[i] = float(np.clip((g[needed] / d[needed]).min(), 0.0, 1.0))

    unused = np.maximum(snapshot.committed - primary_demand, 0.0)
    return ReferenceOutcome(
        primary_demand=primary_demand,
        opportunistic_demand=opp_demand,
        served_demand=served,
        unused=unused,
        rates=rates,
    )


def diff_outcome(
    snapshot: SlotSnapshot,
    outcome: "SlotOutcome",
    vm: "VirtualMachine",
    *,
    atol: float = DIFF_ATOL,
) -> list[str]:
    """Human-readable divergences between reference and vectorized paths."""
    details: list[str] = []
    if tuple(p.job.job_id for p in vm.placements) != snapshot.job_ids:
        # a slot never edits the placement list; a mismatch means
        # the snapshot and outcome describe different states.
        return [
            f"placement list changed during execution on VM {snapshot.vm_id}"
        ]
    ref = reference_outcome(snapshot)
    pairs = (
        ("primary_demand", outcome.primary_demand, ref.primary_demand),
        ("opportunistic_demand", outcome.opportunistic_demand,
         ref.opportunistic_demand),
        ("served_demand", outcome.served_demand, ref.served_demand),
        ("unused", outcome.unused, ref.unused),
    )
    for name, got, want in pairs:
        if not np.allclose(got, want, atol=atol, rtol=atol):
            details.append(
                f"{name}: vectorized {got.tolist()} != reference "
                f"{np.asarray(want).tolist()}"
            )
    for i, p in enumerate(vm.placements):
        if not p.job.rate_history:  # pragma: no cover - advance records one
            details.append(f"job {p.job.job_id}: no rate recorded")
            continue
        got_rate = p.job.rate_history[-1]
        if abs(got_rate - ref.rates[i]) > atol:
            details.append(
                f"job {p.job.job_id}: vectorized rate {got_rate:.12f} != "
                f"reference {ref.rates[i]:.12f}"
            )
    return details
