"""Most-matched VM selection via unused-resource volume (paper Eq. 22).

Among VMs whose available resources satisfy a job entity's demand, CORP
picks the one with the *smallest* unused-resource volume

.. math:: volume_j = \\sum_k \\hat r_{jk} / C'_k

where ``C'`` is the elementwise maximum capacity across all VMs — the
least-remaining feasible VM, so big holes stay available for big
entities (best-fit in volume space; Fig. 5's worked example).

The functions here are the scalar *reference* semantics and return a
VM; the pool class the schedulers select through,
:class:`~repro.cluster.shards.CandidateSet`, and the
:class:`~repro.cluster.shards.Choice` its selectors return are
re-exported for their callers.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from ..cluster.machine import VirtualMachine
from ..cluster.resources import fits_within
from ..cluster.shards import CandidateSet, Choice, tie_window

__all__ = [
    "unused_volume",
    "min_feasible_volume",
    "select_most_matched",
    "select_random_feasible",
    "tie_window",
    "CandidateSet",
    "Choice",
]

#: A scalar-style candidate list: each VM with its ``(l,)`` availability
#: row (a :class:`CandidateSet` iterates as one).
Candidates = Iterable[tuple[VirtualMachine, np.ndarray]]


def unused_volume(available: np.ndarray, reference: np.ndarray) -> float:
    """Eq. 22: capacity-normalized total of an ``(l,)`` availability row;
    a resource no VM offers contributes zero.

    Python floats, added in order from ``0.0``: the bits of numpy's
    ``normalized.sum()`` over three entries, without its allocations.
    """
    volume = 0.0
    for amount, scale in zip(available.tolist(), reference.tolist()):
        if scale > 0:
            volume += amount / scale
    return volume


def min_feasible_volume(
    demand: np.ndarray, candidates: Candidates, reference: np.ndarray
) -> float | None:
    """Smallest Eq. 22 volume over the feasible candidates (None if none).

    The optimality bound the invariant checker (:mod:`repro.check`)
    holds a :func:`select_most_matched` choice to: whatever VM was
    picked, no feasible candidate may have had a strictly smaller
    volume.
    """
    best: float | None = None
    for _, available in candidates:
        if not fits_within(demand, available):
            continue
        volume = unused_volume(available, reference)
        if best is None or volume < best:
            best = volume
    return best


def select_most_matched(
    demand: np.ndarray, candidates: Candidates, reference: np.ndarray
) -> VirtualMachine | None:
    """Feasible VM with the smallest availability volume, or None.

    ``candidates`` pairs each VM with the availability row relevant to
    the placement class being attempted (predicted unused for
    opportunistic placements, unallocated capacity for primary ones).
    Ties break toward the lower VM id for determinism.

    This per-VM loop is the *reference* semantics: the schedulers' hot
    path runs :meth:`CandidateSet.select_most_matched` instead, and the
    invariant checker's volume/differential rules re-derive choices
    through this function — a corrupted vectorized selector therefore
    cannot hide by also being used as its own oracle.
    """
    best_vm: VirtualMachine | None = None
    best_volume = np.inf
    for vm, available in candidates:
        if not fits_within(demand, available):
            continue
        volume = unused_volume(available, reference)
        if best_vm is None:
            best_volume = volume
            best_vm = vm
            continue
        tol = tie_window(best_volume)
        if volume < best_volume - tol or (
            abs(volume - best_volume) <= tol and vm.vm_id < best_vm.vm_id
        ):
            best_volume = volume
            best_vm = vm
    return best_vm


def select_random_feasible(
    demand: np.ndarray, candidates: Candidates, rng: np.random.Generator
) -> VirtualMachine | None:
    """Uniformly random feasible VM — the baselines' placement rule.

    Section IV: RCCR, CloudScale and DRA all "randomly chose a VM that
    can satisfy the resource demands of the job".
    """
    feasible = [vm for vm, available in candidates if fits_within(demand, available)]
    if not feasible:
        return None
    return feasible[int(rng.integers(len(feasible)))]
