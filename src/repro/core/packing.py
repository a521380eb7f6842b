"""Complementary job packing (paper Section III-B, Fig. 4/5).

CORP pairs jobs whose *dominant resources* differ, choosing for each job
the partner with the largest demand deviation

.. math::

    DV(j, i) = \\sum_k \\Big( (d_{jk} - \\mu_k)^2 + (d_{ik} - \\mu_k)^2 \\Big),
    \\qquad \\mu_k = \\tfrac{d_{jk} + d_{ik}}{2}

(algebraically ``Σ_k (d_jk − d_ik)² / 2``): the more complementary two
jobs' demands, the larger the deviation.  Packed pairs are placed as one
entity on one VM, cutting fragmentation (Fig. 1's motivating example).

Demands are ``(l,)`` rows, normalized by a per-resource reference
capacity row before comparison by default — raw units would let the
storage axis (hundreds of GB) drown out CPU cores in both the
dominant-resource test and the deviation.  ``reference=None`` recovers the paper's literal raw-unit
arithmetic (used by the worked-example test of Fig. 5).

:func:`pack_jobs` is the matrix form of the pair scan — under overload
the queue is hundreds deep and a Python call per pair is quadratic in
it.  The per-pair transcription on :func:`deviation` and
:func:`dominant_resource` is the oracle, in ``tests/core/test_packing.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..cluster.job import Job
from ..cluster.resources import NUM_RESOURCES, ResourceKind, as_row

__all__ = [
    "JobEntity",
    "deviation",
    "dominant_resource",
    "pack_jobs",
    "singleton_entities",
]


@dataclass(frozen=True)
class JobEntity:
    """One schedulable unit: a packed pair or a singleton job."""

    jobs: tuple[Job, ...]

    def __post_init__(self) -> None:
        if not 1 <= len(self.jobs) <= 2:
            raise ValueError("an entity holds one or two jobs")
        if len(self.jobs) == 2 and self.jobs[0].job_id == self.jobs[1].job_id:
            # A job packed with itself would double-count its demand in
            # every feasibility check downstream.
            raise ValueError("a packed pair must hold two distinct jobs")

    @property
    def demand(self) -> np.ndarray:
        """Combined allocation request of the member jobs, a read-only row."""
        if len(self.jobs) == 1:
            return self.jobs[0].requested  # read-only: nothing to sum
        a, b = self.jobs
        total = a.requested + b.requested
        total.setflags(write=False)
        return total

    @property
    def is_packed(self) -> bool:
        """Whether the entity is a complementary pair."""
        return len(self.jobs) == 2

    def job_ids(self) -> tuple[int, ...]:
        """Member job ids, in packing order."""
        return tuple(j.job_id for j in self.jobs)


def _normalized(demand: np.ndarray, reference: np.ndarray | None) -> np.ndarray:
    """``demand / reference`` per resource, zero where ``reference`` is not
    positive (a resource no VM offers); both go through :func:`as_row`, so
    anything but three real numbers raises."""
    demand = as_row(demand)
    if reference is None:
        return demand
    reference = as_row(reference)
    return np.divide(demand, reference, out=np.zeros(NUM_RESOURCES), where=reference > 0)


def _dv(va: np.ndarray, vb: np.ndarray) -> float:
    mid = 0.5 * (va + vb)
    return float(np.sum((va - mid) ** 2 + (vb - mid) ** 2))


def dominant_resource(
    demand: np.ndarray, reference: np.ndarray | None = None
) -> ResourceKind:
    """The resource the demand is largest on (Section III-B).

    With a ``reference``, demands are normalized per resource first so
    "largest" compares like with like across units.
    """
    return ResourceKind(int(np.argmax(_normalized(demand, reference))))


def deviation(
    a: np.ndarray, b: np.ndarray, reference: np.ndarray | None = None
) -> float:
    """The paper's ``DV`` between two demand rows."""
    return _dv(_normalized(a, reference), _normalized(b, reference))


def pack_jobs(
    jobs: Sequence[Job], reference: np.ndarray | None = None
) -> list[JobEntity]:
    """Greedy complementary pairing, in arrival order.

    CORP "fetches each job J_i, and tries to find its complementary job
    from the list": among later not-yet-packed jobs with a *different*
    dominant resource, the one maximizing ``DV`` is chosen; with no such
    job, ``J_i`` becomes a singleton entity.  Jobs sharing a ``job_id``
    are one job to the packer: using any retires them all.

    The queue is normalized into one ``(n, 3)`` matrix and each unpacked
    job costs one masked row expression.  ``DV`` keeps :func:`deviation`'s
    arithmetic to the last bit (midpoint form, summed ``k = 0, 1, 2``):
    the algebraically equal ``||a - b||² / 2`` rounds differently, and a
    last-place difference can flip a tie.

    Ties break toward the earlier-listed job by a *running* scan — a
    candidate replaces the best so far only when it beats it by more
    than ``1e-12`` — which neither ``argmax`` nor "first within ``1e-12``
    of the maximum" reproduces: ``DV = (0.5, 1.4, 1.6)e-12`` keeps the
    third candidate (first-in-window: the second), ``(0, 0.6, 1.0)e-12``
    the first (``argmax``: the third).  So ``argmax`` is taken only when
    no other candidate lies within ``2e-12`` of the top — nothing before
    it can block it, nothing after displace it — and otherwise the same
    scan runs over the ``DV`` values already computed.
    """
    demands = np.array([j.requested for j in jobs]).reshape(
        -1, NUM_RESOURCES
    )
    if reference is not None:
        demands = np.divide(
            demands, reference, out=np.zeros_like(demands), where=reference > 0
        )
    dominants = demands.argmax(axis=1)
    ids = np.array([j.job_id for j in jobs])
    # Rows before the current one are all retired: ``free`` means "later".
    free = np.ones(len(jobs), dtype=bool)
    entities: list[JobEntity] = []
    for row, job in enumerate(jobs):
        if not free[row]:
            continue
        free &= ids != ids[row]
        (candidates,) = np.nonzero(free & (dominants != dominants[row]))
        if not candidates.size:
            entities.append(JobEntity(jobs=(job,)))
            continue
        mine, theirs = demands[row], demands[candidates]
        mid = 0.5 * (mine + theirs)
        sq = (mine - mid) ** 2 + (theirs - mid) ** 2
        dv = sq[:, 0] + sq[:, 1] + sq[:, 2]
        best = int(dv.argmax())
        if np.count_nonzero(dv >= dv[best] - 2e-12) > 1:
            best_dv = -1.0
            for k, value in enumerate(dv.tolist()):
                if value > best_dv + 1e-12:
                    best_dv, best = value, k
        partner = candidates[best]
        free &= ids != ids[partner]
        entities.append(JobEntity(jobs=(job, jobs[partner])))
    return entities


def singleton_entities(jobs: Sequence[Job]) -> list[JobEntity]:
    """No-packing variant (ablation A2 and the non-packing baselines)."""
    return [JobEntity(jobs=(j,)) for j in jobs]
