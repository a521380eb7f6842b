"""Complementary job packing (paper Section III-B, Fig. 4/5).

CORP pairs jobs whose *dominant resources* differ, choosing for each job
the partner with the largest demand deviation

.. math::

    DV(j, i) = \\sum_k \\Big( (d_{jk} - \\mu_k)^2 + (d_{ik} - \\mu_k)^2 \\Big),
    \\qquad \\mu_k = \\tfrac{d_{jk} + d_{ik}}{2}

(algebraically ``Σ_k (d_jk − d_ik)² / 2``): the more complementary two
jobs' demands, the larger the deviation.  Packed pairs are placed as one
entity on one VM, cutting fragmentation (Fig. 1's motivating example).

Demands are normalized by a per-resource reference capacity before
comparison by default — raw units would let the storage axis (hundreds
of GB) drown out CPU cores in both the dominant-resource test and the
deviation.  ``normalize=False`` recovers the paper's literal raw-unit
arithmetic (used by the worked-example test of Fig. 5).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..cluster.job import Job
from ..cluster.resources import ResourceKind, ResourceVector

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
    def demand(self) -> ResourceVector:
        """Combined allocation request of the member jobs."""
        return ResourceVector.sum(j.requested for j in self.jobs)

    @property
    def is_packed(self) -> bool:
        """Whether the entity is a complementary pair."""
        return len(self.jobs) == 2

    def job_ids(self) -> tuple[int, ...]:
        """Member job ids, in packing order."""
        return tuple(j.job_id for j in self.jobs)


def _normalized(demand: ResourceVector, reference: ResourceVector | None) -> np.ndarray:
    if reference is None:
        return demand.as_array()
    return demand.normalized_by(reference).as_array()


def _dv(va: np.ndarray, vb: np.ndarray) -> float:
    mid = 0.5 * (va + vb)
    return float(np.sum((va - mid) ** 2 + (vb - mid) ** 2))


def dominant_resource(
    demand: ResourceVector, reference: ResourceVector | None = None
) -> ResourceKind:
    """The resource the demand is largest on (Section III-B).

    With a ``reference``, demands are normalized per resource first so
    "largest" compares like with like across units.
    """
    return ResourceKind(int(np.argmax(_normalized(demand, reference))))


def deviation(
    a: ResourceVector,
    b: ResourceVector,
    reference: ResourceVector | None = None,
) -> float:
    """The paper's ``DV`` between two demand vectors."""
    return _dv(_normalized(a, reference), _normalized(b, reference))


def pack_jobs(
    jobs: Sequence[Job],
    reference: ResourceVector | None = None,
) -> list[JobEntity]:
    """Greedy complementary pairing, in arrival order.

    CORP "fetches each job J_i, and tries to find its complementary job
    from the list": among not-yet-packed jobs with a *different*
    dominant resource, the one maximizing ``DV`` is chosen; with no such
    job, ``J_i`` becomes a singleton entity.  Ties break toward the
    earlier-listed job for determinism.  Each demand is normalized once
    per call; ``DV`` and the dominant resource read that row.
    """
    entities: list[JobEntity] = []
    remaining = list(jobs)
    rows = {j.job_id: _normalized(j.requested, reference) for j in remaining}
    dominants = {job_id: int(np.argmax(row)) for job_id, row in rows.items()}
    used: set[int] = set()
    for i, job in enumerate(remaining):
        if job.job_id in used:
            continue
        used.add(job.job_id)
        row, dominant = rows[job.job_id], dominants[job.job_id]
        best: Job | None = None
        best_dv = -1.0
        for other in remaining[i + 1 :]:
            if other.job_id in used:
                continue
            if dominants[other.job_id] == dominant:
                continue
            dv = _dv(row, rows[other.job_id])
            if dv > best_dv + 1e-12:
                best_dv = dv
                best = other
        if best is not None:
            used.add(best.job_id)
            entities.append(JobEntity(jobs=(job, best)))
        else:
            entities.append(JobEntity(jobs=(job,)))
    return entities


def singleton_entities(jobs: Sequence[Job]) -> list[JobEntity]:
    """No-packing variant (ablation A2 and the non-packing baselines)."""
    return [JobEntity(jobs=(j,)) for j in jobs]
