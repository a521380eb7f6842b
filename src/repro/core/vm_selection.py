"""Most-matched VM selection via unused-resource volume (paper Eq. 22).

Among VMs whose available resources satisfy a job entity's demand, CORP
picks the one with the *smallest* unused-resource volume

.. math:: volume_j = \\sum_k \\hat r_{jk} / C'_k

where ``C'`` is the elementwise maximum capacity across all VMs — the
least-remaining feasible VM, so big holes stay available for big
entities (best-fit in volume space; Fig. 5's worked example).
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from ..cluster.machine import VirtualMachine
from ..cluster.resources import NUM_RESOURCES, ResourceVector

__all__ = [
    "unused_volume",
    "min_feasible_volume",
    "select_most_matched",
    "select_random_feasible",
    "tie_window",
    "CandidateSet",
]

#: Feasibility slack, matching :meth:`ResourceVector.fits_within`.
_FIT_ATOL = 1e-9
#: Relative volume tie window (see :func:`tie_window`).
_TIE_RTOL = 1e-12


def tie_window(best: float) -> float:
    """Width of the volume tie window around ``best``.

    Relative (``1e-12 * |best|``) rather than absolute: volumes scale
    with ``1/C'``, so an absolute ``1e-12`` window that is a genuine
    rounding allowance at unit magnitudes becomes either meaninglessly
    tight or spuriously wide once capacities span hyperscale ranges.  A
    relative window makes tie-breaking scale-invariant — multiplying
    every availability row by a constant leaves the chosen VM unchanged.
    At ``best == 0`` the window is zero and only exact ties resolve by
    ``vm_id``, which is the deterministic case that matters.
    """
    return _TIE_RTOL * abs(best)


class CandidateSet:
    """A candidate pool as one ``(n_vms, l)`` availability matrix.

    The vectorized counterpart of the ``[(vm, ResourceVector), ...]``
    candidate lists: feasibility scans, Eq. 22 volume ranking and the
    baselines' uniform-random choice become single matrix expressions
    instead of per-VM Python loops.  The schedulers build one set per
    placement class per ``place_jobs`` call and keep its rows current
    with :meth:`consume` as placements land, mirroring the incremental
    ``execute_slot`` vectorization of PR 1.

    Iteration yields ``(vm, ResourceVector)`` pairs — the exact shape
    the scalar reference functions, the invariant checker and custom
    ``choose_vm`` overrides consume — so a ``CandidateSet`` can stand in
    anywhere a candidate list is expected.  The yielded vectors are
    snapshots (copies) of the current rows.

    Selection semantics match the scalar loop: smallest Eq. 22 volume
    over the feasible rows, ties within the scale-invariant
    :func:`tie_window` broken toward the lowest ``vm_id``.  (The loop
    applies its tie tolerance pairwise against a running best, which
    could chain across candidates closer than the window apart without
    being exactly tied; real capacity data never produces such
    near-ties, and exact ties — the case that matters for determinism —
    resolve identically.)
    """

    __slots__ = ("vms", "matrix", "online", "_ids", "_rows")

    def __init__(
        self, vms: Sequence[VirtualMachine], matrix: np.ndarray
    ) -> None:
        self.vms = list(vms)
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.size == 0:
            matrix = np.zeros((len(self.vms), NUM_RESOURCES))
        if matrix.shape != (len(self.vms), NUM_RESOURCES):
            raise ValueError(
                f"matrix shape {matrix.shape} does not match "
                f"{len(self.vms)} VMs x {NUM_RESOURCES} resources"
            )
        self.matrix = matrix.copy()
        #: Optional liveness lane (one bool per row): a row marked
        #: False is infeasible for every demand, the all-zero one
        #: included.  The persistent index shares its lane here.
        self.online: np.ndarray | None = None
        self._ids = np.array([vm.vm_id for vm in self.vms], dtype=np.int64)
        self._rows = {vm.vm_id: i for i, vm in enumerate(self.vms)}

    @classmethod
    def from_pairs(
        cls, pairs: Sequence[tuple[VirtualMachine, ResourceVector]]
    ) -> "CandidateSet":
        """Build from a scalar-style candidate list."""
        pairs = list(pairs)
        return cls(
            [vm for vm, _ in pairs],
            np.array([avail.as_array() for _, avail in pairs]),
        )

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.vms)

    def __iter__(self) -> Iterator[tuple[VirtualMachine, ResourceVector]]:
        for i, vm in enumerate(self.vms):
            yield vm, ResourceVector(self.matrix[i])

    def availability(self, vm: VirtualMachine) -> ResourceVector | None:
        """Current availability row of ``vm`` (None if not a candidate)."""
        row = self._rows.get(vm.vm_id)
        if row is None:
            return None
        return ResourceVector(self.matrix[row])

    # ------------------------------------------------------------------
    def consume(self, vm: VirtualMachine, amount: np.ndarray) -> None:
        """Decrement ``vm``'s row by ``amount``, clipping at zero.

        Keeps the matrix in sync with a placement that just landed —
        the incremental update that lets one matrix serve a whole
        ``place_jobs`` call instead of being rebuilt per entity.
        """
        row = self._rows.get(vm.vm_id)
        if row is None:  # pragma: no cover - placement outside the pool
            return
        np.clip(self.matrix[row] - amount, 0.0, None, out=self.matrix[row])

    # ------------------------------------------------------------------
    def feasible_mask(self, demand: ResourceVector) -> np.ndarray:
        """Boolean row mask of live candidates the demand fits within."""
        mask = (demand.as_array() <= self.matrix + _FIT_ATOL).all(axis=1)
        if self.online is not None:
            mask &= self.online
        return mask

    def feasible_count(self, demand: ResourceVector) -> int:
        """How many candidates the demand fits within."""
        return int(self.feasible_mask(demand).sum())

    def volumes(self, reference: ResourceVector) -> np.ndarray:
        """Eq. 22 volume of every row (one matrix-vector product)."""
        ref = reference.as_array()
        inv = np.zeros(NUM_RESOURCES)
        nz = ref > 0
        inv[nz] = 1.0 / ref[nz]
        return self.matrix @ inv

    # ------------------------------------------------------------------
    def select_most_matched(
        self, demand: ResourceVector, reference: ResourceVector
    ) -> VirtualMachine | None:
        """Vectorized Eq. 22 most-matched choice (see class docstring)."""
        mask = self.feasible_mask(demand)
        if not mask.any():
            return None
        volumes = self.volumes(reference)
        best = volumes[mask].min()
        tied = mask & (volumes <= best + tie_window(best))
        (indices,) = np.nonzero(tied)
        return self.vms[indices[np.argmin(self._ids[indices])]]

    def min_feasible_volume(
        self, demand: ResourceVector, reference: ResourceVector
    ) -> float | None:
        """Vectorized :func:`min_feasible_volume` (None if none feasible)."""
        mask = self.feasible_mask(demand)
        if not mask.any():
            return None
        return float(self.volumes(reference)[mask].min())

    def select_random_feasible(
        self, demand: ResourceVector, rng: np.random.Generator
    ) -> VirtualMachine | None:
        """Vectorized uniform-random feasible choice.

        Consumes exactly one ``rng.integers(n_feasible)`` draw — the
        same stream usage as the scalar loop, so baselines produce
        identical placements either way.
        """
        (indices,) = np.nonzero(self.feasible_mask(demand))
        if indices.size == 0:
            return None
        return self.vms[indices[int(rng.integers(indices.size))]]


def unused_volume(available: ResourceVector, reference: ResourceVector) -> float:
    """Eq. 22: capacity-normalized total of an availability vector."""
    return float(available.normalized_by(reference).as_array().sum())


def min_feasible_volume(
    demand: ResourceVector,
    candidates: Sequence[tuple[VirtualMachine, ResourceVector]],
    reference: ResourceVector,
) -> float | None:
    """Smallest Eq. 22 volume over the feasible candidates (None if none).

    The optimality bound the invariant checker (:mod:`repro.check`)
    holds a :func:`select_most_matched` choice to: whatever VM was
    picked, no feasible candidate may have had a strictly smaller
    volume.
    """
    best: float | None = None
    for _, available in candidates:
        if not demand.fits_within(available):
            continue
        volume = unused_volume(available, reference)
        if best is None or volume < best:
            best = volume
    return best


def select_most_matched(
    demand: ResourceVector,
    candidates: Sequence[tuple[VirtualMachine, ResourceVector]],
    reference: ResourceVector,
) -> VirtualMachine | None:
    """Feasible VM with the smallest availability volume, or None.

    ``candidates`` pairs each VM with the availability vector relevant to
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
        if not demand.fits_within(available):
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
    demand: ResourceVector,
    candidates: Sequence[tuple[VirtualMachine, ResourceVector]],
    rng: np.random.Generator,
) -> VirtualMachine | None:
    """Uniformly random feasible VM — the baselines' placement rule.

    Section IV: RCCR, CloudScale and DRA all "randomly chose a VM that
    can satisfy the resource demands of the job".
    """
    feasible = [vm for vm, available in candidates if demand.fits_within(available)]
    if not feasible:
        return None
    return feasible[int(rng.integers(len(feasible)))]
