"""Shard-partitioned cluster state for hyperscale placement.

The per-call :class:`~repro.core.vm_selection.CandidateSet` rebuild is
fine at the paper's testbed sizes (≤ 100 VMs); at 10k+ VMs rebuilding an
``(n_vms, l)`` matrix from Python attribute reads every slot dominates
the placement path.  This module grows that structure into a
*persistent*, incrementally-maintained availability index partitioned
into VM-pool shards:

* :class:`ScaleConfig` — the typed scale knobs (`shards`, `chunk_size`)
  the run entry points accept as ``scale=`` and the CLI exposes as
  ``--shards`` / ``--chunk-size``.
* :class:`ShardedCandidateIndex` — N struct-of-arrays shards (each one a
  :class:`CandidateSet` plus liveness/version lanes), per-shard
  feasible-mask/volume kernels, and a cross-shard argmin aggregation
  that reproduces the global Eq. 22 most-matched choice *bit-identically*
  (the scalar loop in :mod:`repro.core.vm_selection` remains the
  differential oracle for ``repro check --differential``).

Dirty tracking is version-based: every :class:`VirtualMachine` bumps a
``state_version`` counter whenever its commitment, capacity or liveness
changes (placements landing, completions, crashes, revocations), and
:meth:`ShardedCandidateIndex.refresh` recomputes only the rows whose
version moved — a slot that touched two shards rewrites two shards, the
other N−2 cost one integer sweep each.  Exact equality (same winners,
same rng draws, same tie-breaks) against the single-``CandidateSet``
path is property-tested for any shard count, including shards > VMs and
empty shards.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Sequence

import numpy as np

from .resources import NUM_RESOURCES, ResourceVector

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from ..core.vm_selection import CandidateSet
    from .machine import VirtualMachine

__all__ = ["ScaleConfig", "ShardedCandidateIndex"]


@dataclass(frozen=True)
class ScaleConfig:
    """Scale knobs of a run (hyperscale sharding and streaming).

    Attributes
    ----------
    shards:
        Number of VM-pool shards the availability index is partitioned
        into.  ``1`` (the default) keeps the single-matrix layout and is
        byte-identical to pre-sharding output on every testbed; higher
        counts bound per-shard recompute work on clusters with 10k+ VMs.
    chunk_size:
        Records per chunk for streaming trace generation
        (:meth:`~repro.trace.generator.GoogleTraceGenerator.generate_chunks`)
        — million-job workloads never materialize in memory at once.
    """

    shards: int = 1
    chunk_size: int = 4096

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ValueError("shards must be >= 1")
        if self.chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")


def _candidate_set_cls() -> "type[CandidateSet]":
    # Deferred: ``repro.core`` imports ``repro.cluster`` at module level;
    # importing back at class-definition time would cycle the packages.
    from ..core.vm_selection import CandidateSet

    return CandidateSet


class _Shard:
    """One struct-of-arrays partition of the availability index.

    Wraps a :class:`CandidateSet` (the vectorized mask/volume kernels
    stay single-sourced there) with the lanes sharding adds: a liveness
    mask and the per-row ``state_version`` last synced.
    """

    __slots__ = ("cset", "online", "versions")

    def __init__(
        self, vms: Sequence["VirtualMachine"], matrix: np.ndarray
    ) -> None:
        self.cset = _candidate_set_cls()(vms, matrix)
        self.online = np.ones(len(vms), dtype=bool)
        #: ``-1`` forces the first ``sync`` to populate every row.
        self.versions = np.full(len(vms), -1, dtype=np.int64)

    def __len__(self) -> int:
        return len(self.cset.vms)

    def sync(self) -> bool:
        """Re-read rows whose VM ``state_version`` moved; True if any did.

        The integer sweep is the shard's dirty check; matrix writes —
        the expensive part — happen only for rows that actually changed,
        so an untouched shard costs one comparison pass and no writes.
        """
        changed = False
        versions = self.versions
        online = self.online
        matrix = self.cset.matrix
        for i, vm in enumerate(self.cset.vms):
            version = vm.state_version
            if version == versions[i]:
                continue
            versions[i] = version
            live = vm.online
            online[i] = live
            if live:
                matrix[i] = vm.unallocated_array()
            else:
                matrix[i] = 0.0
            changed = True
        return changed

    def masked_feasible(self, demand: ResourceVector) -> np.ndarray:
        """Feasibility of each row, offline rows excluded."""
        mask = self.cset.feasible_mask(demand)
        if not self.online.all():
            mask &= self.online
        return mask


class ShardedCandidateIndex:
    """A candidate pool as N struct-of-arrays shards.

    Duck-compatible with :class:`CandidateSet` everywhere the placement
    path uses one — ``select_most_matched`` / ``select_random_feasible``
    / ``min_feasible_volume`` / ``consume`` / ``availability`` /
    ``feasible_count`` — and iterable as ``(vm, ResourceVector)`` pairs
    (online rows only), so the invariant checker's scalar re-derivation
    and custom ``choose_vm`` overrides keep working unchanged.

    Two construction modes:

    * ``ShardedCandidateIndex(vms, matrix, shards=...)`` — a static
      pool over explicit availability rows (the per-window
      opportunistic pools).
    * :meth:`for_vms` — the *persistent* primary pool: rows mirror each
      VM's unallocated capacity and liveness, kept current by
      :meth:`refresh` through the VM ``state_version`` counters instead
      of per-call rebuilds.

    Selection semantics are exactly :class:`CandidateSet`'s: rows are
    partitioned contiguously (global row order preserved), per-row
    volumes are identical scalars, the cross-shard argmin compares the
    same floats the global ``min`` would, the tie window is evaluated
    per row against the same global best, and the uniform-random choice
    consumes exactly one ``rng.integers(n_feasible)`` draw over the
    concatenated feasible order.  With one shard and every VM online,
    the selectors *delegate* to the shard's ``CandidateSet`` methods —
    the single-shard configuration literally runs the original code.
    """

    __slots__ = ("source_vms", "n_shards", "_shards", "_locate", "_tracking")

    def __init__(
        self,
        vms: Sequence["VirtualMachine"],
        matrix: np.ndarray,
        *,
        shards: int = 1,
    ) -> None:
        if shards < 1:
            raise ValueError("shards must be >= 1")
        self.source_vms = vms
        self.n_shards = shards
        vms = list(vms)
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.size == 0:
            matrix = np.zeros((len(vms), NUM_RESOURCES))
        if matrix.shape != (len(vms), NUM_RESOURCES):
            raise ValueError(
                f"matrix shape {matrix.shape} does not match "
                f"{len(vms)} VMs x {NUM_RESOURCES} resources"
            )
        # Contiguous partition (np.array_split sizing): global row order
        # is the concatenation of the shards, which is what makes every
        # aggregation below order-identical to the unsharded matrix.
        bounds = np.linspace(0, len(vms), shards + 1).astype(int)
        self._shards = [
            _Shard(vms[lo:hi], matrix[lo:hi])
            for lo, hi in zip(bounds[:-1], bounds[1:])
        ]
        self._locate: dict[int, tuple[_Shard, int]] = {}
        for shard in self._shards:
            for row, vm in enumerate(shard.cset.vms):
                self._locate[vm.vm_id] = (shard, row)
        self._tracking = False

    @classmethod
    def for_vms(
        cls, vms: Sequence["VirtualMachine"], *, shards: int = 1
    ) -> "ShardedCandidateIndex":
        """Persistent index over ``vms``: rows filled by :meth:`refresh`."""
        index = cls(vms, np.zeros((len(vms), NUM_RESOURCES)), shards=shards)
        index._tracking = True
        return index

    # ------------------------------------------------------------------
    # incremental maintenance
    # ------------------------------------------------------------------
    def refresh(self) -> int:
        """Sync rows with VM state; returns how many shards were touched.

        Only meaningful for :meth:`for_vms` indexes.  Shards whose VMs'
        ``state_version`` counters are all unmoved are skipped (their
        sweep finds nothing to rewrite) — the shard-local dirty tracking
        that lets a slot recompute only the shards it touched.
        """
        if not self._tracking:
            raise RuntimeError(
                "refresh() requires a persistent index (use for_vms())"
            )
        return sum(1 for shard in self._shards if shard.sync())

    def consume(self, vm: "VirtualMachine", amount: np.ndarray) -> None:
        """Decrement ``vm``'s row by ``amount``, clipping at zero."""
        entry = self._locate.get(vm.vm_id)
        if entry is None:  # pragma: no cover - placement outside the pool
            return
        shard, row = entry
        matrix = shard.cset.matrix
        np.clip(matrix[row] - amount, 0.0, None, out=matrix[row])

    # ------------------------------------------------------------------
    # CandidateSet-compatible views
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        """Number of live candidate rows (matches the per-call pools)."""
        return sum(int(shard.online.sum()) for shard in self._shards)

    def __iter__(self) -> Iterator[tuple["VirtualMachine", ResourceVector]]:
        for shard in self._shards:
            matrix = shard.cset.matrix
            online = shard.online
            for i, vm in enumerate(shard.cset.vms):
                if online[i]:
                    yield vm, ResourceVector(matrix[i])

    def availability(self, vm: "VirtualMachine") -> ResourceVector | None:
        """Current availability row of ``vm`` (None if absent/offline)."""
        entry = self._locate.get(vm.vm_id)
        if entry is None:
            return None
        shard, row = entry
        if not shard.online[row]:
            return None
        return ResourceVector(shard.cset.matrix[row])

    def feasible_mask(self, demand: ResourceVector) -> np.ndarray:
        """Global-row-order boolean mask (offline rows are infeasible)."""
        if not self._shards:  # pragma: no cover - shards >= 1 by contract
            return np.zeros(0, dtype=bool)
        return np.concatenate(
            [shard.masked_feasible(demand) for shard in self._shards]
        )

    def feasible_count(self, demand: ResourceVector) -> int:
        """How many live candidates the demand fits within."""
        return sum(
            int(shard.masked_feasible(demand).sum()) for shard in self._shards
        )

    # ------------------------------------------------------------------
    # selection kernels (cross-shard aggregation)
    # ------------------------------------------------------------------
    def _single_delegate(self) -> "CandidateSet | None":
        """The lone shard's ``CandidateSet`` when delegation is exact."""
        if self.n_shards == 1 and self._shards[0].online.all():
            return self._shards[0].cset
        return None

    def select_most_matched(
        self, demand: ResourceVector, reference: ResourceVector
    ) -> "VirtualMachine | None":
        """Eq. 22 most-matched choice via cross-shard argmin aggregation.

        Pass 1 finds each shard's feasible volume minimum and reduces
        them to the global best — float ``min`` is exact, so this equals
        the unsharded ``volumes[mask].min()``.  Pass 2 applies the
        (scale-invariant) tie window per shard against that global best
        and takes the lowest ``vm_id`` among the tied rows, reproducing
        the single-matrix tie-break bit-identically.
        """
        single = self._single_delegate()
        if single is not None:
            return single.select_most_matched(demand, reference)
        from ..core.vm_selection import tie_window

        per_shard: list[tuple[_Shard, np.ndarray, np.ndarray]] = []
        best = np.inf
        for shard in self._shards:
            if not len(shard):
                continue
            mask = shard.masked_feasible(demand)
            if not mask.any():
                continue
            volumes = shard.cset.volumes(reference)
            local = volumes[mask].min()
            if local < best:
                best = local
            per_shard.append((shard, mask, volumes))
        if not per_shard:
            return None
        cut = best + tie_window(best)
        best_vm: "VirtualMachine | None" = None
        best_id = -1
        for shard, mask, volumes in per_shard:
            tied = mask & (volumes <= cut)
            (rows,) = np.nonzero(tied)
            if rows.size == 0:
                continue
            ids = shard.cset._ids[rows]
            pick = int(np.argmin(ids))
            if best_vm is None or int(ids[pick]) < best_id:
                best_id = int(ids[pick])
                best_vm = shard.cset.vms[rows[pick]]
        return best_vm

    def min_feasible_volume(
        self, demand: ResourceVector, reference: ResourceVector
    ) -> float | None:
        """Smallest feasible Eq. 22 volume across shards (None if none)."""
        single = self._single_delegate()
        if single is not None:
            return single.min_feasible_volume(demand, reference)
        best = np.inf
        found = False
        for shard in self._shards:
            if not len(shard):
                continue
            mask = shard.masked_feasible(demand)
            if not mask.any():
                continue
            local = shard.cset.volumes(reference)[mask].min()
            found = True
            if local < best:
                best = local
        return float(best) if found else None

    def select_random_feasible(
        self, demand: ResourceVector, rng: np.random.Generator
    ) -> "VirtualMachine | None":
        """Uniform-random feasible choice, one rng draw total.

        The draw indexes the concatenated per-shard feasible order —
        the same global feasible order (and therefore the same chosen
        VM for the same stream state) as the unsharded mask.
        """
        single = self._single_delegate()
        if single is not None:
            return single.select_random_feasible(demand, rng)
        masks = [shard.masked_feasible(demand) for shard in self._shards]
        counts = [int(mask.sum()) for mask in masks]
        total = sum(counts)
        if total == 0:
            return None
        pick = int(rng.integers(total))
        for shard, mask, count in zip(self._shards, masks, counts):
            if pick < count:
                (rows,) = np.nonzero(mask)
                return shard.cset.vms[rows[pick]]
            pick -= count
        raise AssertionError("unreachable: pick exceeded feasible total")
