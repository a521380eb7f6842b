"""The persistent availability index of the primary placement pool.

Rebuilding a :class:`~repro.core.vm_selection.CandidateSet` per call is
fine at the paper's testbed sizes (≤ 100 VMs); at 10k+ VMs re-reading an
``(n_vms, l)`` matrix from Python attributes every slot dominates the
placement path.  :class:`ShardedCandidateIndex` keeps one such matrix
alive across calls and re-reads only the rows whose VM changed.

Dirty tracking is version-based: every :class:`VirtualMachine` bumps a
``state_version`` counter whenever its commitment, capacity or liveness
changes (placements landing, completions, crashes, revocations), and
:meth:`ShardedCandidateIndex.refresh` rewrites only the rows whose
version moved.

The index is *flat*.  Eq. 22 is one global argmin, and on one core a
single ``(n_vms, l)`` matrix expression beat every row partitioning
measured (ledger probe ``index.select_us_10k``: 296 us flat vs 417 us in
8 partitions), so the partition layer of v1.7 is gone; the class keeps
its name, and ``shards`` is accepted and ignored, for one release.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .machine import VirtualMachine
from .resources import NUM_RESOURCES, ResourceVector

__all__ = ["ScaleConfig", "ShardedCandidateIndex"]


@dataclass(frozen=True)
class ScaleConfig:
    """Scale knobs of a run.

    Attributes
    ----------
    shards:
        Deprecated, no effect: the availability index is one flat
        matrix.  Still validated (``>= 1``); values above 1 raise a
        ``DeprecationWarning``.  Removed in v1.10.
    chunk_size:
        Records per chunk for callers that stream a trace through
        :meth:`~repro.trace.generator.GoogleTraceGenerator.generate_chunks`
        — million-job workloads never materialize in memory at once.
        Nothing inside the package reads it.
    """

    shards: int = 1
    chunk_size: int = 4096

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ValueError("shards must be >= 1")
        if self.shards > 1:
            warnings.warn(
                "shards is deprecated and has no effect (the availability "
                "index is flat; results were identical at every shard "
                "count); it will be removed in v1.10",
                DeprecationWarning,
                stacklevel=3,  # past the dataclass-generated __init__
            )
        if self.chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")


class ShardedCandidateIndex:
    """A :class:`CandidateSet` kept in sync with its VMs.

    Rows mirror each VM's unallocated capacity, the ``online`` lane its
    liveness and the ``versions`` lane the ``state_version`` last read;
    :meth:`refresh` is the one sync loop.  Liveness is applied in one
    place — the lane is shared with the set, whose feasibility mask
    excludes offline rows — so every selector here *is* the
    ``CandidateSet`` kernel, and the scalar loop in
    :mod:`repro.core.vm_selection` remains the differential oracle.

    Iterable as ``(vm, ResourceVector)`` pairs (online rows only), so
    the invariant checker's scalar re-derivation and custom
    ``choose_vm`` overrides see exactly the rows a selector may return.
    """

    __slots__ = ("source_vms", "online", "versions", "_set")

    def __init__(self, vms: Sequence[VirtualMachine]) -> None:
        # Deferred: ``repro.core`` imports ``repro.cluster`` at module
        # level; importing back at import time would cycle the packages.
        from ..core.vm_selection import CandidateSet

        #: The list this index mirrors (identity-compared by the owner).
        self.source_vms = vms
        self._set = CandidateSet(vms, np.zeros((len(vms), NUM_RESOURCES)))
        self.online = self._set.online = np.ones(len(vms), dtype=bool)
        #: ``-1`` forces the first :meth:`refresh` to populate every row.
        self.versions = np.full(len(vms), -1, dtype=np.int64)

    @classmethod
    def for_vms(
        cls, vms: Sequence[VirtualMachine], *, shards: int = 1
    ) -> ShardedCandidateIndex:
        """Index over ``vms``; rows are filled by :meth:`refresh`."""
        ScaleConfig(shards=shards)  # validates and warns: deprecated knob
        return cls(vms)

    def refresh(self) -> int:
        """Re-read rows whose VM ``state_version`` moved; returns how many.

        The integer sweep is the dirty check; matrix writes — the
        expensive part — happen only for rows that actually changed.
        """
        rewritten = 0
        versions = self.versions
        online = self.online
        matrix = self._set.matrix
        for i, vm in enumerate(self._set.vms):
            version = vm.state_version
            if version == versions[i]:
                continue
            versions[i] = version
            live = online[i] = vm.online
            matrix[i] = vm.unallocated_array() if live else 0.0
            rewritten += 1
        return rewritten

    def consume(self, vm: VirtualMachine, amount: np.ndarray) -> None:
        """Decrement ``vm``'s row by ``amount``, clipping at zero."""
        self._set.consume(vm, amount)

    # ------------------------------------------------------------------
    # pool views (online rows only)
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        """Number of live candidate rows (matches the per-call pools)."""
        return int(self.online.sum())

    def __iter__(self) -> Iterator[tuple[VirtualMachine, ResourceVector]]:
        online = self.online
        for i, pair in enumerate(self._set):
            if online[i]:
                yield pair

    def availability(self, vm: VirtualMachine) -> ResourceVector | None:
        """Current availability row of ``vm`` (None if absent/offline)."""
        row = self._set._rows.get(vm.vm_id)
        if row is None or not self.online[row]:
            return None
        return ResourceVector(self._set.matrix[row])

    def feasible_count(self, demand: ResourceVector) -> int:
        """How many live candidates the demand fits within."""
        return self._set.feasible_count(demand)

    # ------------------------------------------------------------------
    # selection (the CandidateSet kernels, verbatim)
    # ------------------------------------------------------------------
    def select_most_matched(
        self, demand: ResourceVector, reference: ResourceVector
    ) -> VirtualMachine | None:
        """Eq. 22 most-matched live VM (lowest ``vm_id`` among ties)."""
        return self._set.select_most_matched(demand, reference)

    def select_random_feasible(
        self, demand: ResourceVector, rng: np.random.Generator
    ) -> VirtualMachine | None:
        """Uniform-random feasible live VM, one ``rng.integers`` draw."""
        return self._set.select_random_feasible(demand, rng)
