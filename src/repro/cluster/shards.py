"""The placement pool: ``(vm, availability)`` rows as one matrix.

CORP's placement step (Section III-B, Eq. 22) asks one question of one
kind of object — which feasible VM has the smallest availability volume
— and :class:`CandidateSet` is that object: an ``(n_vms, l)``
availability matrix and a liveness lane.  The schedulers hold two of
them: the opportunistic pool, whose rows are one window's
predicted-unused forecast, and the primary pool, whose rows are each
VM's unallocated capacity.

The primary pool lives for the run.  It reads the cluster's
:class:`~repro.cluster.machine.ClusterLanes` — the one copy of every
VM's capacity, commitment and liveness — so :meth:`CandidateSet.refresh`
is one matrix expression over the lanes rather than a walk over 10k+
VM objects.

The pool is *flat*.  Eq. 22 is one global argmin, and on one core a
single ``(n_vms, l)`` matrix expression beat every row partitioning
measured (ledger probe ``index.select_us_10k``: 417 us in 8 partitions;
the flat scan read 296 us then, and 62-70 us since its feasibility test
runs column by column), so the partition layer of v1.7 is gone;
``ShardedCandidateIndex`` survives as a second name for the class, and
``shards`` is accepted and ignored, for one release.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .machine import ClusterLanes, VirtualMachine
from .resources import NUM_RESOURCES

__all__ = ["ScaleConfig", "CandidateSet", "Choice", "ShardedCandidateIndex", "tie_window"]

#: Feasibility slack, matching :func:`~repro.cluster.resources.fits_within`.
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


class Choice(NamedTuple):
    """One placement decision, read by everything after it: the chosen
    VM, its row of the pool that chose it, and how many live rows of
    that pool the demand fit."""

    vm: VirtualMachine
    row: int
    feasible: int


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


class CandidateSet:
    """A candidate pool as one ``(n_vms, l)`` availability matrix.

    Feasibility scans, Eq. 22 volume ranking and the baselines'
    uniform-random choice are single matrix expressions instead of
    per-VM Python loops, and :meth:`consume` keeps the rows current as
    placements land.

    Liveness is applied in one place: a row whose ``online`` flag is
    False is infeasible for every demand, the all-zero one included,
    and is absent from iteration and ``len`` — a pool *is* its live
    rows.  A pool built by :meth:`for_vms` reads its VMs' unallocated
    capacity and liveness off their lanes in :meth:`refresh`.

    Iteration yields ``(vm, row)`` pairs, ``row`` a read-only ``(l,)``
    availability — the exact shape the scalar reference functions, the
    invariant checker and custom ``choose_vm`` overrides consume — so a
    ``CandidateSet`` can stand in anywhere a candidate list is expected.
    The yielded rows are a snapshot (a copy) of the current matrix.
    Demands and the Eq. 22 reference are ``(l,)`` rows too.

    Selection semantics match the scalar loop in
    :mod:`repro.core.vm_selection`, which remains the differential
    oracle: smallest Eq. 22 volume over the feasible rows, ties within
    the scale-invariant :func:`tie_window` broken toward the lowest
    ``vm_id``; they return a :class:`Choice`, whose ``row`` :meth:`consume`
    takes.  (The loop applies its tie tolerance pairwise against a
    running best, which could chain across candidates closer than the
    window apart without being exactly tied; real capacity data never
    produces such near-ties, and exact ties — the case that matters for
    determinism — resolve identically.)

    Between refreshes rows only fall (:meth:`consume` subtracts, an
    offline row fits nothing), so a demand no live row fits stays
    infeasible.  :meth:`fit_mask` answers that for many demands at once;
    the schedulers use it to screen an overloaded queue
    (:meth:`~repro.core.provisioning.ProvisioningSchedulerBase.place_jobs`).
    """

    __slots__ = ("vms", "matrix", "online", "lanes", "lane_rows", "_ids")

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
        #: Liveness lane, one bool per row.
        self.online = np.ones(len(self.vms), dtype=bool)
        #: The cluster lanes :meth:`refresh` reads (:meth:`for_vms` only).
        self.lanes: ClusterLanes | None = None
        #: Each row's VM's row of its lanes: a lane read is one gather.
        self.lane_rows = np.array([vm._row for vm in self.vms], dtype=np.intp)
        self._ids = np.array([vm.vm_id for vm in self.vms], dtype=np.int64)

    @classmethod
    def from_pairs(
        cls, pairs: Sequence[tuple[VirtualMachine, np.ndarray]]
    ) -> "CandidateSet":
        """Build from a scalar-style ``(vm, row)`` candidate list."""
        pairs = list(pairs)
        return cls([vm for vm, _ in pairs], np.array([row for _, row in pairs]))

    @classmethod
    def for_vms(
        cls, vms: Sequence[VirtualMachine], *, shards: int = 1
    ) -> "CandidateSet":
        """Pool over ``vms``' lanes (adopted if not yet one set's rows);
        rows are filled by :meth:`refresh`."""
        ScaleConfig(shards=shards)  # validates and warns: deprecated knob
        lanes = ClusterLanes.of(vms)  # before the rows read ``vm._row``
        pool = cls(vms, np.zeros((len(vms), NUM_RESOURCES)))
        pool.lanes = lanes
        return pool

    def refresh(self) -> int:
        """Re-read every row off the lanes; returns how many changed.

        Live rows are ``max(capacity - committed, 0)``, offline rows
        zero.
        """
        live = self.lanes.online
        fresh = self.lanes.unallocated()
        fresh[~live] = 0.0
        changed = (fresh != self.matrix).any(axis=1) | (live != self.online)
        rewritten = int(np.count_nonzero(changed))
        if rewritten:
            self.matrix[:] = fresh
            self.online[:] = live
        return rewritten

    # ------------------------------------------------------------------
    # pool views (online rows only)
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return int(self.online.sum())

    def __iter__(self) -> Iterator[tuple[VirtualMachine, np.ndarray]]:
        (live,) = np.nonzero(self.online)
        rows = self.matrix[live]  # one copy, handed out as read-only views
        rows.setflags(write=False)
        vms = self.vms
        for i, row in zip(live.tolist(), rows):
            yield vms[i], row

    # ------------------------------------------------------------------
    def consume(self, row: int, amount: np.ndarray) -> None:
        """Decrement row ``row`` by ``amount``, clipping at zero.

        Keeps the matrix in sync with a placement that just landed —
        the incremental update that lets one matrix serve a whole
        window (or run) instead of being rebuilt per entity.
        """
        np.clip(self.matrix[row] - amount, 0.0, None, out=self.matrix[row])

    # ------------------------------------------------------------------
    def fit_mask(
        self, units: np.ndarray, rows: int | slice | np.ndarray = slice(None)
    ) -> np.ndarray:
        """Which of ``m`` demands each live row of ``rows`` takes: a ``(k, m)``
        mask, ``(m,)`` for one int row.  ``units`` holds the demands as
        columns, ``(l, m)``; ``units[:, u] <= matrix[i] + atol`` on every
        resource, ANDed with ``online``, one resource at a time (numpy
        reduces a length-3 axis slowly: 80 vs 12 us at 3k rows)."""
        fits = self.matrix[rows] + _FIT_ATOL
        mask = units[0] <= fits[..., 0, None]
        mask &= units[1] <= fits[..., 1, None]
        mask &= units[2] <= fits[..., 2, None]
        mask &= self.online[rows, None]
        return mask

    def fit_counts(self, units: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """How many live rows each of ``units`` fits, with the indices and
        :meth:`fit_mask` of the live rows that are not all zero: a zero row
        fits just the units within atol of zero, so it is counted apart."""
        m = self.matrix
        rows = np.flatnonzero(self.online & ((m[:, 0] != 0) | (m[:, 1] != 0) | (m[:, 2] != 0)))
        fit = self.fit_mask(units, rows)
        tiny = (units[0] <= _FIT_ATOL) & (units[1] <= _FIT_ATOL) & (units[2] <= _FIT_ATOL)
        zeros = np.count_nonzero(self.online) - rows.size
        return rows, fit, np.count_nonzero(fit, axis=0) + zeros * tiny

    def feasible_mask(self, demand: np.ndarray) -> np.ndarray:
        """Boolean row mask of live candidates the demand row fits within:
        :meth:`fit_mask` of one demand (written out, it is 2 us faster)."""
        cpu, mem, storage = demand
        fits = self.matrix + _FIT_ATOL
        mask = cpu <= fits[:, 0]
        mask &= mem <= fits[:, 1]
        mask &= storage <= fits[:, 2]
        mask &= self.online
        return mask

    def volumes(self, reference: np.ndarray) -> np.ndarray:
        """Eq. 22 volume of every row (one matrix-vector product); a
        resource no VM offers (``reference`` entry ``<= 0``) weighs zero.

        ``reference`` and the selectors' ``demand`` are read by
        unpacking, so any three numbers in resource order — a profile's
        capacity value included — are taken as a row.
        """
        inv = np.array([1.0 / c if c > 0 else 0.0 for c in reference])
        return self.matrix @ inv

    # ------------------------------------------------------------------
    def select_most_matched(
        self, demand: np.ndarray, reference: np.ndarray
    ) -> Choice | None:
        """Vectorized Eq. 22 most-matched choice (see class docstring)."""
        mask = self.feasible_mask(demand)
        feasible = int(np.count_nonzero(mask))
        if not feasible:
            return None
        volumes = self.volumes(reference)
        best = np.where(mask, volumes, np.inf).min()
        tied = mask & (volumes <= best + tie_window(best))
        (indices,) = np.nonzero(tied)
        row = int(indices[np.argmin(self._ids[indices])])
        return Choice(self.vms[row], row, feasible)

    def select_random_feasible(
        self, demand: np.ndarray, rng: np.random.Generator
    ) -> Choice | None:
        """Vectorized uniform-random feasible choice.

        Consumes exactly one ``rng.integers(n_feasible)`` draw — the
        same stream usage as the scalar loop, so baselines produce
        identical placements either way.
        """
        (indices,) = np.nonzero(self.feasible_mask(demand))
        if indices.size == 0:
            return None
        row = int(indices[int(rng.integers(indices.size))])
        return Choice(self.vms[row], row, indices.size)


#: The v1.7 name of the persistent pool; the same class.
ShardedCandidateIndex = CandidateSet
