"""Multi-resource vectors for the cloud simulator.

The paper models ``l`` resource types per VM (Section II); the evaluation
uses ``l = 3``: CPU, memory and storage (Table II).  A
:class:`ResourceVector` — a thin, immutable wrapper around a float64
NumPy array — is the value type of what a caller writes down: trace
requests, nominal VM capacities, reservations and grant caps, packing
demands and pool queries.  What the simulator reads back from its own
state (capacity, commitment, demand, slot outcomes) is a plain ``(l,)``
float row.
"""

from __future__ import annotations

from enum import IntEnum
from typing import Iterable, Iterator, Sequence

import numpy as np

__all__ = [
    "ResourceKind",
    "ResourceVector",
    "NUM_RESOURCES",
    "DEFAULT_WEIGHTS",
]


class ResourceKind(IntEnum):
    """Index of each resource type inside a :class:`ResourceVector`.

    The ordering matches the paper's running example (CPU first; see
    Section III-A.1a: "suppose the first resource type ... is CPU").
    """

    CPU = 0
    MEM = 1
    STORAGE = 2

    @property
    def label(self) -> str:
        """Human-readable label used in reports (e.g. ``"CPU"``)."""
        return self.name


#: Number of resource types ``l`` used throughout the evaluation (Table II).
NUM_RESOURCES: int = len(ResourceKind)

#: Weights :math:`\omega_j` for the overall utilization / wastage
#: (Eq. 2 / Eq. 4).  The paper sets CPU/MEM/storage to 0.4/0.4/0.2 because
#: "storage is not the bottleneck resource" (Section IV-A).  The array is
#: read-only: it is shared as a default argument across every metrics
#: call, so an in-place mutation would silently corrupt all later calls.
DEFAULT_WEIGHTS: np.ndarray = np.array([0.4, 0.4, 0.2], dtype=np.float64)
DEFAULT_WEIGHTS.setflags(write=False)


class ResourceVector:
    """An immutable vector of per-resource quantities.

    Supports elementwise arithmetic with other vectors and scalars, and
    the comparisons the allocation algorithms need (``fits_within`` for
    capacity checks, ``dominant`` for the packing strategy).

    Parameters
    ----------
    values:
        Length-``NUM_RESOURCES`` sequence of quantities, ordered by
        :class:`ResourceKind`.
    """

    __slots__ = ("_v", "_t")

    def __init__(self, values: Sequence[float] | np.ndarray) -> None:
        v = np.asarray(values, dtype=np.float64)
        if v.shape != (NUM_RESOURCES,):
            raise ValueError(
                f"ResourceVector needs {NUM_RESOURCES} entries, got shape {v.shape}"
            )
        v = v.copy()
        v.setflags(write=False)
        self._v = v
        self._t: tuple[float, ...] | None = None

    @classmethod
    def _wrap(cls, values: np.ndarray) -> "ResourceVector":
        """Adopt a freshly computed float64 array without copy/validation.

        Internal fast path for arithmetic results and other arrays this
        class just produced (or immutable views): the caller guarantees
        shape ``(NUM_RESOURCES,)`` float64 and exclusive/immutable
        ownership, so the public constructor's copy is unnecessary.
        """
        self = cls.__new__(cls)
        values.setflags(write=False)
        self._v = values
        self._t = None
        return self

    def _tuple(self) -> tuple[float, ...]:
        """Cached plain-float view; comparisons on ``l``-length vectors
        are much faster on Python floats than through NumPy reductions."""
        t = self._t
        if t is None:
            t = self._t = tuple(self._v.tolist())
        return t

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def zeros(cls) -> "ResourceVector":
        """All-zero vector."""
        return cls._wrap(np.zeros(NUM_RESOURCES))

    @classmethod
    def full(cls, value: float) -> "ResourceVector":
        """Vector with every component equal to ``value``."""
        return cls._wrap(np.full(NUM_RESOURCES, float(value)))

    @classmethod
    def of(cls, cpu: float = 0.0, mem: float = 0.0, storage: float = 0.0) -> "ResourceVector":
        """Named-component constructor."""
        return cls([cpu, mem, storage])

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def cpu(self) -> float:
        """CPU component (cores)."""
        return float(self._v[ResourceKind.CPU])

    @property
    def mem(self) -> float:
        """Memory component (GB)."""
        return float(self._v[ResourceKind.MEM])

    @property
    def storage(self) -> float:
        """Storage component (GB)."""
        return float(self._v[ResourceKind.STORAGE])

    def as_array(self) -> np.ndarray:
        """Read-only NumPy view of the underlying values."""
        return self._v

    def __getitem__(self, kind: ResourceKind | int) -> float:
        return float(self._v[int(kind)])

    def __iter__(self) -> Iterator[float]:
        return iter(self._v.tolist())

    def __len__(self) -> int:
        return NUM_RESOURCES

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------
    def _coerce(self, other: "ResourceVector | float | int") -> np.ndarray:
        if isinstance(other, ResourceVector):
            return other._v
        return np.float64(other)

    def __add__(self, other: "ResourceVector | float") -> "ResourceVector":
        return ResourceVector._wrap(self._v + self._coerce(other))

    __radd__ = __add__

    def __sub__(self, other: "ResourceVector | float") -> "ResourceVector":
        return ResourceVector._wrap(self._v - self._coerce(other))

    def __rsub__(self, other: "ResourceVector | float") -> "ResourceVector":
        return ResourceVector._wrap(self._coerce(other) - self._v)

    def __mul__(self, other: "ResourceVector | float") -> "ResourceVector":
        return ResourceVector._wrap(self._v * self._coerce(other))

    __rmul__ = __mul__

    def __truediv__(self, other: "ResourceVector | float") -> "ResourceVector":
        return ResourceVector._wrap(self._v / self._coerce(other))

    def __neg__(self) -> "ResourceVector":
        return ResourceVector._wrap(-self._v)

    # ------------------------------------------------------------------
    # comparisons / predicates
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ResourceVector):
            return NotImplemented
        return bool(np.array_equal(self._v, other._v))

    def __hash__(self) -> int:
        # Hash the floats, not the bytes: ``==`` holds ``0.0 == -0.0``, and
        # Python's float hash maps both signed zeros together.
        return hash(self._tuple())

    def fits_within(self, capacity: "ResourceVector", *, atol: float = 1e-9) -> bool:
        """True iff every component is ``<=`` the capacity's (within atol).

        This is the feasibility test used when choosing a VM for a job
        entity (Section III-B).  It sits on the scheduler's hottest path
        (tens of thousands of calls per run), hence the plain-float loop
        instead of a NumPy reduction.  A NaN on either side fits nothing,
        as in the pools' column test.
        """
        cap = capacity._t
        if cap is None:
            cap = capacity._tuple()
        for a, b in zip(self._tuple(), cap):
            if not a <= b + atol:
                return False
        return True

    def is_nonnegative(self, *, atol: float = 1e-9) -> bool:
        """True iff every component is ``>= -atol``."""
        for a in self._tuple():
            if a < -atol:
                return False
        return True

    def any_positive(self, *, atol: float = 1e-9) -> bool:
        """True iff at least one component exceeds ``atol``."""
        for a in self._tuple():
            if a > atol:
                return True
        return False

    # ------------------------------------------------------------------
    # elementwise helpers
    # ------------------------------------------------------------------
    def clip_nonnegative(self) -> "ResourceVector":
        """Elementwise ``max(x, 0)``."""
        return ResourceVector._wrap(np.maximum(self._v, 0.0))

    def minimum(self, other: "ResourceVector") -> "ResourceVector":
        """Elementwise minimum."""
        return ResourceVector._wrap(np.minimum(self._v, other._v))

    def maximum(self, other: "ResourceVector") -> "ResourceVector":
        """Elementwise maximum."""
        return ResourceVector._wrap(np.maximum(self._v, other._v))

    def total(self) -> float:
        """Sum of all components."""
        return float(self._v.sum())

    def weighted_total(self, weights: np.ndarray | Sequence[float] = DEFAULT_WEIGHTS) -> float:
        """Weighted sum :math:`\\sum_j \\omega_j x_j` (used by Eq. 2 / Eq. 4)."""
        w = np.asarray(weights, dtype=np.float64)
        if w.shape != (NUM_RESOURCES,):
            raise ValueError("weights must have one entry per resource type")
        return float(self._v @ w)

    def dominant(self) -> ResourceKind:
        """The job's *dominant resource*: the type with the largest demand.

        Section III-B: "Each job has a dominant resource, defined as the
        one that requires the most amount of resource."  Ties resolve to
        the lowest-index resource (CPU first), which keeps the packing
        deterministic.
        """
        return ResourceKind(int(np.argmax(self._v)))

    def normalized_by(self, reference: "ResourceVector") -> "ResourceVector":
        """Elementwise division by a reference vector.

        Used for the unused-resource *volume* (Eq. 22), where the
        reference is the max capacity per type across all VMs.  Zero
        reference components (a resource no VM offers) contribute zero.
        """
        out = np.zeros(NUM_RESOURCES)
        nz = reference._v > 0
        out[nz] = self._v[nz] / reference._v[nz]
        return ResourceVector._wrap(out)

    # ------------------------------------------------------------------
    # aggregation over collections
    # ------------------------------------------------------------------
    @staticmethod
    def sum(vectors: Iterable["ResourceVector"]) -> "ResourceVector":
        """Sum of a (possibly empty) iterable of vectors."""
        acc = np.zeros(NUM_RESOURCES)
        for vec in vectors:
            acc += vec._v
        return ResourceVector._wrap(acc)

    @staticmethod
    def elementwise_max(vectors: Iterable["ResourceVector"]) -> "ResourceVector":
        """Elementwise maximum of a (possibly empty) iterable of vectors."""
        acc = np.zeros(NUM_RESOURCES)
        for vec in vectors:
            np.maximum(acc, vec._v, out=acc)
        return ResourceVector._wrap(acc)

    # ------------------------------------------------------------------
    def __repr__(self) -> str:
        parts = ", ".join(f"{k.label.lower()}={self._v[k]:.4g}" for k in ResourceKind)
        return f"ResourceVector({parts})"
