"""Multi-resource vectors for the cloud simulator.

The paper models ``l`` resource types per VM (Section II); the evaluation
uses ``l = 3``: CPU, memory and storage (Table II).  A
:class:`ResourceVector` — a thin, immutable wrapper around a float64
NumPy array — is the value type of traces and profiles: task requests
and PM / nominal VM capacities.  Everything the simulator computes with
— slot state and outcomes, and the whole placement path from packing
demands to reservations and grant caps — is a plain read-only ``(l,)``
float row, and :func:`fits_within` is the feasibility rule on rows.
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
    "fits_within",
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


def fits_within(demand: np.ndarray, available: np.ndarray, *, atol: float = 1e-9) -> bool:
    """True iff every component of ``demand`` is ``<=`` ``available``'s
    (within ``atol``): the feasibility test of choosing a VM for a job
    entity (Section III-B), on two ``(l,)`` rows.

    A plain-float loop, not a NumPy reduction: on ``l = 3`` entries it
    is several times faster.  A NaN on either side fits nothing, as in
    the pools' column test.
    """
    for a, b in zip(demand.tolist(), available.tolist()):
        if not a <= b + atol:
            return False
    return True


class ResourceVector:
    """An immutable vector of per-resource quantities.

    Parameters
    ----------
    values:
        Length-``NUM_RESOURCES`` sequence of quantities, ordered by
        :class:`ResourceKind`.
    """

    __slots__ = ("_v",)

    def __init__(self, values: Sequence[float] | np.ndarray) -> None:
        v = np.asarray(values, dtype=np.float64)
        if v.shape != (NUM_RESOURCES,):
            raise ValueError(
                f"ResourceVector needs {NUM_RESOURCES} entries, got shape {v.shape}"
            )
        v = v.copy()
        v.setflags(write=False)
        self._v = v

    @classmethod
    def _wrap(cls, values: np.ndarray) -> "ResourceVector":
        """Adopt a freshly computed float64 array without copy/validation.

        Internal fast path for arithmetic results: the caller guarantees
        shape ``(NUM_RESOURCES,)`` float64 and exclusive ownership, so
        the public constructor's copy is unnecessary.
        """
        self = cls.__new__(cls)
        values.setflags(write=False)
        self._v = values
        return self

    @classmethod
    def of(cls, cpu: float = 0.0, mem: float = 0.0, storage: float = 0.0) -> "ResourceVector":
        """Named-component constructor."""
        return cls([cpu, mem, storage])

    def as_array(self) -> np.ndarray:
        """Read-only NumPy view of the underlying values: the row."""
        return self._v

    def __iter__(self) -> Iterator[float]:
        return iter(self._v.tolist())

    # ------------------------------------------------------------------
    # arithmetic (profile capacities: PMs carved into VMs)
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

    def __truediv__(self, other: "ResourceVector | float") -> "ResourceVector":
        return ResourceVector._wrap(self._v / self._coerce(other))

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
        return hash(tuple(self._v.tolist()))

    def is_nonnegative(self, *, atol: float = 1e-9) -> bool:
        """True iff every component is ``>= -atol``."""
        return not any(a < -atol for a in self._v.tolist())

    def any_positive(self, *, atol: float = 1e-9) -> bool:
        """True iff at least one component exceeds ``atol``."""
        return any(a > atol for a in self._v.tolist())

    def clip_nonnegative(self) -> "ResourceVector":
        """Elementwise ``max(x, 0)``."""
        return ResourceVector._wrap(np.maximum(self._v, 0.0))

    @staticmethod
    def sum(vectors: Iterable["ResourceVector"]) -> "ResourceVector":
        """Sum of a (possibly empty) iterable of vectors."""
        acc = np.zeros(NUM_RESOURCES)
        for vec in vectors:
            acc += vec._v
        return ResourceVector._wrap(acc)

    # ------------------------------------------------------------------
    def __repr__(self) -> str:
        parts = ", ".join(f"{k.label.lower()}={self._v[k]:.4g}" for k in ResourceKind)
        return f"ResourceVector({parts})"
