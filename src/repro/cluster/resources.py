"""Multi-resource rows for the cloud simulator.

The paper models ``l`` resource types per VM (Section II); the evaluation
uses ``l = 3``: CPU, memory and storage (Table II).  Inside the
simulator every demand and capacity — a task's request and usage, PM and
VM capacities, slot state and outcomes, and the whole placement path —
is a plain read-only float64 ``(l,)`` row.  :func:`as_row` is the one
conversion into that form and :func:`fits_within` the feasibility rule
on rows.  :class:`ResourceVector`, a thin immutable, hashable wrapper
around such a row, is only the value type of cluster profiles (a frozen
config that scenario equality passes through).
"""

from __future__ import annotations

from enum import IntEnum
from typing import Iterator, Sequence

import numpy as np

__all__ = [
    "ResourceKind",
    "ResourceVector",
    "NUM_RESOURCES",
    "DEFAULT_WEIGHTS",
    "as_row",
    "fits_within",
]


class ResourceKind(IntEnum):
    """Index of each resource type inside a demand or capacity row.

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


def as_row(values: "Sequence[float] | np.ndarray | ResourceVector") -> np.ndarray:
    """``values`` copied into a read-only float64 ``(l,)`` row.

    The one conversion into the simulator's demand / capacity form:
    anything but ``l`` real numbers — a ``(1, l)`` or ``(2,)`` array, an
    object or boolean array — raises instead of being misread later (a
    row function handed an object array reads it as a 0-d scalar).  A
    :class:`ResourceVector` converts to its own row, already read-only.
    """
    if isinstance(values, ResourceVector):
        return values._v
    row = np.asarray(values)
    if row.shape != (NUM_RESOURCES,) or row.dtype.kind not in "iuf":
        raise ValueError(
            f"a resource row needs {NUM_RESOURCES} real entries, got shape "
            f"{row.shape} of dtype {row.dtype}"
        )
    row = row.astype(np.float64)
    row.setflags(write=False)
    return row


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
    """An immutable, hashable resource vector: a profile's capacity.

    Parameters
    ----------
    values:
        Length-``NUM_RESOURCES`` sequence of quantities, ordered by
        :class:`ResourceKind` (checked and copied by :func:`as_row`).
    """

    __slots__ = ("_v",)

    def __init__(self, values: Sequence[float] | np.ndarray) -> None:
        self._v = as_row(values)

    @classmethod
    def of(cls, cpu: float = 0.0, mem: float = 0.0, storage: float = 0.0) -> "ResourceVector":
        """Named-component constructor."""
        return cls([cpu, mem, storage])

    def as_array(self) -> np.ndarray:
        """Read-only NumPy view of the underlying values: the row."""
        return self._v

    def __iter__(self) -> Iterator[float]:
        return iter(self._v.tolist())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ResourceVector):
            return NotImplemented
        return bool(np.array_equal(self._v, other._v))

    def __hash__(self) -> int:
        # Hash the floats, not the bytes: ``==`` holds ``0.0 == -0.0``, and
        # Python's float hash maps both signed zeros together.
        return hash(tuple(self._v.tolist()))

    def __repr__(self) -> str:
        parts = ", ".join(f"{k.label.lower()}={self._v[k]:.4g}" for k in ResourceKind)
        return f"ResourceVector({parts})"
