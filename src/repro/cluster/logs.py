"""Append-only logs: containers whose entries are never written again.

A run accumulates history nothing rewrites once added: VM unused rows,
the recorder's per-slot totals, SLO outcomes and the error windows (a
history of plain numbers is a typed ``array.array`` instead).  A deep
copy (a kernel snapshot or restore) must copy such a container, since
both sides append, but not its entries: these types copy themselves at
C speed and hand the entries over.  That is sound because every entry
is immutable (a float, a tuple of atoms) or a read-only array; dropping
entries is fine, writing one in place is not.
"""

from __future__ import annotations

from collections import deque

__all__ = ["Log", "LogDeque", "LogDict"]


class _SharesEntries:
    """A deep copy is a new container holding the same entries."""

    __slots__ = ()

    def __deepcopy__(self, memo: dict) -> "_SharesEntries":
        return self.__copy__()


class Log(_SharesEntries, list):
    """An append-only list."""

    __slots__ = ()

    def __copy__(self) -> "Log":
        return Log(self)


class LogDict(_SharesEntries, dict):
    """A dict whose values are never rewritten."""

    __slots__ = ()

    def __copy__(self) -> "LogDict":
        return LogDict(self)


class LogDeque(_SharesEntries, deque):
    """A window of the latest ``maxlen`` entries (``deque.__copy__``
    keeps the type and the ``maxlen``)."""

    __slots__ = ()
