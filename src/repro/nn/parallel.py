"""Process fan-out for independent fits — the paper's stated future work.

Section VI: "In the future, we will further consider designing a
distributed deep learning training system to reduce the computation
overhead caused by DNN."
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Iterable, TypeVar

__all__ = ["parallel_map"]

_T = TypeVar("_T")
_R = TypeVar("_R")


def parallel_map(
    fn: Callable[[_T], _R], tasks: Iterable[_T], *, workers: int = 0
) -> list[_R]:
    """Order-preserving map over independent tasks.

    The fan-out seam for the per-resource HMM fits (paper Section
    VI's "distributed deep learning training" future work, restricted
    to what actually helps here): each task carries its own seeds and
    shares no state, so running them in worker *processes* is
    bit-identical to the serial loop — same function, same inputs, same
    RNG streams, merely elsewhere.

    ``workers <= 1`` (or a single task) runs a plain in-process loop
    with no multiprocessing machinery.  With processes, ``fn`` must be a
    module-level callable and tasks/results picklable.
    """
    tasks = list(tasks)
    if workers <= 1 or len(tasks) <= 1:
        return [fn(task) for task in tasks]
    with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
        futures = [pool.submit(fn, task) for task in tasks]
        return [future.result() for future in futures]
