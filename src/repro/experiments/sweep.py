"""Parameter-sweep utilities shared by the figure benchmarks."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from ..cluster.simulator import SimulationResult

__all__ = ["SweepResult", "sweep", "average_summaries"]


@dataclass
class SweepResult:
    """Results of a 1-D parameter sweep for several methods.

    ``values[method][i]`` is the metric at ``x_values[i]``.
    """

    x_label: str
    x_values: list
    metric: str
    values: dict[str, list[float]] = field(default_factory=dict)

    def series(self) -> Mapping[str, Sequence[float]]:
        """Method → metric series over the sweep."""
        return self.values

    def add(self, method: str, value: float) -> None:
        """Append one swept value for a method."""
        self.values.setdefault(method, []).append(value)


def average_summaries(results: Iterable[SimulationResult], key: str) -> float:
    """Mean of one summary metric across repeated runs."""
    values = [r.summary()[key] for r in results]
    if not values:
        raise ValueError("no results to average")
    return float(np.mean(values))


def sweep(
    x_label: str,
    x_values: Sequence,
    metric: str,
    run: Callable[[object], Mapping[str, SimulationResult]],
) -> SweepResult:
    """Run ``run(x)`` for each x and collect one metric per method.

    ``run`` returns a method-name → :class:`SimulationResult` mapping,
    e.g. a :func:`repro.api.compare` closure.
    """
    out = SweepResult(x_label=x_label, x_values=list(x_values), metric=metric)
    for x in x_values:
        results = run(x)
        for method, result in results.items():
            out.add(method, result.summary()[metric])
    return out
