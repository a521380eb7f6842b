"""Ablations of CORP's design choices (DESIGN.md §5).

Each variant disables or swaps exactly one mechanism the paper argues
for; the ablation benchmark reruns the 300-job cluster scenario per
variant and reports utilization, SLO violation rate and prediction
error rate side by side.
"""

from __future__ import annotations

import dataclasses
from typing import Mapping

from ..core.config import CorpConfig
from .runner import PredictorCache, RunSpec, run_scenario
from .scenarios import cluster_scenario, testbed_scenario

__all__ = ["ABLATIONS", "run_ablations", "run_predictor_ablation"]

#: Variant name → the config change it applies (DESIGN.md §5's A1-A5).
ABLATIONS: Mapping[str, dict] = {
    "full": {},
    "A1-no-hmm": {"use_hmm_correction": False},
    "A2-no-packing": {"use_packing": False},
    "A3-no-ci": {"use_confidence_interval": False},
    "A4-random-vm": {"use_volume_selection": False},
    "A5-range-symbols": {"hmm_mode": "range"},
    "A6-window-min-target": {"prediction_target": "window_min"},
}


def run_ablations(
    *,
    n_jobs: int = 300,
    seed: int = 7,
    cache: PredictorCache | None = None,
    variants: Mapping[str, dict] | None = None,
) -> dict[str, dict[str, float]]:
    """Run every ablation variant on the shared cluster scenario.

    Returns ``variant → summary dict`` (the
    :meth:`~repro.cluster.simulator.SimulationResult.summary` keys, plus
    ``riders`` — the number of opportunistically placed jobs).
    """
    cache = cache if cache is not None else PredictorCache()
    variants = variants or ABLATIONS
    scenario = cluster_scenario(n_jobs, seed=seed)
    out: dict[str, dict[str, float]] = {}
    for name, overrides in variants.items():
        config = dataclasses.replace(CorpConfig(seed=seed), **overrides)
        scheduler = RunSpec(
            scenario=scenario, method="CORP", seed=seed, corp_config=config
        ).make_scheduler(cache)
        result = run_scenario(scenario, scheduler)
        summary = result.summary()
        summary["riders"] = float(sum(1 for j in result.jobs if j.opportunistic))
        out[name] = summary
    return out


def run_predictor_ablation(
    *,
    n_jobs: int = 300,
    seed: int = 7,
    testbed: str = "cluster",
    cache: PredictorCache | None = None,
    predictors: tuple[str, ...] | None = None,
) -> dict[str, dict[str, float]]:
    """One CORP run per registered predictor family, same workload.

    The predictor-zoo counterpart of :func:`run_ablations`: the
    scheduler, packing, CI and gate machinery stay at the paper's
    defaults, and only the forecasting family behind ``predict_vms_unused``
    changes.  Returns ``family → summary dict`` (plus ``riders``).
    """
    from ..forecast.registry import available_predictors

    cache = cache if cache is not None else PredictorCache()
    names = predictors if predictors is not None else available_predictors()
    scenario = testbed_scenario(testbed, n_jobs, seed=seed)
    out: dict[str, dict[str, float]] = {}
    for name in names:
        scheduler = RunSpec(
            scenario=scenario, method="CORP", seed=seed, predictor=name
        ).make_scheduler(cache)
        result = run_scenario(scenario, scheduler)
        summary = result.summary()
        summary["riders"] = float(sum(1 for j in result.jobs if j.opportunistic))
        out[name] = summary
    return out
