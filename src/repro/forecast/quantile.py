"""Data-driven empirical-quantile predictor (after Pace et al.).

No model is trained: the forecast of a job's unused fraction over the
next window is the empirical ``q``-quantile of its *own* recent unused
observations, calibrated against the historical trace only through the
seed-error statistics and a per-resource prior (the same quantile of
the training-window outcomes) for jobs too young to carry evidence.
The approach is the "data-driven resource
allocation" point in the design space PAPERS.md maps: on short-lived
jobs, whose utilization carries little exploitable pattern, a
distribution summary of recent behaviour is competitive with model-
based prediction at a fraction of the cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..cluster.resources import NUM_RESOURCES
from ..obs import OBS
from .base import Predictor, window_samples

__all__ = ["QuantileHistogramPredictor", "recent_unused_quantiles"]


def recent_unused_quantiles(
    util_history: np.ndarray, input_slots: int, q: float
) -> np.ndarray:
    """Per-resource ``q``-quantile of the last ``input_slots`` unused
    observations of a ``(n, l)`` utilization history."""
    return np.quantile(1.0 - util_history[-input_slots:], q, axis=0)


@dataclass
class QuantileHistogramPredictor(Predictor):
    """Per-resource empirical-quantile forecasts."""

    family = "quantile"
    capabilities = frozenset({"serialize"})
    PARAMS = (
        "quantile", "input_slots", "window_slots", "prediction_target",
        "min_history_slots",
    )

    #: Quantile level of the forecast (the conservatism knob; mirrors
    #: ``CorpConfig.train_quantile``).
    quantile: float = 0.5
    #: How many recent unused observations the forecast summarizes.
    input_slots: int = 6
    #: Prediction window ``L`` (for seed-error generation only).
    window_slots: int = 6
    prediction_target: str = "window_mean"
    min_history_slots: int = 2

    seed_errors: list[np.ndarray] = field(default_factory=list)
    prior_unused_fraction: np.ndarray = field(
        default_factory=lambda: np.zeros(NUM_RESOURCES)
    )

    def __post_init__(self) -> None:
        if not 0.0 < self.quantile < 1.0:
            raise ValueError("quantile must be in (0, 1)")
        if self.input_slots < 1 or self.window_slots < 1:
            raise ValueError("input_slots and window_slots must be >= 1")

    # ------------------------------------------------------------------
    def _fit(self, history, **kwargs: object) -> "QuantileHistogramPredictor":
        """Collect the per-resource error statistics and priors."""
        seed_errors: list[np.ndarray] = []
        priors = np.zeros(NUM_RESOURCES)
        for kind in range(NUM_RESOURCES):
            preds: list[float] = []
            targets: list[float] = []
            for window, y, _request in window_samples(
                history,
                kind,
                self.input_slots,
                self.window_slots,
                target=self.prediction_target,
            ):
                preds.append(float(np.quantile(1.0 - window, self.quantile)))
                targets.append(y)
            if targets:
                y_arr = np.asarray(targets)
                seed_errors.append(y_arr - np.asarray(preds))
                priors[kind] = float(np.quantile(y_arr, self.quantile))
            else:
                seed_errors.append(np.zeros(0))
        self.seed_errors = seed_errors
        self.prior_unused_fraction = priors
        if OBS.enabled:
            for kind in range(NUM_RESOURCES):
                errors = seed_errors[kind]
                OBS.emit(
                    "predictor_fit",
                    family=self.family,
                    resource=kind,
                    n_samples=int(errors.size),
                    rmse=float(np.sqrt(np.mean(errors**2)))
                    if errors.size else None,
                )
        return self

    def _unused_fractions(self, histories: list[np.ndarray]) -> np.ndarray:
        """Empirical quantile of each job's recent unused observations."""
        return np.array([
            recent_unused_quantiles(util, self.input_slots, self.quantile)
            for util in histories
        ])
