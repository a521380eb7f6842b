"""Job-level Predictor wrappers over the 1-D baseline forecasters.

RCCR and CloudScale already run ETS and Markov-chain forecasting at VM
granularity; these wrappers lift the same :class:`Forecaster` machinery
to the :class:`~repro.forecast.base.Predictor` contract (per-*job*
unused-resource forecasts), so the baselines' predictors compete in the
registry on equal footing with CORP's DNN+HMM — exactly the Fig. 6
comparison, but swappable inside the CORP scheduler itself.

The forecaster is refit per prediction call on the job's own unused
series (they are O(n) fits), so only the seed-error statistics and
priors need to persist.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..cluster.resources import NUM_RESOURCES
from .base import Forecaster, Predictor, window_samples
from .ets import HoltLinear
from .markov_chain import MarkovChainPredictor

__all__ = ["EtsJobPredictor", "MarkovJobPredictor"]


def _aggregate_path(path: np.ndarray, target: str) -> float:
    """Collapse a forecast path to the configured window aggregate."""
    if target == "window_min":
        return float(path.min())
    if target == "window_mean":
        return float(path.mean())
    return float(path[-1])


@dataclass
class _SeriesJobPredictor(Predictor):
    """Shared plumbing: fit a 1-D forecaster on each job's unused series."""

    PARAMS = ("input_slots", "window_slots", "prediction_target", "min_history_slots")

    input_slots: int = 6
    window_slots: int = 6
    prediction_target: str = "window_mean"
    min_history_slots: int = 2

    seed_errors: list[np.ndarray] = field(default_factory=list)
    prior_unused_fraction: np.ndarray = field(
        default_factory=lambda: np.zeros(NUM_RESOURCES)
    )

    def make_forecaster(self) -> Forecaster:
        raise NotImplementedError

    def _forecast_fraction(self, unused: np.ndarray) -> float:
        """Fit-and-forecast one unused series over the next window."""
        if np.ptp(unused) < 1e-12:
            # Constant history: every forecaster would answer the
            # constant; skip the fit (and the Markov chain's degenerate
            # single-bin path).
            return float(unused[-1])
        forecaster = self.make_forecaster().fit(unused)
        path = forecaster.forecast_path(self.window_slots)
        return _aggregate_path(path, self.prediction_target)

    def _fit(self, history, **kwargs: object) -> "_SeriesJobPredictor":
        """Seed errors/priors by backtesting over the training windows."""
        seed_errors: list[np.ndarray] = []
        priors = np.zeros(NUM_RESOURCES)
        for kind in range(NUM_RESOURCES):
            errors: list[float] = []
            targets: list[float] = []
            for window, y, _request in window_samples(
                history,
                kind,
                self.input_slots,
                self.window_slots,
                target=self.prediction_target,
            ):
                pred = np.clip(self._forecast_fraction(1.0 - window), 0.0, 1.0)
                errors.append(y - float(pred))
                targets.append(y)
            seed_errors.append(np.asarray(errors))
            if targets:
                priors[kind] = float(np.mean(targets))
        self.seed_errors = seed_errors
        self.prior_unused_fraction = priors
        return self

    def _unused_fractions(self, histories: list[np.ndarray]) -> np.ndarray:
        return np.array([
            [
                self._forecast_fraction(1.0 - util[-self.input_slots :, kind])
                for kind in range(NUM_RESOURCES)
            ]
            for util in histories
        ])


@dataclass
class EtsJobPredictor(_SeriesJobPredictor):
    """Holt linear-trend ETS per job series (RCCR's predictor, lifted)."""

    family = "ets"
    capabilities = frozenset({"serialize"})
    PARAMS = _SeriesJobPredictor.PARAMS + ("alpha", "beta")

    alpha: float = 0.3
    beta: float = 0.1

    def make_forecaster(self) -> Forecaster:
        return HoltLinear(alpha=self.alpha, beta=self.beta)


@dataclass
class MarkovJobPredictor(_SeriesJobPredictor):
    """Discrete-time Markov chain per job series (CloudScale's, lifted)."""

    family = "markov"
    capabilities = frozenset({"serialize"})
    PARAMS = _SeriesJobPredictor.PARAMS + ("n_bins",)

    n_bins: int = 8

    def make_forecaster(self) -> Forecaster:
        return MarkovChainPredictor(n_bins=self.n_bins)
