"""Job-level Predictor wrappers over the baselines' series kernels.

RCCR and CloudScale already run ETS and Markov-chain forecasting at VM
granularity; these wrappers lift the same kernels
(:mod:`repro.forecast.kernels`) to the
:class:`~repro.forecast.base.Predictor` contract (per-*job*
unused-resource forecasts), so the baselines' predictors compete in the
registry on equal footing with CORP's DNN+HMM — exactly the Fig. 6
comparison, but swappable inside the CORP scheduler itself.

The kernel is refit per prediction call on each job's own unused
series (O(n) fits, one block per series length), so only the
seed-error statistics and priors need to persist.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..cluster.resources import NUM_RESOURCES
from .base import Predictor, window_samples
from .kernels import by_length, holt_path, markov_forecast

__all__ = ["EtsJobPredictor", "MarkovJobPredictor"]


@dataclass
class _SeriesJobPredictor(Predictor):
    """Shared plumbing: forecast each job's unused series with a kernel."""

    PARAMS = ("input_slots", "window_slots", "prediction_target", "min_history_slots")

    input_slots: int = 6
    window_slots: int = 6
    prediction_target: str = "window_mean"
    min_history_slots: int = 2

    seed_errors: list[np.ndarray] = field(default_factory=list)
    prior_unused_fraction: np.ndarray = field(
        default_factory=lambda: np.zeros(NUM_RESOURCES)
    )

    def _path(self, block: np.ndarray) -> np.ndarray:
        """The family's ``(n, window_slots)`` forecast paths of an ``(n, T)`` block."""
        raise NotImplementedError

    def _forecast_fractions(self, unused: Sequence[np.ndarray]) -> np.ndarray:
        """Each unused series' forecast over the next window, aggregated
        to :attr:`prediction_target`."""
        out = np.empty(len(unused))
        for rows in by_length(unused).values():
            block = np.array([unused[i] for i in rows])
            # A constant history needs no fit: every forecaster would
            # answer the constant (and the Markov chain's single-bin
            # path is degenerate).
            constant = np.ptp(block, axis=1) < 1e-12
            answer = block[:, -1].copy()
            if not constant.all():
                path = self._path(block[~constant])
                if self.prediction_target == "window_min":
                    answer[~constant] = path.min(axis=1)
                elif self.prediction_target == "window_mean":
                    answer[~constant] = path.mean(axis=1)
                else:
                    answer[~constant] = path[:, -1]
            out[rows] = answer
        return out

    def _fit(self, history, **kwargs: object) -> "_SeriesJobPredictor":
        """Seed errors/priors by backtesting over the training windows."""
        seed_errors: list[np.ndarray] = []
        priors = np.zeros(NUM_RESOURCES)
        for kind in range(NUM_RESOURCES):
            samples = list(window_samples(
                history,
                kind,
                self.input_slots,
                self.window_slots,
                target=self.prediction_target,
            ))
            targets = np.array([y for _window, y, _request in samples])
            pred = self._forecast_fractions([1.0 - window for window, _y, _r in samples])
            seed_errors.append(targets - np.clip(pred, 0.0, 1.0))
            if samples:
                priors[kind] = float(np.mean(targets))
        self.seed_errors = seed_errors
        self.prior_unused_fraction = priors
        return self

    def _unused_fractions(self, histories: list[np.ndarray]) -> np.ndarray:
        return self._forecast_fractions([
            1.0 - util[-self.input_slots :, kind]
            for util in histories
            for kind in range(NUM_RESOURCES)
        ]).reshape(len(histories), NUM_RESOURCES)


@dataclass
class EtsJobPredictor(_SeriesJobPredictor):
    """Holt linear-trend ETS per job series (RCCR's predictor, lifted)."""

    family = "ets"
    capabilities = frozenset({"serialize"})
    PARAMS = _SeriesJobPredictor.PARAMS + ("alpha", "beta")

    alpha: float = 0.3
    beta: float = 0.1

    def _path(self, block: np.ndarray) -> np.ndarray:
        return holt_path(block, self.alpha, self.beta, self.window_slots)


@dataclass
class MarkovJobPredictor(_SeriesJobPredictor):
    """Discrete-time Markov chain per job series (CloudScale's, lifted)."""

    family = "markov"
    capabilities = frozenset({"serialize"})
    PARAMS = _SeriesJobPredictor.PARAMS + ("n_bins",)

    n_bins: int = 8

    def _path(self, block: np.ndarray) -> np.ndarray:
        return markov_forecast(block, range(1, self.window_slots + 1), self.n_bins)
