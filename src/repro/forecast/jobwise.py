"""Job-level Markov-chain predictor over CloudScale's series kernel.

CloudScale already runs Markov-chain forecasting at VM granularity;
this family lifts the same kernel (:mod:`repro.forecast.kernels`) to
the :class:`~repro.forecast.base.Predictor` contract (per-*job*
unused-resource forecasts), so the baseline's predictor competes in the
registry on equal footing with CORP's DNN+HMM, swappable inside the
CORP scheduler itself.

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
from .kernels import by_length, markov_forecast

__all__ = ["MarkovJobPredictor"]


@dataclass
class MarkovJobPredictor(Predictor):
    """Discrete-time Markov chain per job series (CloudScale's, lifted)."""

    family = "markov"
    capabilities = frozenset({"serialize"})
    PARAMS = (
        "input_slots", "window_slots", "prediction_target", "min_history_slots",
        "n_bins",
    )

    input_slots: int = 6
    window_slots: int = 6
    prediction_target: str = "window_mean"
    min_history_slots: int = 2
    n_bins: int = 8

    seed_errors: list[np.ndarray] = field(default_factory=list)
    prior_unused_fraction: np.ndarray = field(
        default_factory=lambda: np.zeros(NUM_RESOURCES)
    )

    def _forecast_fractions(self, unused: Sequence[np.ndarray]) -> np.ndarray:
        """Each unused series' forecast over the next window, aggregated
        to :attr:`prediction_target`."""
        out = np.empty(len(unused))
        for rows in by_length(unused).values():
            block = np.array([unused[i] for i in rows])
            # A constant history needs no fit: the forecast is the
            # constant (and the Markov chain's single-bin path is
            # degenerate).
            constant = np.ptp(block, axis=1) < 1e-12
            answer = block[:, -1].copy()
            if not constant.all():
                path = markov_forecast(
                    block[~constant], range(1, self.window_slots + 1), self.n_bins
                )
                if self.prediction_target == "window_min":
                    answer[~constant] = path.min(axis=1)
                elif self.prediction_target == "window_mean":
                    answer[~constant] = path.mean(axis=1)
                else:
                    answer[~constant] = path[:, -1]
            out[rows] = answer
        return out

    def _fit(self, history, **kwargs: object) -> "MarkovJobPredictor":
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
