"""Online per-workload predictor selection (registry name ``"auto"``).

The selector wraps several fitted predictor families and, per workload,
keeps the one whose rolling Eq. 20 error window is best.  Every
prediction call doubles as a *backtest*: the tail of the job's observed
utilization is held out, every candidate forecasts it from the
truncated history, and the per-candidate
:class:`~repro.forecast.confidence.PredictionErrorTracker` windows
record the resulting δ samples — the same commitment-fraction error
currency the scheduler's preemption gate runs on.  At window boundaries
(:meth:`OnlinePredictorSelector.observe_slot`, driven by the scheduler)
the candidates' error rates are compared and the active predictor
switches when another has been better by more than the hysteresis
margin for long enough — no flapping on noise.

Determinism: candidates are seeded fits, backtests run in scheduler
order, and the switch rule is pure arithmetic over the tracker windows,
so the same seed and trace reproduce the same switch slots; every
switch is appended to :attr:`switch_log` and emitted as a
``predictor_switch`` OBS event.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from ..cluster.resources import NUM_RESOURCES, ResourceVector
from ..cluster.scheduler import share_within
from ..obs import OBS
from .base import Predictor
from .confidence import PredictionErrorTracker

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from ..core.config import CorpConfig

__all__ = ["OnlinePredictorSelector", "DEFAULT_CANDIDATES"]

#: Families the ``"auto"`` predictor arbitrates between by default.
DEFAULT_CANDIDATES: tuple[str, ...] = ("corp", "quantile", "classify")

#: Seed-error samples preloaded per tracker (matches the scheduler's
#: own seeding depth).
_SEED_DEPTH = 150


class OnlinePredictorSelector(Predictor):
    """Rolling-error arbitration across registered predictor families."""

    family = "auto"
    capabilities = frozenset({"online_selection"})

    def __init__(
        self,
        *,
        config: "CorpConfig | None" = None,
        candidates: Sequence[str] = DEFAULT_CANDIDATES,
        hysteresis: float = 0.05,
        min_dwell_windows: int = 2,
    ) -> None:
        if not candidates:
            raise ValueError("at least one candidate predictor is required")
        if hysteresis < 0.0:
            raise ValueError("hysteresis must be non-negative")
        if min_dwell_windows < 1:
            raise ValueError("min_dwell_windows must be >= 1")
        if config is None:
            from ..core.config import CorpConfig

            config = CorpConfig()
        self.config = config
        self.candidate_names: tuple[str, ...] = tuple(candidates)
        self.hysteresis = hysteresis
        self.min_dwell_windows = min_dwell_windows
        self._candidates: dict[str, Predictor] = {}
        self._trackers: dict[str, list[PredictionErrorTracker]] = {}
        self.active: str = self.candidate_names[0]
        self._initial_active: str = self.candidate_names[0]
        self._windows_since_switch = 0
        #: ``(slot, previous, active, scores)`` per switch, in order.
        self.switch_log: list[dict] = []

    @classmethod
    def from_config(cls, config: "CorpConfig") -> "OnlinePredictorSelector":
        return cls(config=config)

    # ------------------------------------------------------------------
    @property
    def fitted(self) -> bool:
        return len(self._candidates) == len(self.candidate_names) and all(
            p.fitted for p in self._candidates.values()
        )

    @property
    def seed_errors(self) -> list[np.ndarray]:
        """The active candidate's validation errors (scheduler seeding)."""
        return self._active_predictor().seed_errors

    @property
    def prior_unused_fraction(self) -> np.ndarray:
        return self._active_predictor().prior_unused_fraction

    def _active_predictor(self) -> Predictor:
        try:
            return self._candidates[self.active]
        except KeyError:
            raise RuntimeError("predictor not fitted") from None

    def candidate(self, name: str) -> Predictor:
        """A fitted candidate by registry name (introspection/tests)."""
        return self._candidates[name]

    # ------------------------------------------------------------------
    def fit(
        self,
        history,
        *,
        fit_candidate: "Callable[[str], Predictor] | None" = None,
        **kwargs: object,
    ) -> "OnlinePredictorSelector":
        """Fit every candidate family on the same history.

        ``fit_candidate(name)`` lets a
        :class:`~repro.experiments.runner.PredictorCache` route the
        per-family fits through its own memory/store tiers, so the
        selector shares artifacts with plain single-family runs.
        """
        from .registry import create_predictor

        for name in self.candidate_names:
            if fit_candidate is not None:
                predictor = fit_candidate(name)
            else:
                predictor = create_predictor(name, self.config).fit(history)
            if not predictor.fitted:
                raise ValueError(f"candidate {name!r} did not fit")
            self._candidates[name] = predictor
        # Initial selection: lowest Eq. 20-style error rate over the
        # held-out seed errors (deterministic; ties keep listing order).
        self._initial_active = min(
            self.candidate_names, key=lambda n: self._seed_error_rate(n)
        )
        self.reset()
        return self

    def _seed_error_rate(self, name: str) -> float:
        rates = [
            1.0 - share_within(errors, self.config.error_tolerance)
            for errors in self._candidates[name].seed_errors
            if len(errors)
        ]
        return float(np.mean(rates)) if rates else 1.0

    def reset(self) -> None:
        """Restore the post-fit state: run-to-run reproducibility.

        The scheduler calls this in ``prepare`` so a cached selector
        instance reused across runs starts every run from the same
        trackers and the same active predictor.
        """
        self.active = self._initial_active
        self._windows_since_switch = 0
        self.switch_log = []
        self._trackers = {}
        for name in self.candidate_names:
            trackers = [PredictionErrorTracker() for _ in range(NUM_RESOURCES)]
            for kind, errors in enumerate(self._candidates[name].seed_errors):
                trackers[kind].seed(np.asarray(errors)[-_SEED_DEPTH:])
            self._trackers[name] = trackers

    # ------------------------------------------------------------------
    def _aggregate_actual(self, window: np.ndarray) -> float:
        target = self.config.prediction_target
        if target == "window_min":
            return 1.0 - float(window.max())
        if target == "point":
            return 1.0 - float(window[-1])
        return 1.0 - float(window.mean())

    def _backtest(
        self, util_history: np.ndarray, request: ResourceVector
    ) -> None:
        """Hold out the trailing window; score every candidate on it."""
        horizon = self.config.window_slots
        past = util_history[:-horizon]
        if past.shape[0] < max(self.config.min_history_slots, 1):
            return
        req = request.as_array()
        actual = np.array(
            [
                self._aggregate_actual(util_history[-horizon:, kind])
                for kind in range(NUM_RESOURCES)
            ]
        )
        for name in self.candidate_names:
            predicted = self._candidates[name].predict_job_unused(past, request)
            pred = predicted.as_array()
            for kind in range(NUM_RESOURCES):
                if req[kind] <= 0.0:
                    continue
                self._trackers[name][kind].record(
                    pred[kind] / req[kind], actual[kind]
                )

    def predict_jobs_unused(
        self, histories: Sequence[np.ndarray], requests: Sequence[ResourceVector]
    ) -> np.ndarray:
        """Backtest all candidates job by job, in order; answer with the
        active one (one batch: a backtest never switches it)."""
        if not self.fitted:
            raise RuntimeError("predictor not fitted")
        histories = [np.atleast_2d(np.asarray(h, dtype=np.float64)) for h in histories]
        for util_history, request in zip(histories, requests):
            if util_history.shape[0] > self.config.window_slots:
                self._backtest(util_history, request)
        return self._active_predictor().predict_jobs_unused(histories, requests)

    # ------------------------------------------------------------------
    def error_rate(self, name: str) -> float:
        """Rolling Eq. 20 error rate of one candidate (lower is better)."""
        tolerance = self.config.error_tolerance
        probs = [
            t.probability_within(tolerance) for t in self._trackers[name]
        ]
        finite = [p for p in probs if not np.isnan(p)]
        if not finite:
            return 1.0
        return 1.0 - float(np.mean(finite))

    def observe_slot(self, slot: int) -> None:
        """Window-boundary arbitration with hysteresis (scheduler hook)."""
        if slot == 0 or slot % self.config.window_slots != 0:
            return
        self._windows_since_switch += 1
        if self._windows_since_switch < self.min_dwell_windows:
            return
        scores = {name: self.error_rate(name) for name in self.candidate_names}
        best = min(self.candidate_names, key=lambda n: scores[n])
        if best == self.active:
            return
        if scores[self.active] - scores[best] <= self.hysteresis:
            return
        previous = self.active
        self.active = best
        self._windows_since_switch = 0
        record = {
            "slot": int(slot),
            "previous": previous,
            "active": best,
            "scores": {n: round(s, 6) for n, s in scores.items()},
        }
        self.switch_log.append(record)
        if OBS.enabled:
            OBS.emit("predictor_switch", **record)
            OBS.count("predictor.switch")
