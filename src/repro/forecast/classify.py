"""Classify-then-predict router (after Zhu & Fan).

A job is first *classified* — seeded k-means over standardized trace
features (per-resource utilization mean and spread, log length,
burstiness) — and the forecast is then routed to the class's
specialized sub-predictor: the empirical-quantile base forecast plus a
per-(class, resource) calibration shift learned from that class's
training windows.  Routing a job to a model trained on jobs *like it*
is what beats one monolithic model in Zhu & Fan's study; here the
sub-predictors stay deliberately simple (shifted quantiles) so the
family isolates the value of the classification itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..cluster.resources import NUM_RESOURCES
from ..obs import OBS
from .base import Predictor, window_samples
from .quantile import recent_unused_quantiles

__all__ = ["ClassifyThenPredictPredictor"]

#: Feature vector length: mean + std per resource, log length, burstiness.
_N_FEATURES = 2 * NUM_RESOURCES + 2


def _job_features(util: np.ndarray) -> np.ndarray:
    """The classification features of one utilization series ``(n, l)``."""
    means = util.mean(axis=0)
    stds = util.std(axis=0)
    length = np.log1p(float(util.shape[0]))
    overall = util.mean(axis=1)
    burst = float(np.abs(np.diff(overall)).mean()) if overall.size > 1 else 0.0
    return np.concatenate([means, stds, [length, burst]])


def _kmeans(
    features: np.ndarray, k: int, seed: int, n_iter: int = 20
) -> tuple[np.ndarray, np.ndarray]:
    """Seeded from-scratch k-means; returns ``(centroids, assignment)``.

    Deterministic by construction: seeded init, fixed iteration count,
    ties broken toward the lowest centroid index, and an emptied class
    keeps its previous centroid.
    """
    n = features.shape[0]
    k = max(1, min(k, n))
    rng = np.random.default_rng(seed)
    centroids = features[rng.choice(n, size=k, replace=False)].copy()
    assignment = np.zeros(n, dtype=np.int64)
    for _ in range(n_iter):
        distances = np.linalg.norm(
            features[:, None, :] - centroids[None, :, :], axis=2
        )
        assignment = distances.argmin(axis=1)
        for c in range(k):
            members = features[assignment == c]
            if members.shape[0]:
                centroids[c] = members.mean(axis=0)
    return centroids, assignment


def _calibrate_class(
    samples: list[tuple[list[float], list[float]]],
) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """Per-resource shift (median residual) and calibrated errors of one
    class, from its ``(base_predictions, targets)`` per resource."""
    shifts = np.zeros(NUM_RESOURCES)
    errors: list[np.ndarray] = []
    for kind, (preds, targets) in enumerate(samples):
        if targets:
            residual = np.asarray(targets) - np.asarray(preds)
            shifts[kind] = float(np.median(residual))
            errors.append(residual - shifts[kind])
        else:
            errors.append(np.zeros(0))
    return shifts, tuple(errors)


@dataclass
class ClassifyThenPredictPredictor(Predictor):
    """k-means job classes feeding class-specialized quantile predictors."""

    family = "classify"
    capabilities = frozenset({"serialize"})
    PARAMS = (
        "quantile", "input_slots", "window_slots", "prediction_target",
        "min_history_slots", "n_classes", "seed",
    )
    ARRAYS = ("centroids", "feature_mean", "feature_scale", "class_shifts")

    quantile: float = 0.5
    input_slots: int = 6
    window_slots: int = 6
    prediction_target: str = "window_mean"
    min_history_slots: int = 2
    n_classes: int = 3
    seed: int = 0

    seed_errors: list[np.ndarray] = field(default_factory=list)
    prior_unused_fraction: np.ndarray = field(
        default_factory=lambda: np.zeros(NUM_RESOURCES)
    )
    #: Standardized-feature centroids ``(k, _N_FEATURES)``.
    centroids: np.ndarray = field(
        default_factory=lambda: np.zeros((0, _N_FEATURES))
    )
    feature_mean: np.ndarray = field(
        default_factory=lambda: np.zeros(_N_FEATURES)
    )
    feature_scale: np.ndarray = field(
        default_factory=lambda: np.ones(_N_FEATURES)
    )
    #: Per-(class, resource) calibration shifts.
    class_shifts: np.ndarray = field(
        default_factory=lambda: np.zeros((0, NUM_RESOURCES))
    )

    def __post_init__(self) -> None:
        if not 0.0 < self.quantile < 1.0:
            raise ValueError("quantile must be in (0, 1)")
        if self.n_classes < 1:
            raise ValueError("n_classes must be >= 1")

    # ------------------------------------------------------------------
    def _fit(self, history, **kwargs: object) -> "ClassifyThenPredictPredictor":
        """Classify the training jobs, then calibrate per class."""
        records = [r for r in history if r.n_samples >= 2]
        features = (
            np.array([_job_features(r.utilization_series()) for r in records])
            if records
            else np.zeros((0, _N_FEATURES))
        )
        if features.shape[0]:
            self.feature_mean = features.mean(axis=0)
            scale = features.std(axis=0)
            scale[scale < 1e-12] = 1.0
            self.feature_scale = scale
            standardized = (features - self.feature_mean) / self.feature_scale
            self.centroids, assignment = _kmeans(
                standardized, self.n_classes, self.seed
            )
        else:
            self.feature_mean = np.zeros(_N_FEATURES)
            self.feature_scale = np.ones(_N_FEATURES)
            self.centroids = np.zeros((1, _N_FEATURES))
            assignment = np.zeros(0, dtype=np.int64)
        k = self.centroids.shape[0]

        # Base (un-shifted) quantile predictions per class and resource.
        by_class: list[list[tuple[list[float], list[float]]]] = [
            [([], []) for _ in range(NUM_RESOURCES)] for _ in range(k)
        ]
        pooled: list[list[float]] = [[] for _ in range(NUM_RESOURCES)]
        for record, class_id in zip(records, assignment):
            for kind in range(NUM_RESOURCES):
                preds, targets = by_class[class_id][kind]
                for window, y, _request in window_samples(
                    [record],
                    kind,
                    self.input_slots,
                    self.window_slots,
                    target=self.prediction_target,
                ):
                    unused = 1.0 - window
                    preds.append(float(np.quantile(unused, self.quantile)))
                    targets.append(y)
                    pooled[kind].append(y)
        results = [_calibrate_class(by_class[c]) for c in range(k)]
        self.class_shifts = np.array([shifts for shifts, _errors in results])
        self.seed_errors = [
            np.concatenate([errors[kind] for _shifts, errors in results])
            if any(errors[kind].size for _shifts, errors in results)
            else np.zeros(0)
            for kind in range(NUM_RESOURCES)
        ]
        self.prior_unused_fraction = np.array(
            [
                float(np.quantile(np.asarray(ys), self.quantile)) if ys else 0.0
                for ys in pooled
            ]
        )
        if OBS.enabled:
            sizes = np.bincount(assignment, minlength=k) if records else []
            OBS.emit(
                "predictor_fit",
                family=self.family,
                n_classes=int(k),
                class_sizes=[int(s) for s in sizes],
                n_jobs=len(records),
            )
        return self

    # ------------------------------------------------------------------
    def classify(self, util_history: np.ndarray) -> int:
        """The k-means class of one job's observed utilization."""
        features = _job_features(np.atleast_2d(util_history))
        standardized = (features - self.feature_mean) / self.feature_scale
        distances = np.linalg.norm(self.centroids - standardized, axis=1)
        return int(distances.argmin())

    def _unused_fractions(self, histories: list[np.ndarray]) -> np.ndarray:
        """Class-routed quantile forecasts with each class's calibration."""
        out = []
        for util in histories:
            class_id = self.classify(util)
            shifts = (
                self.class_shifts[class_id]
                if class_id < self.class_shifts.shape[0]
                else np.zeros(NUM_RESOURCES)
            )
            out.append(
                recent_unused_quantiles(util, self.input_slots, self.quantile) + shifts
            )
        return np.array(out)
