"""Time-series forecasting substrate and the pluggable predictor zoo.

ETS (RCCR) and FFT-signature + Markov chain (CloudScale) as array
kernels over blocks of equal-length series (:mod:`.kernels`), adaptive
padding (CloudScale), plus the error windows of Eq. 18-21 that CORP and
RCCR share.

Since v1.6 the package also hosts the job-level
:class:`~repro.forecast.base.Predictor` protocol and its registry
(:mod:`repro.forecast.registry`): CORP's DNN+HMM, the data-driven
quantile predictor, the classify-then-predict router and the job-level
Markov-chain wrapper are name-keyed, interchangeable implementations
behind the public API's ``predictor=`` knob.
"""

from .base import Predictor, window_samples
from .classify import ClassifyThenPredictPredictor
from .confidence import PredictionErrorTracker, z_value
from .jobwise import MarkovJobPredictor
from .padding import AdaptivePadding
from .quantile import QuantileHistogramPredictor
from .registry import (
    available_predictors,
    create_predictor,
    predictor_class,
    predictor_summaries,
    register_predictor,
    resolve_predictor,
)

__all__ = [
    "Predictor",
    "window_samples",
    "PredictionErrorTracker",
    "z_value",
    "AdaptivePadding",
    "QuantileHistogramPredictor",
    "ClassifyThenPredictPredictor",
    "MarkovJobPredictor",
    "available_predictors",
    "create_predictor",
    "predictor_class",
    "predictor_summaries",
    "register_predictor",
    "resolve_predictor",
]
