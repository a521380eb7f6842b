"""Time-series forecasting substrate and the pluggable predictor zoo.

ETS (RCCR), FFT-signature + Markov chain + adaptive padding
(CloudScale), plus the error windows of Eq. 18-21 that CORP and RCCR
share.

Since v1.6 the package also hosts the job-level
:class:`~repro.forecast.base.Predictor` protocol and its registry
(:mod:`repro.forecast.registry`): CORP's DNN+HMM, the data-driven
quantile predictor, the classify-then-predict router, job-level
ETS/Markov wrappers and the ``"auto"`` online selector are all
name-keyed, interchangeable implementations behind the public API's
``predictor=`` knob.
"""

from .base import Forecaster, Predictor, window_samples
from .classify import ClassifyThenPredictPredictor
from .confidence import PredictionErrorTracker, z_value
from .ets import HoltLinear, SimpleExponentialSmoothing
from .fft_signature import FftSignaturePredictor
from .jobwise import EtsJobPredictor, MarkovJobPredictor
from .markov_chain import MarkovChainPredictor
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
from .selection import OnlinePredictorSelector

__all__ = [
    "Forecaster",
    "Predictor",
    "window_samples",
    "PredictionErrorTracker",
    "z_value",
    "HoltLinear",
    "SimpleExponentialSmoothing",
    "FftSignaturePredictor",
    "MarkovChainPredictor",
    "AdaptivePadding",
    "QuantileHistogramPredictor",
    "ClassifyThenPredictPredictor",
    "EtsJobPredictor",
    "MarkovJobPredictor",
    "OnlinePredictorSelector",
    "available_predictors",
    "create_predictor",
    "predictor_class",
    "predictor_summaries",
    "register_predictor",
    "resolve_predictor",
]
