"""Name-keyed registry of the predictor families.

One entry per :class:`~repro.forecast.base.Predictor` family, so the
public API, the CLI and the predictor cache all resolve the same
spelling — ``predictor="corp"`` / ``--predictor quantile`` — to the
same implementation.  The registered class's :attr:`family` is
fingerprinted into every predictor-store key, which is what keeps
artifacts from different families from ever shadowing each other.

Built-ins (registered on import, loaded lazily so this module never
imports :mod:`repro.core` at import time — the core package imports
:mod:`repro.forecast` first):

``"corp"``
    The paper's DNN+HMM pipeline (Section III-A) — the default.
``"quantile"``
    Data-driven empirical-quantile predictor (Pace et al.).
``"classify"``
    Classify-then-predict router (Zhu & Fan): k-means job classes
    feeding class-specialized sub-predictors.
``"markov"``
    Discrete-time Markov chain per job series (CloudScale's kernel).
"""

from __future__ import annotations

from importlib import import_module
from typing import TYPE_CHECKING, Callable

from .base import Predictor

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from ..core.config import CorpConfig

__all__ = [
    "available_predictors",
    "create_predictor",
    "predictor_class",
    "predictor_summaries",
    "register_predictor",
    "resolve_predictor",
]

#: ``name -> (class loader, one-line summary)``, in registration order.
_REGISTRY: dict[str, tuple[Callable[[], type[Predictor]], str]] = {}


def register_predictor(
    name: str, *, cls: Callable[[], type[Predictor]], summary: str = ""
) -> None:
    """Register a predictor family under ``name``.

    ``cls`` is a zero-argument loader returning the implementation class
    (lazy, so registrations never trigger heavyweight imports); its
    :meth:`~repro.forecast.base.Predictor.from_config` builds the
    unfitted instances.
    """
    if not name or not name.islower():
        raise ValueError(f"predictor name must be non-empty lowercase: {name!r}")
    _REGISTRY[name] = (cls, summary)


def available_predictors() -> tuple[str, ...]:
    """Registered predictor names, in registration order."""
    return tuple(_REGISTRY)


def predictor_summaries() -> dict[str, str]:
    """``name → one-line summary`` for help text and tables."""
    return {name: summary for name, (_cls, summary) in _REGISTRY.items()}


def predictor_class(name: str) -> type[Predictor]:
    """The implementation class registered under ``name``."""
    try:
        loader, _summary = _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown predictor {name!r} "
            f"(registered: {', '.join(available_predictors())})"
        ) from None
    return loader()


def create_predictor(
    name: str, config: "CorpConfig | None" = None
) -> Predictor:
    """An unfitted instance of the family registered under ``name``."""
    if config is None:
        from ..core.config import CorpConfig

        config = CorpConfig()
    return predictor_class(name).from_config(config)


def resolve_predictor(
    predictor: "str | Predictor", config: "CorpConfig | None" = None
) -> Predictor:
    """Accept the public API's two spellings: a name or an instance."""
    if isinstance(predictor, Predictor):
        return predictor
    if isinstance(predictor, str):
        return create_predictor(predictor, config)
    raise TypeError(
        f"predictor must be a registered name or a Predictor instance, "
        f"got {type(predictor).__name__}"
    )


def _lazy(module: str, attr: str) -> Callable[[], type[Predictor]]:
    """A loader importing ``module`` (relative to this package) on call."""
    return lambda: getattr(import_module(module, __package__), attr)


for _name, _module, _attr, _summary in (
    ("corp", "..core.predictor", "CorpPredictor",
     "DNN+HMM pipeline of the paper (Section III-A) — the default"),
    ("quantile", ".quantile", "QuantileHistogramPredictor",
     "data-driven empirical-quantile forecasts (Pace et al.)"),
    ("classify", ".classify", "ClassifyThenPredictPredictor",
     "k-means job classes routing to class-specialized predictors "
     "(Zhu & Fan)"),
    ("markov", ".jobwise", "MarkovJobPredictor",
     "discrete-time Markov chain per job series"),
):
    register_predictor(_name, cls=_lazy(_module, _attr), summary=_summary)
