"""Name-keyed registry of the predictor families.

One entry per :class:`~repro.forecast.base.Predictor` family, so the
public API, the CLI and the predictor cache all resolve the same
spelling — ``predictor="corp"`` / ``--predictor quantile`` — to the
same implementation.  The registered class's :attr:`family` is
fingerprinted into every predictor-store key, which is what keeps
artifacts from different families from ever shadowing each other.

Built-ins (registered on import, constructed lazily so this module
never imports :mod:`repro.core` at import time — the core package
imports :mod:`repro.forecast` first):

``"corp"``
    The paper's DNN+HMM pipeline (Section III-A) — the default.
``"quantile"``
    Data-driven empirical-quantile histogram predictor (Pace et al.).
``"classify"``
    Classify-then-predict router (Zhu & Fan): k-means job classes
    feeding class-specialized sub-predictors.
``"ets"``
    Holt linear-trend exponential smoothing per job series.
``"markov"``
    Discrete-time Markov chain per job series.
``"auto"``
    Online selector over {corp, quantile, classify}, switching on the
    rolling Eq. 20 error windows.
"""

from __future__ import annotations

from dataclasses import dataclass
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


@dataclass(frozen=True)
class _Entry:
    """One registered family: class loader, factory, one-line summary."""

    cls: Callable[[], type[Predictor]]
    factory: Callable[["CorpConfig"], Predictor]
    summary: str


_REGISTRY: dict[str, _Entry] = {}


def register_predictor(
    name: str,
    *,
    cls: Callable[[], type[Predictor]],
    factory: Callable[["CorpConfig"], Predictor],
    summary: str = "",
) -> None:
    """Register a predictor family under ``name``.

    ``cls`` is a zero-argument loader returning the implementation class
    (lazy, so registrations never trigger heavyweight imports);
    ``factory`` builds an unfitted instance from a
    :class:`~repro.core.config.CorpConfig`.
    """
    if not name or not name.islower():
        raise ValueError(f"predictor name must be non-empty lowercase: {name!r}")
    _REGISTRY[name] = _Entry(cls=cls, factory=factory, summary=summary)


def available_predictors() -> tuple[str, ...]:
    """Registered predictor names, in registration order."""
    return tuple(_REGISTRY)


def predictor_summaries() -> dict[str, str]:
    """``name → one-line summary`` for help text and tables."""
    return {name: entry.summary for name, entry in _REGISTRY.items()}


def _entry(name: str) -> _Entry:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown predictor {name!r} "
            f"(registered: {', '.join(available_predictors())})"
        ) from None


def predictor_class(name: str) -> type[Predictor]:
    """The implementation class registered under ``name``."""
    return _entry(name).cls()


def create_predictor(
    name: str, config: "CorpConfig | None" = None
) -> Predictor:
    """An unfitted instance of the family registered under ``name``."""
    if config is None:
        from ..core.config import CorpConfig

        config = CorpConfig()
    return _entry(name).factory(config)


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


# ----------------------------------------------------------------------
# built-in families (lazy loaders; see the module docstring)
# ----------------------------------------------------------------------


def _corp_cls() -> type[Predictor]:
    from ..core.predictor import CorpPredictor

    return CorpPredictor


def _quantile_cls() -> type[Predictor]:
    from .quantile import QuantileHistogramPredictor

    return QuantileHistogramPredictor


def _classify_cls() -> type[Predictor]:
    from .classify import ClassifyThenPredictPredictor

    return ClassifyThenPredictPredictor


def _ets_cls() -> type[Predictor]:
    from .jobwise import EtsJobPredictor

    return EtsJobPredictor


def _markov_cls() -> type[Predictor]:
    from .jobwise import MarkovJobPredictor

    return MarkovJobPredictor


def _auto_cls() -> type[Predictor]:
    from .selection import OnlinePredictorSelector

    return OnlinePredictorSelector


register_predictor(
    "corp",
    cls=_corp_cls,
    factory=lambda config: _corp_cls().from_config(config),
    summary="DNN+HMM pipeline of the paper (Section III-A) — the default",
)
register_predictor(
    "quantile",
    cls=_quantile_cls,
    factory=lambda config: _quantile_cls().from_config(config),
    summary="data-driven empirical-quantile forecasts (Pace et al.)",
)
register_predictor(
    "classify",
    cls=_classify_cls,
    factory=lambda config: _classify_cls().from_config(config),
    summary="k-means job classes routing to class-specialized predictors "
    "(Zhu & Fan)",
)
register_predictor(
    "ets",
    cls=_ets_cls,
    factory=lambda config: _ets_cls().from_config(config),
    summary="Holt linear-trend exponential smoothing per job series",
)
register_predictor(
    "markov",
    cls=_markov_cls,
    factory=lambda config: _markov_cls().from_config(config),
    summary="discrete-time Markov chain per job series",
)
register_predictor(
    "auto",
    cls=_auto_cls,
    factory=lambda config: _auto_cls().from_config(config),
    summary="online selection over {corp, quantile, classify} on rolling "
    "Eq. 20 error windows",
)
