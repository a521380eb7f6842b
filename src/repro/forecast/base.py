"""The job-level forecasting contract, and the skeleton every family shares.

:class:`Predictor` is the contract the schedulers consume: fit on a
historical :class:`~repro.trace.records.Trace`, then map each job's
utilization history to its predicted *unused* resources (Section
III-A's granularity).  It is a template: the base class owns the
batched per-job forecast (fitted check, young-job prior, clip to the
request), the ``predictor:fit`` span, ``from_config`` and the archive
round trip; a family writes ``_fit``, ``_unused_fractions`` and names
its hyper-parameters and fitted arrays in :attr:`Predictor.PARAMS` /
:attr:`Predictor.ARRAYS`.  That is what makes CORP's DNN+HMM, the
quantile predictor (Pace et al.), the classify-then-predict router
(Zhu & Fan) and the lifted Markov kernel interchangeable behind
:mod:`repro.forecast.registry` and the ``predictor=`` knob of the
public API.

Capability flags (class attribute :attr:`Predictor.capabilities`)
declare what the surrounding machinery may do with an implementation:

``"serialize"``
    :meth:`Predictor.save_npz` / :meth:`Predictor.load_npz` round trip
    the fitted state, so the on-disk
    :class:`~repro.core.predictor_store.PredictorStore` may persist it.
``"warm_start"``
    ``fit(..., warm_start=donor)`` seeds training from a previous fit.
"""

from __future__ import annotations

import json
from abc import ABC
from pathlib import Path
from typing import TYPE_CHECKING, Iterator, Sequence

import numpy as np

from ..cluster.resources import NUM_RESOURCES
from ..obs import OBS

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from ..trace.records import Trace

__all__ = ["Predictor", "window_samples"]

#: Format stamp of the generic ``save_npz`` payload archives (bumped on
#: incompatible layout changes; checked on load).
PAYLOAD_VERSION = 1


def window_samples(
    trace: "Trace",
    kind: int,
    input_slots: int,
    horizon: int,
    *,
    target: str = "window_min",
) -> Iterator[tuple[np.ndarray, float, float]]:
    """Sliding-window supervised samples from a historical trace.

    Yields ``(input_window, unused_fraction_target, request_amount)``
    per sample for resource ``kind`` — the exact loop CORP's
    ``build_training_set`` runs (Section III-A), shared here so every
    predictor family trains and seeds its error statistics on identical
    numerics.  ``target`` selects what "the amount of temporarily-unused
    resource in a time window" means:

    * ``"window_min"`` — the window's minimum unused fraction (the
      safely *allocatable* amount, conservative by construction);
    * ``"window_mean"`` — the window's mean unused fraction;
    * ``"point"`` — the unused fraction at exactly ``t + L``.
    """
    if target not in ("window_min", "window_mean", "point"):
        raise ValueError(f"unknown prediction target {target!r}")
    k = int(kind)
    span = input_slots + horizon
    for record in trace:
        util = record.utilization_series()[:, k]
        n = util.size
        if n < span:
            continue
        request = float(record.requested[k])
        for start in range(n - span + 1):
            window = util[start + input_slots : start + span]
            if target == "window_min":
                y = 1.0 - float(window.max())
            elif target == "window_mean":
                y = 1.0 - float(window.mean())
            else:
                y = 1.0 - float(window[-1])
            yield util[start : start + input_slots], y, request


class Predictor(ABC):
    """Job-level unused-resource predictor — the scheduler's contract.

    A predictor fits once on a historical trace (the offline phase) and
    then serves per-job forecasts: utilization history in, predicted
    unused ``(l,)`` row out.  A
    family implements :meth:`_fit` and :meth:`_unused_fractions` and
    declares :attr:`PARAMS` / :attr:`ARRAYS`; everything else here is
    shared.  Two attributes feed the scheduler's error machinery and
    must be populated by :meth:`_fit`:

    * :attr:`seed_errors` — per-resource held-out validation errors
      (actual − predicted unused fraction of the request), the
      "historical data with prediction error samples" Eq. 20/21 start
      from;
    * :attr:`prior_unused_fraction` — per-resource prior for jobs too
      young to carry evidence.
    """

    #: Registry family name — part of every store fingerprint, so
    #: artifacts from different families can never shadow each other.
    family: str = "base"
    #: What the surrounding machinery may do with this implementation
    #: (see the module docstring for the flag meanings).
    capabilities: frozenset[str] = frozenset()
    #: Constructor hyper-parameters, by keyword.  :meth:`from_config`
    #: fills the ones a ``CorpConfig`` also names; all of them are
    #: archived and handed back to the constructor on restore.
    PARAMS: tuple[str, ...] = ()
    #: Fitted array attributes beyond the two every family has.
    ARRAYS: tuple[str, ...] = ()

    #: Per-resource validation errors in request fractions.
    seed_errors: list[np.ndarray]
    #: Per-resource prior unused fraction of the training data.
    prior_unused_fraction: np.ndarray
    #: Jobs with fewer observed slots than this get the prior.
    min_history_slots: int

    # ------------------------------------------------------------------
    @classmethod
    def from_config(cls, config: object) -> "Predictor":
        """An unfitted instance from a ``CorpConfig`` (duck-typed).

        Every :attr:`PARAMS` name the config also carries is read from
        it (``quantile`` is ``CorpConfig.quantile``, the conservatism
        level); the rest keep their constructor defaults.
        """
        return cls(
            **{
                name: getattr(config, name)
                for name in cls.PARAMS
                if hasattr(config, name)
            }
        )

    @property
    def fitted(self) -> bool:
        """Whether :meth:`fit` has produced a servable model."""
        return len(self.seed_errors) == NUM_RESOURCES

    def fit(self, history: "Trace", **kwargs: object) -> "Predictor":
        """Offline phase: train on a historical trace; returns ``self``."""
        with OBS.span("predictor:fit"):
            return self._fit(history, **kwargs)

    def _fit(self, history: "Trace", **kwargs: object) -> "Predictor":
        """The family's training: sets :attr:`seed_errors` and
        :attr:`prior_unused_fraction`, returns ``self``."""
        raise NotImplementedError

    def predict_jobs_unused(
        self, histories: Sequence[np.ndarray], requests: Sequence[np.ndarray]
    ) -> np.ndarray:
        """Predicted unused amounts ``(n, l)`` of ``n`` jobs over the next window.

        ``histories[i]`` is job ``i``'s per-slot utilization ``(slots, l)``
        in fractions of its request; row ``i`` is in absolute amounts
        (fraction × request).  A job younger than
        :attr:`min_history_slots` gets the training prior: evidence-free
        but far closer than predicting zero, which would register as a
        large under-prediction and poison the Eq. 20 error statistics.
        The rest go to the family in one :meth:`_unused_fractions` call.
        """
        if not self.fitted:
            raise RuntimeError("predictor not fitted")
        histories = [np.atleast_2d(np.asarray(h, dtype=np.float64)) for h in histories]
        n = len(histories)
        grown = [i for i, h in enumerate(histories) if h.shape[0] >= self.min_history_slots]
        if OBS.enabled and n:
            OBS.count("predictor.predict", n)
            if len(grown) < n:
                OBS.count("predictor.prior_fallback", n - len(grown))
        fractions = np.tile(self.prior_unused_fraction, (n, 1))
        if grown:
            fractions[grown] = np.clip(
                self._unused_fractions([histories[i] for i in grown]), 0.0, 1.0
            )
        reqs = np.array(requests, dtype=np.float64).reshape(n, NUM_RESOURCES)
        return fractions * reqs

    def predict_job_unused(
        self, util_history: np.ndarray, request: np.ndarray
    ) -> np.ndarray:
        """Predicted unused amount of one job, an ``(l,)`` row: the
        ``n = 1`` case of :meth:`predict_jobs_unused`."""
        return self.predict_jobs_unused([util_history], [request])[0]

    def _unused_fractions(self, histories: list[np.ndarray]) -> np.ndarray:
        """The family's arithmetic: the ``(n, l)`` unused fractions
        forecast from ``n`` histories of at least
        :attr:`min_history_slots` slots each (the caller clips them)."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # generic serialization ("serialize" capability)
    # ------------------------------------------------------------------
    def to_payload(self) -> tuple[dict[str, np.ndarray], dict]:
        """The fitted state as ``(arrays, meta)`` for :meth:`save_npz`:
        seed errors, priors, :attr:`ARRAYS`, and :attr:`PARAMS` as
        ``meta["params"]``."""
        if not self.fitted:
            raise ValueError("predictor is not fitted")
        arrays = {
            f"seed_errors{k}": np.asarray(e, dtype=np.float64)
            for k, e in enumerate(self.seed_errors)
        }
        arrays["prior_unused_fraction"] = np.asarray(
            self.prior_unused_fraction, dtype=np.float64
        )
        for name in self.ARRAYS:
            arrays[name] = getattr(self, name)
        params = {name: getattr(self, name) for name in self.PARAMS}
        return arrays, {"params": params}

    def _restore_payload(
        self, arrays: dict[str, np.ndarray], meta: dict
    ) -> None:
        """Adopt the archived arrays (inverse of :meth:`to_payload`)."""
        self.seed_errors = []
        k = 0
        while f"seed_errors{k}" in arrays:
            self.seed_errors.append(np.asarray(arrays[f"seed_errors{k}"]).copy())
            k += 1
        for name in ("prior_unused_fraction", *self.ARRAYS):
            setattr(self, name, np.asarray(arrays[name]).copy())

    @classmethod
    def from_payload(
        cls, arrays: dict[str, np.ndarray], meta: dict, config: object = None
    ) -> "Predictor":
        """Rebuild a fitted instance from :meth:`to_payload` output."""
        predictor = cls(**meta["params"])
        predictor._restore_payload(arrays, meta)
        return predictor

    def save_npz(self, path: str | Path) -> None:
        """Serialize the fitted state to one ``.npz`` archive."""
        arrays, extra_meta = self.to_payload()
        meta = {
            "payload_version": PAYLOAD_VERSION,
            "family": self.family,
            **extra_meta,
        }
        arrays = dict(arrays)
        arrays["_meta"] = np.frombuffer(
            json.dumps(meta).encode("utf-8"), dtype=np.uint8
        )
        np.savez(Path(path), **arrays)

    @classmethod
    def load_npz(cls, path: str | Path, config: object = None) -> "Predictor":
        """Restore a predictor saved by :meth:`save_npz`."""
        with np.load(Path(path)) as archive:
            meta = json.loads(bytes(archive["_meta"]).decode("utf-8"))
            if meta.get("payload_version") != PAYLOAD_VERSION:
                raise ValueError(
                    f"unsupported payload version {meta.get('payload_version')!r}"
                )
            if meta.get("family") != cls.family:
                raise ValueError(
                    f"archive holds a {meta.get('family')!r} predictor, "
                    f"not {cls.family!r}"
                )
            arrays = {name: archive[name] for name in archive.files}
        return cls.from_payload(arrays, meta, config)
