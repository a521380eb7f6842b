"""CORP's unused-resource prediction pipeline (paper Section III-A).

Per resource type, a from-scratch DNN (Table II: 4 layers × 50 units,
sigmoid) maps a job's utilization over the last ``Δ`` slots to its
*unused fraction* of the request at horizon ``t + L``; an HMM predicts
the next fluctuation symbol and adjusts the estimate by
``± min(h − m, m − l)`` (Section III-A.1b).  Working in fractions of the
request makes one network serve jobs of every size; amounts are
recovered by multiplying with the job's request.

The confidence-interval step (Eq. 18-19) and preemption gate (Eq. 21)
operate at VM granularity in the scheduler (:mod:`repro.core.corp`),
where predictions are aggregated and compared to actuals.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..cluster.resources import NUM_RESOURCES, ResourceKind
from ..forecast.base import Predictor, window_samples
from ..hmm.discretize import CENTER, PEAK, VALLEY, ThresholdBands
from ..hmm.fluctuation import FluctuationPredictor
from ..hmm.model import HiddenMarkovModel
from ..obs import OBS
from ..nn.losses import MSE, pinball
from ..nn.network import FeedForwardNetwork
from ..nn.optimizers import Adam
from ..nn.training import TrainingConfig, train
from ..trace.records import Trace
from .config import CorpConfig
from .predictor_store import FIT_FIELDS

__all__ = ["CorpPredictor", "build_training_set"]


def build_training_set(
    trace: Trace,
    kind: ResourceKind,
    input_slots: int,
    horizon: int,
    *,
    target: str = "window_min",
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sliding-window supervised pairs from a historical trace.

    Returns ``(X, y, requests)``: inputs are ``input_slots`` of
    utilization, targets the unused *fraction* over the prediction
    window ``ΔW = (t, t+L]`` (Section III-A), and ``requests`` the
    per-sample request amount (to convert validation errors back to
    absolute units).  Records shorter than ``input_slots + horizon``
    contribute nothing.

    The sample loop itself lives in
    :func:`repro.forecast.base.window_samples`, which every predictor
    family shares — identical numerics across the zoo.  ``target``
    selects what "the amount of temporarily-unused resource in a time
    window" means (``"window_min"`` / ``"window_mean"`` / ``"point"``;
    see :func:`~repro.forecast.base.window_samples`).
    """
    xs: list[np.ndarray] = []
    ys: list[float] = []
    reqs: list[float] = []
    for window, y, request in window_samples(
        trace, int(kind), input_slots, horizon, target=target
    ):
        xs.append(window)
        ys.append(y)
        reqs.append(request)
    if not xs:
        return (
            np.zeros((0, input_slots)),
            np.zeros((0, 1)),
            np.zeros(0),
        )
    return np.asarray(xs), np.asarray(ys)[:, None], np.asarray(reqs)


def _unfitted_fluctuation(cfg: CorpConfig, kind: int) -> FluctuationPredictor:
    """Resource ``kind``'s HMM stage as the config alone determines it."""
    return FluctuationPredictor(
        window=cfg.window_slots,
        mode=cfg.hmm_mode,  # type: ignore[arg-type]
        seed=cfg.seed + 101 * (kind + 1),
    )


@dataclass
class CorpPredictor(Predictor):
    """Fit-once DNN + HMM predictor over all resource types.

    Registered as family ``"corp"`` — the default implementation of the
    :class:`~repro.forecast.base.Predictor` protocol.
    """

    family = "corp"
    capabilities = frozenset({"serialize", "warm_start"})

    config: CorpConfig = field(default_factory=CorpConfig)
    networks: list[FeedForwardNetwork] = field(default_factory=list)
    fluctuation: list[FluctuationPredictor] = field(default_factory=list)
    #: Per-resource validation errors (actual − predicted unused
    #: fraction of the request) collected during fit — seeds the
    #: scheduler's Eq. 20/21 trackers so the gate has "historical data
    #: with prediction error samples" from the start, as the paper
    #: assumes.
    seed_errors: list[np.ndarray] = field(default_factory=list)
    #: Per-resource mean unused fraction of the training data — the
    #: prior used for jobs too young to feed the DNN.
    prior_unused_fraction: np.ndarray = field(
        default_factory=lambda: np.zeros(NUM_RESOURCES)
    )

    # ------------------------------------------------------------------
    @property
    def fitted(self) -> bool:
        """Whether :meth:`fit` has produced all per-resource models."""
        return len(self.networks) == NUM_RESOURCES

    @property
    def min_history_slots(self) -> int:
        return self.config.min_history_slots

    def _fit(
        self,
        history: Trace,
        *,
        warm_start: "CorpPredictor | None" = None,
    ) -> "CorpPredictor":
        """Offline phase: train one DNN and one HMM per resource type.

        The three DNNs train as one stack (:func:`repro.nn.training.
        train`), each with its own seeds (net init ``seed + kind``,
        split and shuffle ``seed + 17·(kind+1)``) and early stop, and
        bit-identical to training them one at a time; a resource with
        fewer than 8 samples keeps its initial weights.

        ``warm_start`` seeds each resource's DNN weights and HMM
        parameters from a previously fitted predictor (typically the
        nearest artifact in a :class:`~repro.core.predictor_store.
        PredictorStore`) before training — the validation-convergence
        early stop then skips the epochs the donor already paid for.
        The donor must share the architecture; incompatible or unfitted
        donors are ignored.  Warm-started fits converge to (slightly)
        different weights than cold fits, so warm starting is strictly
        opt-in.
        """
        cfg = self.config
        donor = warm_start
        if donor is not None and (
            not donor.fitted
            or donor.config.dnn_layer_sizes() != cfg.dnn_layer_sizes()
        ):
            donor = None
        samples = [
            build_training_set(
                history, kind, cfg.input_slots, cfg.window_slots,
                target=cfg.prediction_target,
            )[:2]
            for kind in ResourceKind
        ]
        # The HMMs learn from jobs long enough to show whole windows.
        series = [
            r.utilization_series() for r in history if r.n_samples >= 2 * cfg.window_slots
        ]
        networks: list[FeedForwardNetwork] = []
        warm_models: list[HiddenMarkovModel | None] = [None] * NUM_RESOURCES
        for kind in ResourceKind:
            net = FeedForwardNetwork(cfg.dnn_layer_sizes(), seed=cfg.seed + kind)
            if donor is not None:
                net.set_weights(donor.networks[int(kind)].get_weights())
                donor_fp = donor.fluctuation[int(kind)]
                if donor_fp.fitted:
                    warm_models[kind] = donor_fp.model
            networks.append(net)
        if donor is not None:
            OBS.count("predictor.warm_start")
        trained = [k for k, (x, _y) in enumerate(samples) if x.shape[0] >= 8]
        training = dict(zip(trained, train(
            [networks[k] for k in trained],
            [samples[k][0] for k in trained],
            [samples[k][1] for k in trained],
            [
                TrainingConfig(
                    max_epochs=cfg.train_max_epochs,
                    batch_size=cfg.train_batch_size,
                    patience=8,
                    seed=cfg.seed + 17 * (k + 1),
                )
                for k in trained
            ],
            optimizer=Adam(0.01),
            loss=MSE if cfg.train_quantile is None else pinball(cfg.train_quantile),
        )))
        self.networks = networks
        # One HMM per resource (its own seed); unfitted without series,
        # which disables its corrections.
        self.fluctuation = [_unfitted_fluctuation(cfg, kind) for kind in ResourceKind]
        for kind, fp in enumerate(self.fluctuation):
            histories = tuple(1.0 - util[:, kind] for util in series)
            if histories:
                fp.fit(histories, init_model=warm_models[kind])
        # Fraction-of-request errors: the same commitment-fraction units
        # the scheduler's Eq. 20 trackers use.
        self.seed_errors = [
            y.ravel() - self.networks[k].predict(x).ravel() if k in training else np.zeros(0)
            for k, (x, y) in enumerate(samples)
        ]
        # Prior at the same conservatism level the DNN trains to.
        self.prior_unused_fraction = np.array([
            float(np.quantile(y, cfg.quantile)) if y.size else 0.0 for _x, y in samples
        ])
        if OBS.enabled:
            for kind, (x, _y) in zip(ResourceKind, samples):
                errors = self.seed_errors[kind]
                run = training.get(int(kind))
                OBS.emit(
                    "predictor_fit",
                    resource=kind.label.lower(),
                    rmse=float(np.sqrt(np.mean(errors**2)))
                    if errors.size else None,
                    hmm_fitted=bool(self.fluctuation[kind].fitted),
                    n_samples=int(x.shape[0]),
                    epochs=run.n_epochs if run else 0,
                    stopped_early=bool(run.stopped_early) if run else False,
                    val_loss=float(run.final_val_loss) if run else None,
                    warm_start=donor is not None,
                )
        return self

    # ------------------------------------------------------------------
    @classmethod
    def from_config(cls, config: CorpConfig) -> "CorpPredictor":
        return cls(config=config)

    def to_payload(self) -> tuple[dict[str, np.ndarray], dict]:
        """Adds the DNN weights and each fitted HMM to the base payload.

        Of the config only :data:`~repro.core.predictor_store.FIT_FIELDS`
        is stored — the fields that shape the models; the rest are
        runtime knobs the scheduler owns.
        """
        arrays, meta = super().to_payload()
        meta["config"] = {name: getattr(self.config, name) for name in FIT_FIELDS}
        for k in range(NUM_RESOURCES):
            for li, params in enumerate(self.networks[k].get_weights()):
                for name, value in params.items():
                    arrays[f"net{k}/layer{li}/{name}"] = value
            fp = self.fluctuation[k]
            if fp.fitted:  # an absent hmm{k}/* block restores as unfitted
                arrays[f"hmm{k}/A"] = fp.model.transition
                arrays[f"hmm{k}/B"] = fp.model.emission
                arrays[f"hmm{k}/pi"] = fp.model.initial
                arrays[f"hmm{k}/bands"] = np.array(
                    [fp.bands.minimum, fp.bands.mean, fp.bands.maximum]
                )
                arrays[f"hmm{k}/correction_scale"] = np.array(fp.correction_scale)
        return arrays, meta

    @classmethod
    def from_payload(
        cls, arrays: dict[str, np.ndarray], meta: dict, config: object = None
    ) -> "CorpPredictor":
        """Bit-identical restore; ``config=None`` rebuilds it from the
        stored fit fields (runtime knobs at their defaults)."""
        if config is None:
            config = CorpConfig(**meta["config"])
        predictor = cls(config=config)
        predictor._restore_payload(arrays, meta)
        for k in range(NUM_RESOURCES):
            net = FeedForwardNetwork(config.dnn_layer_sizes(), seed=config.seed)
            net.set_weights([
                {name: arrays[f"net{k}/layer{li}/{name}"] for name in layer.parameters()}
                for li, layer in enumerate(net.layers)
            ])
            predictor.networks.append(net)
            fp = _unfitted_fluctuation(config, k)
            if f"hmm{k}/A" in arrays:
                fp.model = HiddenMarkovModel(
                    arrays[f"hmm{k}/A"].copy(),
                    arrays[f"hmm{k}/B"].copy(),
                    arrays[f"hmm{k}/pi"].copy(),
                )
                lo, mean, hi = (float(v) for v in arrays[f"hmm{k}/bands"])
                fp.bands = ThresholdBands(minimum=lo, mean=mean, maximum=hi)
                fp.correction_scale = float(arrays[f"hmm{k}/correction_scale"])
            predictor.fluctuation.append(fp)
        return predictor

    # ------------------------------------------------------------------
    def _unused_fractions(self, histories: list[np.ndarray]) -> np.ndarray:
        """DNN forecast at ``t + L`` per job and resource, HMM-corrected:
        per resource one network pass and one HMM decode over all jobs."""
        cfg = self.config
        width = cfg.input_slots
        windows = np.empty((NUM_RESOURCES, len(histories), width))
        for i, util in enumerate(histories):
            # Young jobs are left-padded with their earliest observation.
            tail = util[-width:].T
            windows[:, i, width - tail.shape[1] :] = tail
            windows[:, i, : width - tail.shape[1]] = tail[:, :1]
        out = np.empty((len(histories), NUM_RESOURCES))
        for kind in range(NUM_RESOURCES):
            out[:, kind] = self.networks[kind].predict_rows(windows[kind])[:, 0]
            fp = self.fluctuation[kind]
            if cfg.use_hmm_correction and fp.fitted:
                symbols = fp.predict_next_symbols(
                    [1.0 - util[-3 * cfg.window_slots :, kind] for util in histories]
                )
                # Indexed by symbol: PEAK, CENTER, VALLEY are 0, 1, 2.
                shifts = np.array([fp.correction(s) for s in (PEAK, CENTER, VALLEY)])
                out[:, kind] += shifts[symbols]
                if OBS.enabled:
                    OBS.count("predictor.hmm_correction", len(histories))
        return out
