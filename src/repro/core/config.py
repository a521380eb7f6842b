"""CORP configuration (paper Table II defaults).

| Parameter | Meaning                     | Paper setting |
|-----------|-----------------------------|---------------|
| h         | # of DNN layers             | 4 [33]        |
| N_n       | # of units per layer        | 50            |
| H         | # of HMM states             | 3             |
| P_th      | probability threshold       | 0.95          |
| θ         | significance level          | 5%-30%        |
| η         | confidence level            | 50%-90%       |
| l         | # of resource types         | 3             |

The prediction window ``L`` is 1 minute (Section III-A: "we chose to
make the predictions for a 1 minute window because short-lived jobs
typically run minutes"), i.e. 6 slots of 10 seconds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..cluster.resources import DEFAULT_WEIGHTS

__all__ = ["CorpConfig"]


@dataclass(frozen=True)
class CorpConfig:
    """All CORP knobs with Table II defaults."""

    #: Prediction window L, in slots (1 minute at 10-second slots).
    window_slots: int = 6
    #: DNN input width Δ — utilization of the last Δ slots.
    input_slots: int = 6
    #: Number of hidden layers ``h`` (Table II: 4).
    n_hidden_layers: int = 4
    #: Units per hidden layer ``N_n`` (Table II: 50).
    units_per_layer: int = 50
    #: Probability threshold ``P_th`` of Eq. 21 (Table II: 0.95).
    probability_threshold: float = 0.95
    #: Confidence level ``η`` for Eq. 18-19 (Table II sweeps 50%-90%).
    confidence_level: float = 0.9
    #: Prediction-error tolerance ``ε`` of Eq. 21 / Fig. 6, expressed as
    #: a fraction of VM capacity so one tolerance covers every resource
    #: type (δ samples are capacity-normalized; see provisioning base).
    error_tolerance: float = 0.75
    #: Resource weights ω_j of Eq. 2/4 (paper: 0.4/0.4/0.2).
    weights: np.ndarray = field(default_factory=lambda: DEFAULT_WEIGHTS.copy())
    #: Use the HMM peak/valley correction (ablation A1 switches it off).
    use_hmm_correction: bool = True
    #: Use complementary job packing (ablation A2 switches it off).
    use_packing: bool = True
    #: Use the confidence-interval lower bound (ablation A3).
    use_confidence_interval: bool = True
    #: Select VMs by smallest unused-resource volume; False = random
    #: feasible VM (ablation A4).
    use_volume_selection: bool = True
    #: HMM symbolization mode ("level" default; "range" is the paper's
    #: literal Δ_j rule — ablation A5 territory).
    hmm_mode: str = "level"
    #: What "the amount of temporarily-unused resource in a time window
    #: ΔW" means for the DNN target: the window mean (default — the
    #: amount expected-demand riders are accountable to), the window
    #: minimum (guaranteed-throughout; stricter — ablation), or the
    #: point value at t+L.  See
    #: :func:`repro.core.predictor.build_training_set`.
    prediction_target: str = "window_mean"
    #: Minimum slots of job history before the DNN predicts for it
    #: (younger jobs fall back to the training prior — conservative).
    min_history_slots: int = 2
    #: DNN training epochs / batch size for the offline phase.
    train_max_epochs: int = 60
    train_batch_size: int = 64
    #: Quantile level of the pinball training loss.  0.35 gives the DNN
    #: the mild built-in conservatism the Eq. 21 gate needs headroom
    #: for: with a coverage-exact estimator the gate's ceiling equals
    #: P_th and sampling noise keeps it shut.  0.5 (the median) is the
    #: neutral estimator, ``None`` trains with plain MSE (ablations).
    train_quantile: float | None = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.window_slots < 1 or self.input_slots < 1:
            raise ValueError("window_slots and input_slots must be >= 1")
        if self.n_hidden_layers < 1 or self.units_per_layer < 1:
            raise ValueError("DNN shape parameters must be >= 1")
        if not 0.0 < self.probability_threshold <= 1.0:
            raise ValueError("probability_threshold must be in (0, 1]")
        if not 0.0 < self.confidence_level < 1.0:
            raise ValueError("confidence_level must be in (0, 1)")
        if self.error_tolerance <= 0:
            raise ValueError("error_tolerance must be positive")
        if self.hmm_mode not in ("level", "range"):
            raise ValueError("hmm_mode must be 'level' or 'range'")
        if self.prediction_target not in ("window_min", "window_mean", "point"):
            raise ValueError(
                "prediction_target must be 'window_min', 'window_mean' or 'point'"
            )
        if self.train_quantile is not None and not 0.0 < self.train_quantile < 1.0:
            raise ValueError("train_quantile must be in (0, 1) or None")

    @property
    def significance_level(self) -> float:
        """``θ = 1 − η``."""
        return 1.0 - self.confidence_level

    @property
    def quantile(self) -> float:
        """The conservatism level as a quantile: ``train_quantile``, or
        the median when the DNN trains with plain MSE."""
        return 0.5 if self.train_quantile is None else float(self.train_quantile)

    def dnn_layer_sizes(self) -> list[int]:
        """Input → h hidden layers of N_n units → scalar output."""
        return (
            [self.input_slots]
            + [self.units_per_layer] * self.n_hidden_layers
            + [1]
        )
