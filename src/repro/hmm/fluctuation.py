"""HMM-based fluctuation prediction of unused resource (Section III-A.1b).

Pipeline: symbolize historical unused-resource series into
peak/center/valley observations, fit ``λ = (A, B, π)`` by Baum-Welch,
then at prediction time decode the recent observation window with
Viterbi and estimate the next symbol's distribution (Eq. 17):

.. math::

    E_{P_{T+1}}(k) = \\sum_j P(q_{T+1} = S_j \\mid q_T = q^*_L)\\, b_j(k)

The predicted symbol is the arg-max; CORP then adjusts the DNN's
prediction by ``± min(h − m, m − l)`` for peak/valley symbols.

Two symbolization modes are supported:

* ``"range"`` — the paper's literal rule: symbolize each window's
  fluctuation range ``Δ_j``.
* ``"level"`` (default) — symbolize each window's *mean level* against
  the same bands.  This makes the peak/valley correction direction
  semantically consistent (a "peak" symbol means the unused amount is
  high, so the prediction is adjusted up), and is what the ablation
  benchmark compares against the literal rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Sequence

import numpy as np

from .baum_welch import BaumWelchConfig, baum_welch
from .discretize import CENTER, PEAK, VALLEY, ThresholdBands
from .model import HiddenMarkovModel, default_fluctuation_model

__all__ = ["FluctuationPredictor", "SymbolizeMode"]

SymbolizeMode = Literal["range", "level"]


@dataclass
class FluctuationPredictor:
    """Fit-once, predict-many fluctuation model for one resource type."""

    window: int = 6
    mode: SymbolizeMode = "level"
    seed: int = 0
    model: HiddenMarkovModel | None = None
    bands: ThresholdBands | None = None
    #: ``min(h − m, m − l)`` where h/m/l are the highest/mean/lowest
    #: unused amounts *within a period* (the paper's wording) — computed
    #: as medians of per-window amplitudes over the training histories,
    #: so the correction is scaled to typical window fluctuations rather
    #: than global extremes.
    correction_scale: float = 0.0

    def __post_init__(self) -> None:
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if self.mode not in ("range", "level"):
            raise ValueError(f"unknown mode {self.mode!r}")

    # ------------------------------------------------------------------
    @property
    def fitted(self) -> bool:
        """Whether both the HMM and the bands have been fitted."""
        return self.model is not None and self.bands is not None

    def _symbols(self, windows: np.ndarray) -> np.ndarray:
        """One symbol per ``window``-slot row of ``(..., n_windows,
        window)`` blocks: the row's range (``"range"``) or mean level."""
        assert self.bands is not None
        if self.mode == "range":
            return self.bands.symbolize_many(windows.max(-1) - windows.min(-1))
        return self.bands.symbolize_many(windows.mean(axis=-1))

    # ------------------------------------------------------------------
    def fit(
        self,
        histories: Sequence[np.ndarray],
        *,
        em_config: BaumWelchConfig | None = None,
        init_model: HiddenMarkovModel | None = None,
    ) -> "FluctuationPredictor":
        """Fit bands + HMM on historical unused-resource series.

        Each element of ``histories`` is one job's (or VM's) 1-D unused
        series; bands are fitted on the pooled values, the HMM on the
        per-series observation sequences.

        ``init_model`` warm-starts Baum-Welch from a previously fitted
        ``λ = (A, B, π)`` instead of the seeded default — EM's
        log-likelihood convergence check then stops after the few
        iterations the shifted data actually needs.  The donor is
        copied, never mutated.
        """
        series_list = [np.asarray(h, dtype=np.float64).ravel() for h in histories]
        series_list = [s for s in series_list if s.size > 0]
        if not series_list:
            raise ValueError("no historical data to fit on")
        pooled = np.concatenate(series_list)
        self.bands = ThresholdBands.from_history(pooled)
        self.correction_scale = self._windowed_correction_scale(series_list)
        w = self.window
        sequences = [  # the symbols of each series' full windows
            obs for s in series_list
            if (obs := self._symbols(s[: s.size // w * w].reshape(-1, w))).size >= 2
        ]
        if init_model is not None:
            self.model = HiddenMarkovModel(
                init_model.transition.copy(),
                init_model.emission.copy(),
                init_model.initial.copy(),
            )
        else:
            self.model = default_fluctuation_model(seed=self.seed)
        if sequences:
            result = baum_welch(self.model, sequences, em_config)
            self.model = result.model
        return self

    def _windowed_correction_scale(self, series_list: list[np.ndarray]) -> float:
        """Median per-window ``h − m`` and ``m − l``, then their min."""
        highs: list[float] = []
        lows: list[float] = []
        for s in series_list:
            n_windows = s.size // self.window
            if n_windows == 0:
                continue
            trimmed = s[: n_windows * self.window].reshape(n_windows, self.window)
            means = trimmed.mean(axis=1)
            highs.extend(trimmed.max(axis=1) - means)
            lows.extend(means - trimmed.min(axis=1))
        if not highs:
            return 0.0
        return float(min(np.median(highs), np.median(lows)))

    # ------------------------------------------------------------------
    def predict_next_symbol(self, recent: np.ndarray) -> int:
        """The next window's symbol from one recent unused series: the
        ``n = 1`` case of :meth:`predict_next_symbols`."""
        return int(self.predict_next_symbols([np.asarray(recent).ravel()])[0])

    def predict_next_symbols(self, recents: Sequence[np.ndarray]) -> np.ndarray:
        """Predict each series' next window symbol (CENTER, no correction,
        without a full window): the last Viterbi state ``q*_L`` of its
        observations, through Eq. 17.

        Series with equally many windows decode as one max-product
        forward pass, ``log A / B / π`` taken once.  Max and add per
        element are the floats Viterbi computes, and both arg-maxes take
        the first maximum, so ``q*_L`` is ``viterbi(...).states[-1]``.
        """
        if not self.fitted:
            raise RuntimeError("predictor not fitted")
        assert self.model is not None
        with np.errstate(divide="ignore"):
            log_a = np.log(self.model.transition)
            log_b = np.log(self.model.emission)
            log_pi = np.log(self.model.initial)
        # Eq. 17's arg-max per last state ``s``, one ``A[s] @ B`` each.
        n_states = self.model.n_states
        next_symbol = np.array([self.next_symbol_distribution(s).argmax() for s in range(n_states)])
        symbols = np.full(len(recents), CENTER, dtype=np.int64)
        by_windows: dict[int, list[int]] = {}
        for i, recent in enumerate(recents):
            by_windows.setdefault(len(recent) // self.window, []).append(i)
        for n_windows, rows in by_windows.items():
            if n_windows == 0:
                continue  # no full window: no evidence, no correction
            span = n_windows * self.window
            block = np.array([recents[i][:span] for i in rows], dtype=np.float64)
            obs = self._symbols(block.reshape(len(rows), n_windows, self.window))
            delta = log_pi + log_b[:, obs[:, 0]].T
            for t in range(1, n_windows):
                delta = (delta[:, :, None] + log_a).max(axis=1) + log_b[:, obs[:, t]].T
            symbols[rows] = next_symbol[delta.argmax(axis=1)]
        return symbols

    def next_symbol_distribution(self, last_state: int) -> np.ndarray:
        """Eq. 17's ``E_{P_{T+1}}(k)`` given the last decoded state."""
        if not self.fitted:
            raise RuntimeError("predictor not fitted")
        assert self.model is not None
        if not 0 <= last_state < self.model.n_states:
            raise ValueError(f"state index {last_state} out of range")
        # Σ_j P(q_{T+1}=S_j | q_T) · b_j(k) — one matrix-vector product.
        return self.model.transition[last_state] @ self.model.emission

    # ------------------------------------------------------------------
    def correction(self, symbol: int) -> float:
        """Signed adjustment for a predicted symbol (Section III-A.1b).

        ``+min(h−m, m−l)`` for a peak of unused resource, the negative
        for a valley, zero for center.
        """
        if not self.fitted:
            raise RuntimeError("predictor not fitted")
        assert self.bands is not None
        magnitude = self.correction_scale
        if symbol == PEAK:
            return magnitude
        if symbol == VALLEY:
            return -magnitude
        if symbol == CENTER:
            return 0.0
        raise ValueError(f"unknown symbol {symbol}")
