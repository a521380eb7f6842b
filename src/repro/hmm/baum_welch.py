"""Baum-Welch re-estimation of ``A, B, π``.

Section III-A.1b: "we use the method in [30] to re-estimate the
parameters A, B, π" — [30] is Stamp's *A Revealing Introduction to
Hidden Markov Models*, i.e. standard scaled Baum-Welch EM.  Supports
multiple observation sequences (each job contributes one).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .forward_backward import forward_backward_block
from .model import HiddenMarkovModel

__all__ = ["BaumWelchConfig", "BaumWelchResult", "baum_welch"]


@dataclass(frozen=True)
class BaumWelchConfig:
    """EM loop knobs."""

    max_iterations: int = 50
    #: Stop when the total log-likelihood improves by less than this.
    tolerance: float = 1e-4
    #: Dirichlet-style smoothing added to every accumulated count so no
    #: probability collapses to exactly zero (keeps Viterbi/forward well
    #: defined on unseen symbols).
    smoothing: float = 1e-6

    def __post_init__(self) -> None:
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")
        if self.smoothing < 0:
            raise ValueError("smoothing must be non-negative")


@dataclass
class BaumWelchResult:
    """Fitted model and the EM trajectory."""

    model: HiddenMarkovModel
    log_likelihoods: list[float] = field(default_factory=list)
    converged: bool = False

    @property
    def n_iterations(self) -> int:
        """EM iterations actually run."""
        return len(self.log_likelihoods)


def _length_blocks(sequences: Sequence[np.ndarray]) -> list[tuple[np.ndarray, np.ndarray]]:
    """``(positions, (n, T) block)`` per distinct sequence length; the
    positions are the block rows' indices in ``sequences``."""
    by_length: dict[int, list[int]] = {}
    for i, seq in enumerate(sequences):
        by_length.setdefault(seq.size, []).append(i)
    return [(np.array(rows), np.stack([sequences[i] for i in rows])) for rows in by_length.values()]


def _em_step(
    model: HiddenMarkovModel,
    sequences: Sequence[np.ndarray],
    blocks: list[tuple[np.ndarray, np.ndarray]],
    smoothing: float,
) -> tuple[HiddenMarkovModel, float]:
    """One EM iteration over all sequences; returns (new model, total LL).

    One :func:`forward_backward_block` per length block of
    :func:`_length_blocks`.  Each sequence's statistics are a row, added
    in input order by ``np.add.at`` (unbuffered, sequential): the floats
    of visiting the sequences one at a time."""
    H, M = model.n_states, model.n_symbols
    A, B = model.transition, model.emission
    # Per sequence: log-likelihood, γ_0, Σ_{t<T} γ_t, Σ_t γ_t, Σ_t ξ_t.
    rows = np.empty((len(sequences), 1 + 3 * H + H * H))
    gammas: list[np.ndarray] = [np.empty(0)] * len(sequences)
    for positions, obs in blocks:
        alpha, beta, gamma, scales = forward_backward_block(model, obs)
        # ξ_t(i, j) ∝ α_t(i) A_ij B_j(O_{t+1}) β_{t+1}(j); its sum over t
        # is one einsum (zero for a one-symbol sequence).
        b_next = B[:, obs[:, 1:]].transpose(1, 2, 0)  # (n, T-1, H)
        weighted = beta[:, 1:] * b_next / scales[:, 1:, None]
        xi = A * np.einsum("nti,ntj->nij", alpha[:, :-1], weighted)
        rows[positions] = np.concatenate([
            np.log(scales).sum(axis=1)[:, None], gamma[:, 0],
            gamma[:, :-1].sum(axis=1), gamma.sum(axis=1), xi.reshape(len(obs), -1),
        ], axis=1)
        for row, position in enumerate(positions):
            gammas[position] = gamma[row]

    acc = np.repeat([0.0, smoothing, smoothing * H, smoothing * M, smoothing], [1, H, H, H, H * H])
    np.add.at(acc[None], np.zeros(len(rows), dtype=np.intp), rows)
    total_ll, pi_acc, gamma_sum_not_last, gamma_sum_all, trans_num = np.split(
        acc, np.cumsum([1, H, H, H])
    )
    emit_num = np.full((H, M), smoothing)
    # emit_num[j, k] += Σ_{t: O_t=k} γ_t(j), sequence after sequence
    np.add.at(emit_num.T, np.concatenate(sequences), np.concatenate(gammas))

    new_A = trans_num.reshape(H, H) / gamma_sum_not_last[:, None]
    new_B = emit_num / gamma_sum_all[:, None]
    new_pi = pi_acc / (len(sequences) + smoothing * H)
    # Renormalize against accumulated smoothing drift.
    new_A /= new_A.sum(axis=1, keepdims=True)
    new_B /= new_B.sum(axis=1, keepdims=True)
    new_pi /= new_pi.sum()
    return HiddenMarkovModel(new_A, new_B, new_pi), float(total_ll[0])


def baum_welch(
    model: HiddenMarkovModel,
    sequences: Sequence[np.ndarray] | np.ndarray,
    config: BaumWelchConfig | None = None,
) -> BaumWelchResult:
    """Fit ``model`` to one or more observation sequences by EM.

    The returned model is the final iterate; ``log_likelihoods[i]`` is
    the data log-likelihood *under the model at the start of iteration
    i*, so the list is (weakly) increasing when EM behaves.
    """
    cfg = config or BaumWelchConfig()
    if isinstance(sequences, np.ndarray) and sequences.ndim == 1:
        sequences = [sequences]
    # Validated once: EM keeps the model's symbol count.
    sequences = [model.validate_observations(s) for s in sequences]
    if not sequences:
        raise ValueError("need at least one observation sequence")
    blocks = _length_blocks(sequences)

    result = BaumWelchResult(model=model.copy())
    previous_ll = -np.inf
    for _ in range(cfg.max_iterations):
        new_model, ll = _em_step(result.model, sequences, blocks, cfg.smoothing)
        result.log_likelihoods.append(ll)
        result.model = new_model
        if ll - previous_ll < cfg.tolerance and np.isfinite(previous_ll):
            result.converged = True
            break
        previous_ll = ll
    return result
