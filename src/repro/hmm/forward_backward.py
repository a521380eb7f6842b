"""Scaled forward-backward recursions (paper Eq. 12-15).

Computes the forward variable ``α_t(i) = P(O_1..O_t, q_t = S_i | λ)``
(Eq. 14), the backward variable ``β_t(i)`` (Eq. 15) and the state
posterior ``γ_t(i) = α_t(i) β_t(i) / P(O | λ)`` (Eq. 13), using
per-step scaling [Rabiner 1989, the paper's ref 29] so long sequences do
not underflow.  One sequence is the ``n = 1`` case of a block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import HiddenMarkovModel

__all__ = ["ForwardBackwardResult", "forward_backward", "forward_backward_block",
           "sequence_log_likelihood"]


@dataclass(frozen=True)
class ForwardBackwardResult:
    """Scaled recursions plus derived quantities.

    ``alpha``/``beta`` are the *scaled* variables (each forward row sums
    to 1); ``scales[t]`` is the normalizer of step ``t``, so the sequence
    log-likelihood is ``sum(log(scales))``.  ``gamma`` is the exact state
    posterior of Eq. 13 (scaling cancels).
    """

    alpha: np.ndarray  # (T, H) scaled forward variables
    beta: np.ndarray   # (T, H) scaled backward variables
    gamma: np.ndarray  # (T, H) state posteriors (Eq. 13)
    scales: np.ndarray  # (T,) per-step normalizers
    log_likelihood: float


def forward_backward_block(
    model: HiddenMarkovModel, obs: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The recursions over an ``(n, T)`` block of validated sequences of
    one length: ``(alpha, beta, gamma, scales)``, ``(n, T, H)`` x 3 and
    ``(n, T)``.  Each step is a stacked matmul, which runs every row
    through the vector-matrix (forward) or matrix-vector (backward)
    kernel one sequence takes, so row ``i`` is the floats of
    ``obs[i:i + 1]`` alone."""
    n, T = obs.shape
    A = model.transition
    b = model.emission[:, obs].transpose(1, 2, 0)  # b[i, t, j] = B_j(O_t) of row i
    alpha = np.empty((n, T, model.n_states))
    beta = np.empty_like(alpha)
    scales = np.empty((n, T))

    # --- forward (Eq. 14, induction per Rabiner) -----------------------
    alpha[:, 0] = model.initial * b[:, 0]
    for t in range(T):
        if t:
            alpha[:, t] = (alpha[:, t - 1, None] @ A)[:, 0] * b[:, t]
        scales[:, t] = alpha[:, t].sum(axis=1)
        if (scales[:, t] <= 0.0).any():
            raise ValueError(f"observation at t={t} impossible under the model (zero forward mass)")
        alpha[:, t] /= scales[:, t, None]

    # --- backward (Eq. 15), scaled with the same normalizers ----------
    beta[:, T - 1] = 1.0
    for t in range(T - 2, -1, -1):
        beta[:, t] = ((A * b[:, t + 1, None]) @ beta[:, t + 1, :, None])[..., 0]
        beta[:, t] /= scales[:, t + 1, None]

    # --- posterior (Eq. 13) --------------------------------------------
    gamma = alpha * beta
    gamma /= gamma.sum(axis=2, keepdims=True)
    return alpha, beta, gamma, scales


def forward_backward(
    model: HiddenMarkovModel, observations: np.ndarray
) -> ForwardBackwardResult:
    """Run the scaled α/β recursions over one observation sequence."""
    obs = model.validate_observations(observations)
    alpha, beta, gamma, scales = forward_backward_block(model, obs[None])
    return ForwardBackwardResult(
        alpha[0], beta[0], gamma[0], scales[0], float(np.log(scales[0]).sum())
    )


def sequence_log_likelihood(model: HiddenMarkovModel, observations: np.ndarray) -> float:
    """``log P(O | λ)``; ``-inf`` for a sequence the model cannot emit."""
    obs = model.validate_observations(observations)
    try:
        return forward_backward(model, obs).log_likelihood
    except ValueError:
        return float("-inf")
