"""One network at a time: the serial training loop, kept as an oracle.

:func:`repro.nn.training.train` trains several networks as one stack;
this is the loop it replaced, one network and one optimizer slot per
parameter array, and each stacked network must end with the bits it
reaches here (``tests/nn/test_stacked_training.py``).
"""

from __future__ import annotations

import numpy as np

from repro.nn.losses import MSE, Loss
from repro.nn.network import FeedForwardNetwork
from repro.nn.training import TrainingConfig, TrainingHistory, train_validation_split


class KeyedSGD:
    """Plain gradient descent with the per-array ``step(param_id, ...)`` call."""

    def __init__(self, learning_rate: float = 0.1) -> None:
        self.learning_rate = learning_rate

    def step(self, param_id: str, param: np.ndarray, grad: np.ndarray) -> None:
        param -= self.learning_rate * grad


class KeyedAdam:
    """Adam with one moment slot per named parameter array."""

    def __init__(self, learning_rate=0.001, beta1=0.9, beta2=0.999, eps=1e-8) -> None:
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}
        self._t: dict[str, int] = {}

    def step(self, param_id: str, param: np.ndarray, grad: np.ndarray) -> None:
        m = self._m.setdefault(param_id, np.zeros_like(param))
        v = self._v.setdefault(param_id, np.zeros_like(param))
        t = self._t.get(param_id, 0) + 1
        self._t[param_id] = t
        m *= self.beta1
        m += (1.0 - self.beta1) * grad
        v *= self.beta2
        v += (1.0 - self.beta2) * grad * grad
        m_hat = m / (1.0 - self.beta1**t)
        v_hat = v / (1.0 - self.beta2**t)
        param -= self.learning_rate * m_hat / (np.sqrt(v_hat) + self.eps)


def train_batch(
    network: FeedForwardNetwork, x, y, *, optimizer=None, loss: Loss = MSE
) -> float:
    """One forward/backward/update cycle over a batch; returns the loss."""
    optimizer = optimizer or KeyedSGD()
    y = np.atleast_2d(np.asarray(y, dtype=np.float64))
    pred = network.forward(x)
    if pred.shape != y.shape:
        raise ValueError(f"target shape {y.shape} != prediction {pred.shape}")
    value = loss.fn(pred, y)
    network.backward(loss.grad(pred, y))
    for idx, layer in enumerate(network.layers):
        params = layer.parameters()
        grads = layer.gradients()
        for name in params:
            optimizer.step(f"layer{idx}/{name}", params[name], grads[name])
    return value


def evaluate(network: FeedForwardNetwork, x, y, *, loss: Loss = MSE) -> float:
    """Loss on a held-out set (no parameter updates)."""
    y = np.atleast_2d(np.asarray(y, dtype=np.float64))
    return loss.fn(network.predict(x), y)


def train(
    network: FeedForwardNetwork,
    x: np.ndarray,
    y: np.ndarray,
    config: TrainingConfig | None = None,
    *,
    optimizer=None,
    loss: Loss = MSE,
) -> TrainingHistory:
    """Train one network with validation-based early stop."""
    cfg = config or TrainingConfig()
    optimizer = optimizer or KeyedSGD()
    rng = np.random.default_rng(cfg.seed)
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    y = np.atleast_2d(np.asarray(y, dtype=np.float64))
    if y.shape[0] != x.shape[0]:
        raise ValueError("x and y row counts differ")

    if cfg.validation_fraction > 0.0 and x.shape[0] >= 5:
        x_tr, y_tr, x_val, y_val = train_validation_split(
            x, y, cfg.validation_fraction, rng
        )
        if x_val.shape[0] == 0:
            x_val, y_val = x_tr, y_tr
    else:
        x_tr, y_tr = x, y
        x_val, y_val = x, y

    history = TrainingHistory()
    best_val = float("inf")
    best_weights = network.get_weights()
    stale = 0
    n = x_tr.shape[0]
    for epoch in range(cfg.max_epochs):
        order = rng.permutation(n) if cfg.shuffle else np.arange(n)
        epoch_loss = 0.0
        n_batches = 0
        for start in range(0, n, cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            epoch_loss += train_batch(
                network, x_tr[batch], y_tr[batch], optimizer=optimizer, loss=loss
            )
            n_batches += 1
        history.train_loss.append(epoch_loss / max(n_batches, 1))
        val = evaluate(network, x_val, y_val, loss=loss)
        history.val_loss.append(val)
        if val < best_val - cfg.min_delta:
            best_val = val
            best_weights = network.get_weights()
            history.best_epoch = epoch
            stale = 0
        else:
            stale += 1
            if stale >= cfg.patience:
                history.stopped_early = True
                break
    network.set_weights(best_weights)
    if history.best_epoch < 0:
        history.best_epoch = 0
    return history
