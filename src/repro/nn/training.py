"""Epoch-based training loop with validation convergence.

Section III-A.1a: "the training continues for multiple training epochs,
processing the training data set each time, until the validation set
error converges to a low value."  :func:`train` implements exactly that:
shuffled mini-batch epochs, a held-out validation split, and early stop
when the validation loss stops improving (with best-weights restore),
for several networks at once (CORP trains one per resource type).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .losses import MSE, Loss
from .network import FeedForwardNetwork
from .optimizers import SGD, Optimizer

__all__ = ["TrainingConfig", "TrainingHistory", "train", "train_validation_split"]


@dataclass(frozen=True)
class TrainingConfig:
    """Knobs of the epoch loop."""

    max_epochs: int = 200
    batch_size: int = 32
    #: Fraction of the data held out for validation-convergence checks.
    validation_fraction: float = 0.2
    #: Stop when validation loss has not improved by ``min_delta`` for
    #: ``patience`` consecutive epochs.
    patience: int = 10
    min_delta: float = 1e-5
    shuffle: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not 0.0 <= self.validation_fraction < 1.0:
            raise ValueError("validation_fraction must be in [0, 1)")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")


@dataclass
class TrainingHistory:
    """Per-epoch losses and the stopping outcome."""

    train_loss: list[float] = field(default_factory=list)
    val_loss: list[float] = field(default_factory=list)
    best_epoch: int = -1
    stopped_early: bool = False

    @property
    def n_epochs(self) -> int:
        """Number of epochs actually run."""
        return len(self.train_loss)

    @property
    def final_val_loss(self) -> float:
        """Validation loss at the best epoch (NaN before training)."""
        return self.val_loss[self.best_epoch] if self.val_loss else float("nan")


def train_validation_split(
    x: np.ndarray, y: np.ndarray, fraction: float, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Random split into (x_train, y_train, x_val, y_val)."""
    n = x.shape[0]
    if y.shape[0] != n:
        raise ValueError("x and y must have the same number of rows")
    n_val = int(round(n * fraction))
    idx = rng.permutation(n)
    val_idx, train_idx = idx[:n_val], idx[n_val:]
    if train_idx.size == 0:
        raise ValueError("validation fraction leaves no training data")
    return x[train_idx], y[train_idx], x[val_idx], y[val_idx]


def _split(
    x: np.ndarray, y: np.ndarray, cfg: TrainingConfig, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One network's training and validation sets (both the whole data
    when there is too little to hold any out)."""
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
        return x_tr, y_tr, x_val, y_val
    return x, y, x, y


class _Stack:
    """``K`` networks of one architecture as one network of stacked layers.

    The parameters live in one ``(K, P)`` buffer, row ``k`` network
    ``k``'s weights and biases layer by layer; each layer of :attr:`net`
    holds ``(K, out, in)`` / ``(K, out)`` views into it.
    """

    def __init__(self, networks: Sequence[FeedForwardNetwork]) -> None:
        def shapes(net: FeedForwardNetwork) -> list[list[tuple[int, ...]]]:
            return [[p.shape for p in layer.parameters().values()] for layer in net.layers]

        template = networks[0]
        self.shapes = shapes(template)
        if any(shapes(net) != self.shapes for net in networks):
            raise ValueError("stacked networks must share one architecture")
        self.net = copy.copy(template)
        self.net.layers = [copy.copy(layer) for layer in template.layers]
        self.adopt(np.stack([
            np.concatenate([p.ravel() for layer in net.layers for p in layer.parameters().values()])
            for net in networks
        ]))

    def adopt(self, params: np.ndarray) -> None:
        """Make ``params`` the buffer the stacked layers view."""
        self.params = params
        offset = 0
        for layer, shapes in zip(self.net.layers, self.shapes):
            views = []
            for shape in shapes:
                size = int(np.prod(shape))
                views.append(params[:, offset : offset + size].reshape(-1, *shape))
                offset += size
            layer.weights, layer.biases = views

    def grads(self) -> np.ndarray:
        """The last backward pass's gradients, laid out as :attr:`params`."""
        k = len(self.params)
        return np.concatenate(
            [g.reshape(k, -1) for layer in self.net.layers for g in layer.gradients().values()],
            axis=1,
        )

    @staticmethod
    def write(network: FeedForwardNetwork, row: np.ndarray) -> None:
        """Copy one buffer row back into ``network``'s own arrays."""
        offset = 0
        for layer in network.layers:
            for value in layer.parameters().values():
                value[...] = row[offset : offset + value.size].reshape(value.shape)
                offset += value.size


def train(
    networks: Sequence[FeedForwardNetwork],
    x: Sequence[np.ndarray],
    y: Sequence[np.ndarray],
    configs: Sequence[TrainingConfig] | None = None,
    *,
    optimizer: Optimizer | None = None,
    loss: Loss = MSE,
) -> list[TrainingHistory]:
    """Train ``networks[k]`` on ``(x[k], y[k])`` under ``configs[k]``, all
    in lockstep, each with validation-based early stop.

    The networks share an architecture, a data shape and the batching
    knobs (``batch_size``, ``validation_fraction``); each keeps its own
    split and shuffle stream (``configs[k].seed``), its own early stop
    and its own best weights, and leaves the stack when it stops.  A
    step runs every remaining network's batch as one stacked pass and
    one optimizer update of the shared ``(K, P)`` buffer, so each
    network ends with the bits it reaches trained alone.  Returns one
    :class:`TrainingHistory` per network; each network is left holding
    the weights of its best validation epoch.
    """
    networks = list(networks)
    configs = list(configs) if configs is not None else [TrainingConfig()] * len(networks)
    if not len(x) == len(y) == len(configs) == len(networks):
        raise ValueError("one x, y and config per network")
    if not networks:
        return []
    if len({(c.batch_size, c.validation_fraction) for c in configs}) > 1:
        raise ValueError("stacked networks must share batch_size and validation_fraction")
    optimizer = optimizer or SGD()
    rngs = [np.random.default_rng(cfg.seed) for cfg in configs]
    splits = [_split(xk, yk, cfg, rng) for xk, yk, cfg, rng in zip(x, y, configs, rngs)]
    if len({tuple(part.shape for part in split) for split in splits}) > 1:
        raise ValueError("stacked networks need equally shaped data")
    x_tr, y_tr, x_val, y_val = (np.stack(part) for part in zip(*splits))

    stack = _Stack(networks)
    histories = [TrainingHistory() for _ in networks]
    best_val = [float("inf")] * len(networks)
    best = list(stack.params.copy())
    stale = [0] * len(networks)
    active = list(range(len(networks)))  # network of each stack row
    n = x_tr.shape[1]
    batch_size = configs[0].batch_size
    for epoch in range(max(cfg.max_epochs for cfg in configs)):
        orders = np.array([
            rngs[k].permutation(n) if configs[k].shuffle else np.arange(n) for k in active
        ])
        rows = np.array(active)[:, None]
        epoch_loss = [0.0] * len(active)
        n_batches = 0
        for start in range(0, n, batch_size):
            batch = orders[:, start : start + batch_size]
            targets = y_tr[rows, batch]
            pred = stack.net.forward(x_tr[rows, batch])
            if pred.shape != targets.shape:
                raise ValueError(
                    f"target shape {targets.shape[1:]} != prediction {pred.shape[1:]}"
                )
            for i in range(len(active)):
                epoch_loss[i] += loss.fn(pred[i], targets[i])
            stack.net.backward(loss.grad(pred, targets))
            optimizer.step(stack.params, stack.grads())
            n_batches += 1
        val_pred = stack.net.predict(x_val[active])
        keep = []
        for i, k in enumerate(active):
            history, cfg = histories[k], configs[k]
            history.train_loss.append(epoch_loss[i] / max(n_batches, 1))
            val = loss.fn(val_pred[i], y_val[k])
            history.val_loss.append(val)
            if val < best_val[k] - cfg.min_delta:
                best_val[k] = val
                best[k] = stack.params[i].copy()
                history.best_epoch = epoch
                stale[k] = 0
            else:
                stale[k] += 1
                if stale[k] >= cfg.patience:
                    history.stopped_early = True
                    continue
            if epoch + 1 < cfg.max_epochs:
                keep.append(i)
        if len(keep) < len(active):
            if not keep:
                break
            stack.adopt(stack.params[keep])
            optimizer.keep(keep)
            active = [active[i] for i in keep]
    for network, row, history in zip(networks, best, histories):
        _Stack.write(network, row)
        if history.best_epoch < 0:
            history.best_epoch = 0
    return histories
