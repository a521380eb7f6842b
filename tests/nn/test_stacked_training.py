"""Networks trained as one stack end exactly as networks trained alone.

``repro.nn.training.train`` runs ``K`` networks in lockstep: one
stacked forward / backward pass and one optimizer update of a shared
``(K, P)`` buffer per step, a network leaving the stack when it stops.
The oracle is the serial loop it replaced (``tests/nn/oracle.py``):
every network's weights, losses and stopping epoch must be its bits.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.losses import MSE, pinball
from repro.nn.network import FeedForwardNetwork
from repro.nn.optimizers import SGD, Adam
from repro.nn.training import TrainingConfig, train

from . import oracle

SIZES = [4, 12, 12, 1]


def make_data(n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    x = rng.uniform(size=(n, SIZES[0]))
    w = rng.normal(size=(SIZES[0], 1))
    y = 1.0 / (1.0 + np.exp(-x @ w)) + rng.normal(0.0, 0.05 * (seed % 3), (n, 1))
    return x, np.clip(y, 0.0, 1.0)


def make_networks(k: int, seed: int, warm: bool) -> list[FeedForwardNetwork]:
    """``k`` fresh networks; with ``warm``, every other one starts from
    a donor's trained weights, as a warm-started fit does."""
    nets = [FeedForwardNetwork(SIZES, seed=seed + i) for i in range(k)]
    if warm:
        donor = FeedForwardNetwork(SIZES, seed=seed + 99)
        x, y = make_data(40, seed + 99)
        config = TrainingConfig(max_epochs=5, batch_size=8, seed=seed)
        oracle.train(donor, x, y, config, optimizer=oracle.KeyedAdam(0.01))
        for net in nets[::2]:
            net.set_weights(donor.get_weights())
    return nets


def assert_same(stacked, serial, stacked_runs, serial_runs) -> None:
    for a, b in zip(stacked, serial, strict=True):
        for la, lb in zip(a.layers, b.layers):
            assert la.weights.tobytes() == lb.weights.tobytes()
            assert la.biases.tobytes() == lb.biases.tobytes()
    for a, b in zip(stacked_runs, serial_runs, strict=True):
        assert a.train_loss == b.train_loss
        assert a.val_loss == b.val_loss
        assert (a.best_epoch, a.stopped_early) == (b.best_epoch, b.stopped_early)


def train_both(k, n, seed, warm, epochs, patience, batch, adam, loss):
    data = [make_data(n, seed + 7 * i) for i in range(k)]
    configs = [
        TrainingConfig(
            max_epochs=epochs[i], batch_size=batch, patience=patience[i],
            seed=seed + 17 * (i + 1),
        )
        for i in range(k)
    ]
    serial = make_networks(k, seed, warm)
    serial_runs = [
        oracle.train(
            net, x, y, cfg,
            optimizer=oracle.KeyedAdam(0.01) if adam else oracle.KeyedSGD(0.3),
            loss=loss,
        )
        for net, (x, y), cfg in zip(serial, data, configs)
    ]
    stacked = make_networks(k, seed, warm)
    stacked_runs = train(
        stacked, [x for x, _ in data], [y for _, y in data], configs,
        optimizer=Adam(0.01) if adam else SGD(0.3), loss=loss,
    )
    return stacked, serial, stacked_runs, serial_runs


@settings(max_examples=25)
@given(
    k=st.integers(1, 3),
    n=st.integers(3, 90),
    seed=st.integers(0, 10_000),
    warm=st.booleans(),
    epochs=st.lists(st.integers(1, 25), min_size=3, max_size=3),
    patience=st.lists(st.integers(1, 4), min_size=3, max_size=3),
    batch=st.sampled_from([4, 16, 64]),
    adam=st.booleans(),
    quantile=st.sampled_from([None, 0.3]),
)
def test_stack_is_bit_identical_to_one_at_a_time(
    k, n, seed, warm, epochs, patience, batch, adam, quantile
):
    loss = MSE if quantile is None else pinball(quantile)
    assert_same(*train_both(k, n, seed, warm, epochs, patience, batch, adam, loss))


def test_ragged_early_stops_leave_the_stack():
    stacked, serial, runs, serial_runs = train_both(
        3, 80, 4, True, [60, 60, 60], [1, 3, 6], 16, True, MSE
    )
    assert_same(stacked, serial, runs, serial_runs)
    assert len({run.n_epochs for run in runs}) == 3
    assert all(run.stopped_early for run in runs)


class TestStackContract:
    def test_empty_stack(self):
        assert train([], [], []) == []

    def test_lengths_must_match(self):
        net = FeedForwardNetwork(SIZES)
        with pytest.raises(ValueError, match="one x, y and config"):
            train([net], [np.zeros((8, 4))], [])

    def test_data_shapes_must_match(self):
        nets = [FeedForwardNetwork(SIZES, seed=s) for s in range(2)]
        with pytest.raises(ValueError, match="equally shaped"):
            train(nets, [np.zeros((8, 4)), np.zeros((9, 4))],
                  [np.zeros((8, 1)), np.zeros((9, 1))])

    def test_batching_knobs_must_match(self):
        nets = [FeedForwardNetwork(SIZES, seed=s) for s in range(2)]
        x, y = make_data(20, 0)
        with pytest.raises(ValueError, match="batch_size"):
            train(nets, [x, x], [y, y],
                  [TrainingConfig(batch_size=8), TrainingConfig(batch_size=16)])

    def test_architectures_must_match(self):
        nets = [FeedForwardNetwork(SIZES), FeedForwardNetwork([4, 6, 1])]
        x, y = make_data(20, 0)
        with pytest.raises(ValueError, match="architecture"):
            train(nets, [x, x], [y, y])
