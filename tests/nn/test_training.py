"""Epoch loop, validation convergence and early stopping."""

import numpy as np
import pytest

from repro.nn.network import FeedForwardNetwork
from repro.nn.optimizers import Adam
from repro.nn.training import TrainingConfig, train, train_validation_split


def make_data(n=200, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(size=(n, 4))
    y = x @ np.array([[0.1], [0.2], [0.3], [0.4]])
    return x, y


class TestConfigValidation:
    def test_bad_epochs(self):
        with pytest.raises(ValueError):
            TrainingConfig(max_epochs=0)

    def test_bad_batch(self):
        with pytest.raises(ValueError):
            TrainingConfig(batch_size=0)

    def test_bad_fraction(self):
        with pytest.raises(ValueError):
            TrainingConfig(validation_fraction=1.0)

    def test_bad_patience(self):
        with pytest.raises(ValueError):
            TrainingConfig(patience=0)


class TestSplit:
    def test_sizes(self):
        x, y = make_data(100)
        xt, yt, xv, yv = train_validation_split(x, y, 0.2, np.random.default_rng(0))
        assert xt.shape[0] == 80 and xv.shape[0] == 20
        assert yt.shape[0] == 80 and yv.shape[0] == 20

    def test_disjoint_and_complete(self):
        x = np.arange(50, dtype=float)[:, None]
        y = x.copy()
        xt, _, xv, _ = train_validation_split(x, y, 0.3, np.random.default_rng(1))
        combined = sorted(np.concatenate([xt, xv]).ravel().tolist())
        assert combined == list(range(50))

    def test_mismatched_rows(self):
        with pytest.raises(ValueError):
            train_validation_split(
                np.zeros((5, 2)), np.zeros((4, 1)), 0.2, np.random.default_rng(0)
            )

    def test_all_validation_rejected(self):
        with pytest.raises(ValueError):
            train_validation_split(
                np.zeros((3, 2)), np.zeros((3, 1)), 0.99, np.random.default_rng(0)
            )


class TestTrain:
    def test_learns_linear_map(self):
        x, y = make_data()
        net = FeedForwardNetwork([4, 16, 1], seed=1)
        [history] = train(
            [net], [x], [y], [TrainingConfig(max_epochs=120, patience=20, seed=2)],
            optimizer=Adam(0.01),
        )
        assert history.final_val_loss < 0.002
        assert history.n_epochs >= 1

    def test_history_lengths_match(self):
        x, y = make_data(60)
        net = FeedForwardNetwork([4, 8, 1], seed=1)
        [history] = train([net], [x], [y], [TrainingConfig(max_epochs=10, patience=10)])
        assert len(history.train_loss) == len(history.val_loss) == history.n_epochs

    def test_early_stop_on_plateau(self):
        x = np.zeros((40, 4))
        y = np.full((40, 1), 0.5)
        net = FeedForwardNetwork([4, 8, 1], seed=1)
        [history] = train(
            [net], [x], [y], [TrainingConfig(max_epochs=500, patience=3, seed=0)]
        )
        assert history.stopped_early
        assert history.n_epochs < 500

    def test_best_weights_restored(self):
        x, y = make_data(80, seed=3)
        net = FeedForwardNetwork([4, 8, 1], seed=4)
        [history] = train(
            [net], [x], [y], [TrainingConfig(max_epochs=30, patience=30, seed=5)],
            optimizer=Adam(0.05),
        )
        # The restored network's validation loss must equal the best seen
        # (recompute on the same split used internally is impractical, so
        # assert on the recorded trajectory instead).
        assert history.val_loss[history.best_epoch] == min(history.val_loss)

    def test_row_mismatch_rejected(self):
        net = FeedForwardNetwork([4, 8, 1])
        with pytest.raises(ValueError):
            train([net], [np.zeros((5, 4))], [np.zeros((4, 1))])

    def test_tiny_dataset_trains_without_split(self):
        net = FeedForwardNetwork([4, 8, 1])
        [history] = train(
            [net], [np.zeros((3, 4))], [np.zeros((3, 1))],
            [TrainingConfig(max_epochs=3, patience=2)],
        )
        assert history.n_epochs >= 1

    def test_empty_history_nan(self):
        from repro.nn.training import TrainingHistory

        assert np.isnan(TrainingHistory().final_val_loss)
