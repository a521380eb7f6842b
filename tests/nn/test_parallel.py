"""``parallel_map``: process fan-out equivalent to the serial loop."""

import numpy as np

from repro.nn.losses import MSE
from repro.nn.network import FeedForwardNetwork
from repro.nn.optimizers import SGD
from repro.nn.parallel import parallel_map
from repro.nn.training import TrainingConfig, train


def make_data(n=64, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(size=(n, 4))
    y = x.mean(axis=1, keepdims=True)
    return x, y


# Module-level so the process pool can pickle it.
def _train_tiny_net(seed: int) -> np.ndarray:
    net = FeedForwardNetwork([4, 6, 1], seed=seed)
    x, y = make_data(32, seed=seed)
    config = TrainingConfig(
        max_epochs=5, batch_size=32, validation_fraction=0.0, patience=5, shuffle=False
    )
    train([net], [x], [y], [config], optimizer=SGD(0.2), loss=MSE)
    return net.layers[0].weights


class TestParallelMap:
    def test_serial_when_workers_low(self):
        assert parallel_map(_train_tiny_net, [], workers=4) == []
        out = parallel_map(lambda v: v * 2, [1, 2, 3], workers=0)
        assert out == [2, 4, 6]

    def test_single_task_stays_serial(self):
        """One task never pays process spawn cost (also: lambdas are
        fine there because nothing is pickled)."""
        assert parallel_map(lambda v: v + 1, [41], workers=8) == [42]

    def test_preserves_task_order(self):
        out = parallel_map(_train_tiny_net, [3, 1, 2], workers=3)
        for got, seed in zip(out, (3, 1, 2)):
            np.testing.assert_array_equal(got, _train_tiny_net(seed))

    def test_process_results_bit_identical_to_serial(self):
        serial = parallel_map(_train_tiny_net, [0, 1, 2], workers=0)
        fanned = parallel_map(_train_tiny_net, [0, 1, 2], workers=2)
        for a, b in zip(serial, fanned):
            np.testing.assert_array_equal(a, b)
