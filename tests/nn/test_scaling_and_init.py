"""Weight initializers."""

import numpy as np

from repro.nn.initializers import xavier_uniform


class TestInitializers:
    def test_shapes(self):
        rng = np.random.default_rng(0)
        assert xavier_uniform(4, 3, rng).shape == (3, 4)

    def test_xavier_bounds(self):
        rng = np.random.default_rng(1)
        w = xavier_uniform(100, 100, rng)
        limit = np.sqrt(6.0 / 200)
        assert np.all(np.abs(w) <= limit)
