"""Weight initializers."""

import numpy as np
import pytest

from repro.nn.initializers import get_initializer, he_normal, small_uniform, xavier_uniform


class TestInitializers:
    def test_shapes(self):
        rng = np.random.default_rng(0)
        for fn in (xavier_uniform, he_normal, small_uniform):
            assert fn(4, 3, rng).shape == (3, 4)

    def test_xavier_bounds(self):
        rng = np.random.default_rng(1)
        w = xavier_uniform(100, 100, rng)
        limit = np.sqrt(6.0 / 200)
        assert np.all(np.abs(w) <= limit)

    def test_he_scale(self):
        rng = np.random.default_rng(2)
        w = he_normal(1000, 50, rng)
        assert w.std() == pytest.approx(np.sqrt(2.0 / 1000), rel=0.15)

    def test_small_uniform_bounds(self):
        rng = np.random.default_rng(3)
        assert np.all(np.abs(small_uniform(10, 10, rng)) <= 0.1)

    def test_registry(self):
        assert get_initializer("xavier_uniform") is xavier_uniform
        with pytest.raises(KeyError):
            get_initializer("orthogonal")
