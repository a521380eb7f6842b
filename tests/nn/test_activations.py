"""Activation functions and their output-space derivatives."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.nn.activations import SIGMOID, get_activation

floats = st.floats(min_value=-50, max_value=50, allow_nan=False)


def masked_sigmoid(x):
    """The boolean-mask form ``SIGMOID`` replaced, kept as its oracle."""
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


class TestSigmoid:
    def test_midpoint(self):
        assert SIGMOID(np.array([0.0]))[0] == pytest.approx(0.5)

    def test_range(self):
        x = np.linspace(-30, 30, 201)
        y = SIGMOID(x)
        assert np.all(y > 0) and np.all(y < 1)

    def test_monotone(self):
        x = np.linspace(-10, 10, 101)
        assert np.all(np.diff(SIGMOID(x)) > 0)

    def test_no_overflow_extremes(self):
        y = SIGMOID(np.array([-1e6, 1e6]))
        assert y[0] == pytest.approx(0.0)
        assert y[1] == pytest.approx(1.0)

    @given(st.lists(
        st.one_of(
            st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
            st.sampled_from([0.0, -0.0, np.inf, -np.inf]),
        ),
        min_size=1, max_size=64,
    ))
    def test_same_floats_as_the_masked_form(self, values):
        x = np.array(values)
        with np.errstate(over="raise"):  # exp never sees a positive argument
            assert SIGMOID(x).tobytes() == masked_sigmoid(x).tobytes()

    def test_same_floats_as_the_where_form_on_edge_values(self):
        edges = [0.0, -0.0, np.inf, -np.inf, np.nan, 745.0, -745.0, 1e-320, -1e-320]
        x = np.array(edges)
        e = np.exp(-np.abs(x))
        where_form = np.where(x >= 0, 1.0, e) / (1.0 + e)
        assert SIGMOID(x).tobytes() == where_form.tobytes()

    def test_derivative_formula(self):
        g = SIGMOID(np.array([0.3]))
        assert SIGMOID.deriv(g)[0] == pytest.approx(g[0] * (1 - g[0]))

    @given(floats)
    def test_derivative_matches_numerical(self, x):
        h = 1e-6
        arr = np.array([x])
        numeric = (SIGMOID(arr + h) - SIGMOID(arr - h)) / (2 * h)
        analytic = SIGMOID.deriv(SIGMOID(arr))
        np.testing.assert_allclose(analytic, numeric, atol=1e-4)


class TestRegistry:
    @pytest.mark.parametrize("name", ["sigmoid"])
    def test_lookup(self, name):
        assert get_activation(name).name == name

    def test_unknown(self):
        with pytest.raises(KeyError, match="unknown activation"):
            get_activation("swish")

    def test_callable(self):
        act = get_activation("sigmoid")
        assert act(np.zeros(1))[0] == pytest.approx(0.5)
