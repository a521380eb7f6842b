"""Forecaster protocol defaults and validation."""

import numpy as np
import pytest

from .oracles.forecaster import Forecaster


class ConstantForecaster(Forecaster):
    """Minimal concrete forecaster for protocol-level tests."""

    def __init__(self):
        self._value = None

    def fit(self, series):
        self._value = float(self._validate(series)[-1])
        return self

    def forecast(self, horizon=1):
        if self._value is None:
            raise RuntimeError("not fitted")
        return self._value + horizon  # horizon-dependent, for path tests


class TestProtocol:
    def test_forecast_path_default(self):
        f = ConstantForecaster().fit(np.array([1.0]))
        np.testing.assert_allclose(f.forecast_path(3), [2.0, 3.0, 4.0])

    def test_forecast_path_validates_horizon(self):
        f = ConstantForecaster().fit(np.array([1.0]))
        with pytest.raises(ValueError):
            f.forecast_path(0)

    def test_validate_rejects_empty(self):
        with pytest.raises(ValueError):
            ConstantForecaster().fit(np.array([]))

    def test_validate_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            ConstantForecaster().fit(np.array([1.0, np.inf]))

    def test_validate_flattens(self):
        f = ConstantForecaster().fit(np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert f.forecast(1) == 5.0
