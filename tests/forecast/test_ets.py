"""Exponential smoothing forecasters (RCCR's predictor)."""

import numpy as np
import pytest

from .oracles.ets import HoltLinear, SimpleExponentialSmoothing


class TestSimpleExponentialSmoothing:
    def test_invalid_alpha(self):
        for alpha in (0.0, 1.5, -0.1):
            with pytest.raises(ValueError):
                SimpleExponentialSmoothing(alpha)

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            SimpleExponentialSmoothing().forecast()

    def test_constant_series(self):
        ses = SimpleExponentialSmoothing(0.3).fit(np.full(20, 5.0))
        assert ses.forecast(1) == pytest.approx(5.0)
        assert ses.forecast(10) == pytest.approx(5.0)  # flat forecast

    def test_alpha_one_tracks_last_value(self):
        ses = SimpleExponentialSmoothing(1.0).fit(np.array([1.0, 2.0, 9.0]))
        assert ses.forecast() == pytest.approx(9.0)

    def test_recursion_by_hand(self):
        ses = SimpleExponentialSmoothing(0.5).fit(np.array([0.0, 4.0, 8.0]))
        # level: 0 -> 2 -> 5
        assert ses.forecast() == pytest.approx(5.0)

    def test_update_matches_fit(self):
        series = np.array([1.0, 3.0, 2.0, 5.0])
        fitted = SimpleExponentialSmoothing(0.4).fit(series)
        online = SimpleExponentialSmoothing(0.4)
        for v in series:
            online.update(float(v))
        assert online.forecast() == pytest.approx(fitted.forecast())

    def test_bad_horizon(self):
        ses = SimpleExponentialSmoothing().fit(np.ones(3))
        with pytest.raises(ValueError):
            ses.forecast(0)

    def test_rejects_empty_and_nonfinite(self):
        with pytest.raises(ValueError):
            SimpleExponentialSmoothing().fit(np.array([]))
        with pytest.raises(ValueError):
            SimpleExponentialSmoothing().fit(np.array([1.0, np.nan]))


class TestHoltLinear:
    def test_invalid_params(self):
        with pytest.raises(ValueError):
            HoltLinear(alpha=0.0)
        with pytest.raises(ValueError):
            HoltLinear(beta=1.5)

    def test_linear_trend_extrapolated(self):
        series = np.arange(30, dtype=float)
        holt = HoltLinear(alpha=0.8, beta=0.5).fit(series)
        assert holt.forecast(1) == pytest.approx(30.0, abs=0.5)
        assert holt.forecast(5) == pytest.approx(34.0, abs=1.0)

    def test_constant_series_no_trend(self):
        holt = HoltLinear(0.3, 0.1).fit(np.full(20, 7.0))
        assert holt.forecast(10) == pytest.approx(7.0, abs=1e-6)

    def test_horizon_scales_trend(self):
        holt = HoltLinear(0.8, 0.5).fit(np.arange(30, dtype=float))
        one = holt.forecast(1)
        three = holt.forecast(3)
        assert three > one

    def test_single_point_fit(self):
        holt = HoltLinear().fit(np.array([4.0]))
        assert holt.forecast() == pytest.approx(4.0)

    def test_update_starts_fresh(self):
        holt = HoltLinear(0.5, 0.2)
        holt.update(3.0)
        assert holt.forecast() == pytest.approx(3.0)

    def test_forecast_path(self):
        holt = HoltLinear(0.8, 0.5).fit(np.arange(20, dtype=float))
        path = holt.forecast_path(4)
        assert path.shape == (4,)
        assert np.all(np.diff(path) > 0)


class TestSesClosedForm:
    """The vectorized fit must equal the textbook recursion exactly."""

    def recursive_level(self, series, alpha):
        level = series[0]
        for x in series[1:]:
            level = alpha * x + (1 - alpha) * level
        return level

    @pytest.mark.parametrize("alpha", [0.1, 0.3, 0.5, 0.9, 1.0])
    def test_matches_recursion(self, alpha):
        rng = np.random.default_rng(0)
        series = rng.uniform(0, 10, size=37)
        ses = SimpleExponentialSmoothing(alpha).fit(series)
        assert ses.forecast() == pytest.approx(
            self.recursive_level(series, alpha), rel=1e-12
        )

    def test_two_points(self):
        ses = SimpleExponentialSmoothing(0.25).fit(np.array([4.0, 8.0]))
        assert ses.forecast() == pytest.approx(0.25 * 8 + 0.75 * 4)
