"""The data-driven quantile-histogram predictor (Pace et al.)."""

import numpy as np
import pytest

from repro.cluster.resources import NUM_RESOURCES, as_row
from repro.core.config import CorpConfig
from repro.forecast.quantile import QuantileHistogramPredictor


@pytest.fixture(scope="module")
def fitted(history_trace):
    return QuantileHistogramPredictor().fit(history_trace)


class TestConstruction:
    def test_invalid_quantile(self):
        with pytest.raises(ValueError):
            QuantileHistogramPredictor(quantile=0.0)
        with pytest.raises(ValueError):
            QuantileHistogramPredictor(quantile=1.0)

    def test_invalid_slots(self):
        with pytest.raises(ValueError):
            QuantileHistogramPredictor(input_slots=0)

    def test_from_config_mirrors_corp_knobs(self):
        cfg = CorpConfig(
            input_slots=4, window_slots=3, train_quantile=0.7,
            prediction_target="window_min",
        )
        p = QuantileHistogramPredictor.from_config(cfg)
        assert p.quantile == 0.7
        assert p.input_slots == 4 and p.window_slots == 3
        assert p.prediction_target == "window_min"

    def test_from_config_none_quantile_defaults_to_median(self):
        p = QuantileHistogramPredictor.from_config(
            CorpConfig(train_quantile=None)
        )
        assert p.quantile == 0.5


class TestFit:
    def test_unfitted_predict_raises(self):
        with pytest.raises(RuntimeError, match="not fitted"):
            QuantileHistogramPredictor().predict_job_unused(
                np.zeros((4, NUM_RESOURCES)), as_row([1.0] * NUM_RESOURCES)
            )

    def test_fit_populates_error_statistics(self, fitted):
        assert fitted.fitted
        assert len(fitted.seed_errors) == NUM_RESOURCES
        assert all(e.size > 0 for e in fitted.seed_errors)
        assert fitted.prior_unused_fraction.shape == (NUM_RESOURCES,)
        assert np.all(fitted.prior_unused_fraction >= 0.0)
        assert np.all(fitted.prior_unused_fraction <= 1.0)

    def test_fit_is_deterministic(self, history_trace, fitted):
        again = QuantileHistogramPredictor().fit(history_trace)
        for a, b in zip(fitted.seed_errors, again.seed_errors):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(
            fitted.prior_unused_fraction, again.prior_unused_fraction
        )


class TestPredict:
    def test_short_history_falls_back_to_prior(self, fitted):
        request = as_row([1.0] * NUM_RESOURCES)
        got = fitted.predict_job_unused(
            np.full((1, NUM_RESOURCES), 0.2), request
        )
        np.testing.assert_allclose(
            got, fitted.prior_unused_fraction
        )

    def test_forecast_is_the_empirical_quantile(self, fitted):
        util = np.full((8, NUM_RESOURCES), 0.3)
        request = as_row([2.0] * NUM_RESOURCES)
        got = fitted.predict_job_unused(util, request)
        # Constant 30% utilization -> 70% unused of a request of 2.
        np.testing.assert_allclose(got, 1.4)

    def test_forecast_bounded_by_request(self, fitted, rng):
        util = rng.uniform(0.0, 1.0, size=(10, NUM_RESOURCES))
        request = as_row([3.0] * NUM_RESOURCES)
        got = fitted.predict_job_unused(util, request)
        assert np.all(got >= 0.0) and np.all(got <= 3.0)


class TestSerialization:
    def test_npz_round_trip_is_exact(self, fitted, tmp_path):
        path = tmp_path / "quantile.npz"
        fitted.save_npz(path)
        loaded = QuantileHistogramPredictor.load_npz(path)
        assert loaded.fitted
        assert loaded.quantile == fitted.quantile
        for a, b in zip(fitted.seed_errors, loaded.seed_errors):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(
            fitted.prior_unused_fraction, loaded.prior_unused_fraction
        )
        util = np.full((8, NUM_RESOURCES), 0.4)
        request = as_row([1.0] * NUM_RESOURCES)
        np.testing.assert_array_equal(
            fitted.predict_job_unused(util, request),
            loaded.predict_job_unused(util, request),
        )

    def test_wrong_family_archive_rejected(self, fitted, tmp_path):
        from repro.forecast.classify import ClassifyThenPredictPredictor

        path = tmp_path / "quantile.npz"
        fitted.save_npz(path)
        with pytest.raises(ValueError, match="archive holds"):
            ClassifyThenPredictPredictor.load_npz(path)

    def test_unfitted_payload_rejected(self):
        with pytest.raises(ValueError, match="not fitted"):
            QuantileHistogramPredictor().to_payload()
