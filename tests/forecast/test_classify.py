"""The classify-then-predict router (Zhu & Fan)."""

import numpy as np
import pytest

from repro.cluster.resources import NUM_RESOURCES, as_row
from repro.core.config import CorpConfig
from repro.forecast.classify import (
    ClassifyThenPredictPredictor,
    _job_features,
    _kmeans,
)


@pytest.fixture(scope="module")
def fitted(history_trace):
    return ClassifyThenPredictPredictor(seed=3).fit(history_trace)


class TestKmeans:
    def test_seeded_kmeans_is_deterministic(self, rng):
        features = rng.normal(size=(40, 5))
        c1, a1 = _kmeans(features, 3, seed=9)
        c2, a2 = _kmeans(features, 3, seed=9)
        np.testing.assert_array_equal(c1, c2)
        np.testing.assert_array_equal(a1, a2)

    def test_k_capped_by_sample_count(self, rng):
        features = rng.normal(size=(2, 5))
        centroids, assignment = _kmeans(features, 8, seed=0)
        assert centroids.shape[0] == 2
        assert assignment.shape == (2,)

    def test_separated_clusters_recovered(self):
        lo = np.full((10, 4), 0.0)
        hi = np.full((10, 4), 10.0)
        features = np.vstack([lo, hi])
        _centroids, assignment = _kmeans(features, 2, seed=1)
        assert len(set(assignment[:10])) == 1
        assert len(set(assignment[10:])) == 1
        assert assignment[0] != assignment[-1]


class TestFeatures:
    def test_feature_vector_shape(self):
        util = np.linspace(0.0, 1.0, 5 * NUM_RESOURCES).reshape(
            5, NUM_RESOURCES
        )
        features = _job_features(util)
        assert features.shape == (2 * NUM_RESOURCES + 2,)
        np.testing.assert_allclose(features[:NUM_RESOURCES], util.mean(axis=0))

    def test_single_slot_burstiness_is_zero(self):
        features = _job_features(np.full((1, NUM_RESOURCES), 0.5))
        assert features[-1] == 0.0


class TestFit:
    def test_fit_populates_router_state(self, fitted):
        assert fitted.fitted
        assert 1 <= fitted.centroids.shape[0] <= fitted.n_classes
        assert fitted.class_shifts.shape == (
            fitted.centroids.shape[0],
            NUM_RESOURCES,
        )
        assert len(fitted.seed_errors) == NUM_RESOURCES
        assert all(e.size > 0 for e in fitted.seed_errors)
        # Calibration centres every class's residuals: the pooled seed
        # errors keep a near-zero median per class, so per-resource
        # medians stay small.
        for errors in fitted.seed_errors:
            assert abs(float(np.median(errors))) < 0.25

    def test_from_config_threads_seed(self):
        p = ClassifyThenPredictPredictor.from_config(CorpConfig(seed=17))
        assert p.seed == 17

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            ClassifyThenPredictPredictor(quantile=1.5)
        with pytest.raises(ValueError):
            ClassifyThenPredictPredictor(n_classes=0)


class TestPredict:
    def test_unfitted_predict_raises(self):
        with pytest.raises(RuntimeError, match="not fitted"):
            ClassifyThenPredictPredictor().predict_job_unused(
                np.zeros((4, NUM_RESOURCES)), as_row([1.0] * NUM_RESOURCES)
            )

    def test_short_history_falls_back_to_prior(self, fitted):
        got = fitted.predict_job_unused(
            np.full((1, NUM_RESOURCES), 0.9), as_row([1.0] * NUM_RESOURCES)
        )
        np.testing.assert_allclose(
            got, fitted.prior_unused_fraction
        )

    def test_routing_is_deterministic(self, fitted, rng):
        util = rng.uniform(0.0, 1.0, size=(8, NUM_RESOURCES))
        assert fitted.classify(util) == fitted.classify(util)

    def test_forecast_is_shifted_quantile(self, fitted):
        util = np.full((8, NUM_RESOURCES), 0.4)
        request = as_row([2.0] * NUM_RESOURCES)
        class_id = fitted.classify(util)
        got = fitted.predict_job_unused(util, request)
        expected = (
            np.clip(0.6 + fitted.class_shifts[class_id], 0.0, 1.0) * 2.0
        )
        np.testing.assert_allclose(got, expected)

    def test_forecast_bounded_by_request(self, fitted, rng):
        util = rng.uniform(0.0, 1.0, size=(12, NUM_RESOURCES))
        got = fitted.predict_job_unused(
            util, as_row([3.0] * NUM_RESOURCES)
        )
        assert np.all(got >= 0.0) and np.all(got <= 3.0)


class TestSerialization:
    def test_npz_round_trip_preserves_routing(self, fitted, tmp_path, rng):
        path = tmp_path / "classify.npz"
        fitted.save_npz(path)
        loaded = ClassifyThenPredictPredictor.load_npz(path)
        assert loaded.fitted
        np.testing.assert_array_equal(fitted.centroids, loaded.centroids)
        np.testing.assert_array_equal(
            fitted.class_shifts, loaded.class_shifts
        )
        util = rng.uniform(0.0, 1.0, size=(8, NUM_RESOURCES))
        assert fitted.classify(util) == loaded.classify(util)
        np.testing.assert_array_equal(
            fitted.predict_job_unused(
                util, as_row([1.0] * NUM_RESOURCES)
            ),
            loaded.predict_job_unused(
                util, as_row([1.0] * NUM_RESOURCES)
            ),
        )
