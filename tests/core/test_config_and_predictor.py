"""CorpConfig validation and the DNN+HMM prediction pipeline."""

import numpy as np
import pytest

from repro.cluster.resources import NUM_RESOURCES, ResourceKind, as_row, fits_within
from repro.core.config import CorpConfig
from repro.core.predictor import CorpPredictor, build_training_set

from ..conftest import make_short_trace


class TestCorpConfig:
    def test_table_ii_defaults(self):
        cfg = CorpConfig()
        assert cfg.n_hidden_layers == 4          # h = 4
        assert cfg.units_per_layer == 50         # N_n = 50
        assert cfg.probability_threshold == 0.95  # P_th
        assert cfg.window_slots == 6             # L = 1 minute of 10 s slots

    def test_dnn_layer_sizes(self):
        cfg = CorpConfig(input_slots=6, n_hidden_layers=4, units_per_layer=50)
        assert cfg.dnn_layer_sizes() == [6, 50, 50, 50, 50, 1]

    def test_significance_level(self):
        assert CorpConfig(confidence_level=0.9).significance_level == pytest.approx(0.1)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(window_slots=0),
            dict(n_hidden_layers=0),
            dict(probability_threshold=0.0),
            dict(confidence_level=1.0),
            dict(error_tolerance=0.0),
            dict(hmm_mode="bogus"),
            dict(prediction_target="bogus"),
            dict(train_quantile=0.0),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            CorpConfig(**kwargs)

    def test_ablation_flags_exist(self):
        cfg = CorpConfig(
            use_hmm_correction=False,
            use_packing=False,
            use_confidence_interval=False,
            use_volume_selection=False,
        )
        assert not cfg.use_hmm_correction


class TestBuildTrainingSet:
    @pytest.fixture(scope="class")
    def trace(self):
        return make_short_trace(n_jobs=30, seed=21)

    def test_shapes(self, trace):
        x, y, reqs = build_training_set(trace, ResourceKind.CPU, 6, 6)
        assert x.shape[1] == 6
        assert y.shape == (x.shape[0], 1)
        assert reqs.shape == (x.shape[0],)
        assert x.shape[0] > 0

    def test_inputs_are_fractions(self, trace):
        x, y, _ = build_training_set(trace, ResourceKind.CPU, 6, 6)
        assert np.all(x >= 0) and np.all(x <= 1)
        assert np.all(y >= 0) and np.all(y <= 1)

    def test_window_min_below_mean_below_point_variance(self, trace):
        _, y_min, _ = build_training_set(trace, ResourceKind.CPU, 6, 6, target="window_min")
        _, y_mean, _ = build_training_set(trace, ResourceKind.CPU, 6, 6, target="window_mean")
        assert y_min.mean() <= y_mean.mean() + 1e-12

    def test_point_target(self, trace):
        x, y, _ = build_training_set(trace, ResourceKind.CPU, 6, 6, target="point")
        assert y.shape[0] == x.shape[0]

    def test_unknown_target(self, trace):
        with pytest.raises(ValueError):
            build_training_set(trace, ResourceKind.CPU, 6, 6, target="max")

    def test_short_records_skipped(self):
        trace = make_short_trace(n_jobs=30, seed=22)
        # Window longer than any short job -> no samples.
        x, y, reqs = build_training_set(trace, ResourceKind.CPU, 40, 40)
        assert x.shape[0] == 0


class TestCorpPredictor:
    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            CorpPredictor().predict_job_unused(np.zeros((6, 3)), as_row([1, 1, 1]))

    def test_fit_builds_all_networks(self, fitted_predictor):
        assert fitted_predictor.fitted
        assert len(fitted_predictor.networks) == NUM_RESOURCES
        assert len(fitted_predictor.fluctuation) == NUM_RESOURCES

    def test_seed_errors_collected(self, fitted_predictor):
        for errors in fitted_predictor.seed_errors:
            assert errors.size > 0

    def test_prior_is_quantile_of_targets(self, fitted_predictor):
        prior = fitted_predictor.prior_unused_fraction
        assert prior.shape == (NUM_RESOURCES,)
        assert np.all(prior >= 0) and np.all(prior <= 1)

    def test_prediction_scales_with_request(self, fitted_predictor):
        util = np.full((12, 3), 0.5)
        small = fitted_predictor.predict_job_unused(util, as_row([1, 1, 1]))
        large = fitted_predictor.predict_job_unused(util, as_row([10, 10, 10]))
        np.testing.assert_allclose(
            large, 10 * small, rtol=1e-9
        )

    def test_prediction_bounded_by_request(self, fitted_predictor):
        util = np.full((12, 3), 0.1)
        request = as_row([4, 8, 100])
        pred = fitted_predictor.predict_job_unused(util, request)
        assert fits_within(pred, request)
        assert np.all(pred >= 0.0)

    def test_young_job_uses_prior(self, fitted_predictor):
        request = as_row([2, 2, 2])
        pred = fitted_predictor.predict_job_unused(np.zeros((1, 3)), request)
        expected = fitted_predictor.prior_unused_fraction * 2.0
        np.testing.assert_allclose(pred, expected)

    def test_short_history_padded(self, fitted_predictor):
        # 3 slots of history with input_slots=6: must not raise.
        util = np.full((3, 3), 0.6)
        pred = fitted_predictor.predict_job_unused(util, as_row([2, 2, 2]))
        assert np.all(pred >= 0.0)

    def test_idle_job_predicts_more_unused_than_busy_job(self, fitted_predictor):
        idle = np.full((12, 3), 0.1)
        busy = np.full((12, 3), 0.9)
        request = as_row([4, 4, 4])
        pred_idle = fitted_predictor.predict_job_unused(idle, request)
        pred_busy = fitted_predictor.predict_job_unused(busy, request)
        assert pred_idle[0] > pred_busy[0]

    def test_validation_rmse_reasonable(self, fitted_predictor):
        rmse = np.array(
            [float(np.sqrt(np.mean(e**2))) for e in fitted_predictor.seed_errors]
        )
        assert rmse.shape == (NUM_RESOURCES,)
        assert np.all(rmse >= 0) and np.all(rmse < 0.6)  # request fractions

    def test_hmm_correction_flag_respected(self, history_trace, fast_corp_config):
        import dataclasses

        cfg = dataclasses.replace(fast_corp_config, use_hmm_correction=False)
        pred = CorpPredictor(config=cfg).fit(history_trace)
        util = np.full((12, 3), 0.5)
        out = pred.predict_job_unused(util, as_row([1, 1, 1]))
        assert np.all(out >= 0.0)
