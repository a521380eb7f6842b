"""CorpPredictor round-trip through the ``save_npz`` / ``load_npz`` payload."""

import numpy as np
import pytest

from repro.cluster.resources import as_row
from repro.core.predictor import CorpPredictor


class TestRoundtrip:
    def test_predictions_identical(self, fitted_predictor, tmp_path):
        path = tmp_path / "predictor.npz"
        fitted_predictor.save_npz(path)
        loaded = CorpPredictor.load_npz(path)
        util = np.full((12, 3), 0.45)
        request = as_row([3, 6, 40])
        original = fitted_predictor.predict_job_unused(util, request)
        restored = loaded.predict_job_unused(util, request)
        np.testing.assert_allclose(
            restored, original, rtol=0, atol=0
        )

    def test_config_restored(self, fitted_predictor, tmp_path):
        path = tmp_path / "predictor.npz"
        fitted_predictor.save_npz(path)
        loaded = CorpPredictor.load_npz(path)
        assert loaded.config.window_slots == fitted_predictor.config.window_slots
        assert loaded.config.train_quantile == fitted_predictor.config.train_quantile

    def test_seed_errors_and_prior_restored(self, fitted_predictor, tmp_path):
        path = tmp_path / "p.npz"
        fitted_predictor.save_npz(path)
        loaded = CorpPredictor.load_npz(path)
        for a, b in zip(fitted_predictor.seed_errors, loaded.seed_errors):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(
            fitted_predictor.prior_unused_fraction, loaded.prior_unused_fraction
        )

    def test_hmm_restored(self, fitted_predictor, tmp_path):
        path = tmp_path / "p.npz"
        fitted_predictor.save_npz(path)
        loaded = CorpPredictor.load_npz(path)
        for a, b in zip(fitted_predictor.fluctuation, loaded.fluctuation):
            assert a.fitted == b.fitted
            if a.fitted:
                np.testing.assert_allclose(a.model.transition, b.model.transition)
                assert a.correction_scale == pytest.approx(b.correction_scale)

    def test_loaded_predictor_drives_scheduler(
        self, fitted_predictor, tmp_path, small_profile, history_trace
    ):
        from repro.cluster.simulator import ClusterSimulator, SimulationConfig
        from repro.core.corp import CorpScheduler
        from ..conftest import make_short_trace

        path = tmp_path / "p.npz"
        fitted_predictor.save_npz(path)
        loaded = CorpPredictor.load_npz(path)
        scheduler = CorpScheduler(loaded.config, predictor=loaded)
        sim = ClusterSimulator(small_profile, scheduler, SimulationConfig())
        result = sim.run(make_short_trace(n_jobs=15, seed=66), history=history_trace)
        assert result.all_done


class TestValidation:
    def test_unfitted_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="not fitted"):
            CorpPredictor().save_npz(tmp_path / "x.npz")

    def test_bad_format_version(self, fitted_predictor, tmp_path):
        import json

        path = tmp_path / "p.npz"
        fitted_predictor.save_npz(path)
        data = dict(np.load(path))
        meta = json.loads(bytes(data["_meta"]).decode())
        meta["payload_version"] = 999
        data["_meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
        np.savez(path, **data)
        with pytest.raises(ValueError, match="unsupported"):
            CorpPredictor.load_npz(path)
