"""PredictorCache + PredictorStore: cross-process reuse and warm starts."""

import numpy as np
import pytest

from repro.cluster.resources import as_row
from repro.core.predictor import CorpPredictor
from repro.core.predictor_store import PredictorStore
from repro.experiments.runner import PredictorCache

from ..conftest import make_short_trace


@pytest.fixture()
def store(tmp_path) -> PredictorStore:
    return PredictorStore(tmp_path / "store")


def _assert_same_fit(a: CorpPredictor, b: CorpPredictor) -> None:
    for net_a, net_b in zip(a.networks, b.networks):
        for layer_a, layer_b in zip(net_a.layers, net_b.layers):
            np.testing.assert_array_equal(layer_a.weights, layer_b.weights)
            np.testing.assert_array_equal(layer_a.biases, layer_b.biases)
    for fp_a, fp_b in zip(a.fluctuation, b.fluctuation):
        assert fp_a.fitted == fp_b.fitted
        if fp_a.fitted:
            np.testing.assert_array_equal(
                fp_a.model.transition, fp_b.model.transition
            )
    for err_a, err_b in zip(a.seed_errors, b.seed_errors):
        np.testing.assert_array_equal(err_a, err_b)
    np.testing.assert_array_equal(
        a.prior_unused_fraction, b.prior_unused_fraction
    )


class TestStoreTier:
    def test_second_cache_loads_instead_of_fitting(
        self, store, fast_corp_config, history_trace, monkeypatch
    ):
        first = PredictorCache(store=store)
        fitted = first.get(fast_corp_config, history_trace)
        assert first.store_misses == 1 and store.saves == 1

        # A fresh cache (fresh process, in effect) must never reach the
        # fit path: loading from the store is the whole point.
        def boom(self, history, **kwargs):
            raise AssertionError("refit despite a stored artifact")

        monkeypatch.setattr(CorpPredictor, "fit", boom)
        second = PredictorCache(store=store)
        loaded = second.get(fast_corp_config, history_trace)
        assert second.store_hits == 1 and second.misses == 1
        _assert_same_fit(fitted, loaded)

    def test_memory_tier_still_first(
        self, store, fast_corp_config, history_trace
    ):
        cache = PredictorCache(store=store)
        a = cache.get(fast_corp_config, history_trace)
        b = cache.get(fast_corp_config, history_trace)
        assert a is b
        assert cache.hits == 1 and store.hits == 0

    def test_eviction_falls_back_to_store(self, store, history_trace):
        """An LRU-evicted entry reloads from disk, not via a refit."""
        import dataclasses

        from repro.core.config import CorpConfig

        cfg_a = CorpConfig(
            n_hidden_layers=1, units_per_layer=8, train_max_epochs=4, seed=1
        )
        cfg_b = dataclasses.replace(cfg_a, seed=2)
        cache = PredictorCache(maxsize=1, store=store)
        cache.get(cfg_a, history_trace)
        cache.get(cfg_b, history_trace)  # evicts cfg_a from memory
        assert len(cache) == 1
        cache.get(cfg_a, history_trace)
        assert cache.store_hits == 1
        assert store.saves == 2  # no third fit happened

    def test_stats_shape(self, store, fast_corp_config, history_trace):
        cache = PredictorCache(store=store, warm_start=True)
        cache.get(fast_corp_config, history_trace)
        stats = cache.stats()
        assert stats["misses"] == 1
        assert stats["store"]["saves"] == 1
        assert stats["warm_starts"] == 0  # nothing to donate yet


class TestWarmStart:
    def test_donor_seeds_the_refit(self, store, fast_corp_config, history_trace):
        other_history = make_short_trace(n_jobs=60, seed=21)
        assert other_history.content_digest() != history_trace.content_digest()
        PredictorCache(store=store).get(fast_corp_config, other_history)

        cache = PredictorCache(store=store, warm_start=True)
        warmed = cache.get(fast_corp_config, history_trace)
        assert cache.warm_starts == 1 and store.warm_hits == 1
        assert warmed.fitted
        util = np.full((12, 3), 0.45)
        forecast = warmed.predict_job_unused(util, as_row([3, 6, 40]))
        assert np.all(np.isfinite(forecast))

    def test_no_donor_means_cold_fit(
        self, store, fast_corp_config, history_trace
    ):
        cache = PredictorCache(store=store, warm_start=True)
        cold = cache.get(fast_corp_config, history_trace)
        assert cache.warm_starts == 0
        # ... and the cold fit is byte-equal to a storeless fit.
        _assert_same_fit(
            cold, PredictorCache().get(fast_corp_config, history_trace)
        )

    def test_warm_start_flag_recorded_in_fit(
        self, store, fast_corp_config, history_trace
    ):
        donor = PredictorCache(store=store).get(fast_corp_config, history_trace)
        refit = CorpPredictor(config=fast_corp_config).fit(
            make_short_trace(n_jobs=60, seed=21), warm_start=donor
        )
        assert refit.fitted


class TestParallelFits:
    def test_incompatible_donor_rejected(self, fast_corp_config, history_trace):
        """A donor with a different DNN shape must be ignored, not crash."""
        import dataclasses

        small_cfg = dataclasses.replace(fast_corp_config, units_per_layer=4)
        donor = CorpPredictor(config=small_cfg).fit(
            make_short_trace(n_jobs=60, seed=21)
        )
        refit = CorpPredictor(config=fast_corp_config).fit(
            history_trace, warm_start=donor
        )
        _assert_same_fit(refit, PredictorCache().get(fast_corp_config, history_trace))
