"""On-disk predictor store: fingerprinting, round-trip, warm donors."""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from repro.cluster.resources import as_row
from repro.core.predictor import CorpPredictor
from repro.core.predictor_store import (
    FIT_FIELDS,
    PredictorStore,
    default_store_dir,
    fit_fingerprint,
)


@pytest.fixture()
def store(tmp_path) -> PredictorStore:
    return PredictorStore(tmp_path / "store")


class TestFingerprint:
    def test_stable(self, fast_corp_config):
        a = fit_fingerprint(fast_corp_config, "deadbeef")
        b = fit_fingerprint(fast_corp_config, "deadbeef")
        assert a == b
        assert len(a) == 64  # sha256 hex

    def test_history_digest_matters(self, fast_corp_config):
        assert fit_fingerprint(fast_corp_config, "aa") != fit_fingerprint(
            fast_corp_config, "bb"
        )

    @pytest.mark.parametrize("field", FIT_FIELDS)
    def test_every_fit_field_matters(self, fast_corp_config, field):
        """Each fit-shaping config field must invalidate the key."""
        old = getattr(fast_corp_config, field)
        if field == "hmm_mode":
            new = "range" if old == "level" else "level"
        elif field == "prediction_target":
            new = "point" if old != "point" else "window_mean"
        elif field == "train_quantile":
            new = 0.25 if old != 0.25 else 0.75
        elif isinstance(old, bool):
            new = not old
        else:
            new = old + 1
        changed = dataclasses.replace(fast_corp_config, **{field: new})
        assert fit_fingerprint(changed, "d") != fit_fingerprint(
            fast_corp_config, "d"
        )

    def test_non_fit_field_ignored(self, fast_corp_config):
        """Placement-time knobs don't shape the fit, so they share keys."""
        changed = dataclasses.replace(fast_corp_config, use_packing=False)
        assert fit_fingerprint(changed, "d") == fit_fingerprint(
            fast_corp_config, "d"
        )


class TestRoundtrip:
    def test_miss_on_empty(self, store, fast_corp_config):
        assert store.load(fast_corp_config, "nope") is None
        assert store.misses == 1 and store.hits == 0

    def test_fit_save_load_predicts_bit_identical(
        self, store, fast_corp_config, fitted_predictor
    ):
        store.save(fast_corp_config, "digest-1", fitted_predictor)
        loaded = store.load(fast_corp_config, "digest-1")
        assert loaded is not None and loaded.fitted
        util = np.full((12, 3), 0.45)
        request = as_row([3, 6, 40])
        np.testing.assert_array_equal(
            loaded.predict_job_unused(util, request),
            fitted_predictor.predict_job_unused(util, request),
        )
        np.testing.assert_array_equal(
            loaded.prior_unused_fraction, fitted_predictor.prior_unused_fraction
        )

    def test_load_reattaches_caller_config(
        self, store, fast_corp_config, fitted_predictor
    ):
        store.save(fast_corp_config, "d", fitted_predictor)
        loaded = store.load(fast_corp_config, "d")
        assert loaded.config is fast_corp_config

    def test_wrong_digest_misses(self, store, fast_corp_config, fitted_predictor):
        store.save(fast_corp_config, "d1", fitted_predictor)
        assert store.load(fast_corp_config, "other") is None

    def test_wrong_config_misses(self, store, fast_corp_config, fitted_predictor):
        store.save(fast_corp_config, "d", fitted_predictor)
        changed = dataclasses.replace(fast_corp_config, seed=99)
        assert store.load(changed, "d") is None

    def test_corrupt_artifact_is_a_miss(
        self, store, fast_corp_config, fitted_predictor
    ):
        store.save(fast_corp_config, "d", fitted_predictor)
        key = fit_fingerprint(fast_corp_config, "d")
        (store.root / f"{key}.npz").write_bytes(b"not an npz")
        assert store.load(fast_corp_config, "d") is None


class TestNearest:
    def test_same_config_other_digest(
        self, store, fast_corp_config, fitted_predictor
    ):
        store.save(fast_corp_config, "d1", fitted_predictor)
        donor = store.nearest(fast_corp_config, exclude_digest="d2")
        assert donor is not None and donor.fitted
        assert store.warm_hits == 1

    def test_excludes_exact_digest(self, store, fast_corp_config, fitted_predictor):
        """The exact-digest artifact is the load() path, not a donor."""
        store.save(fast_corp_config, "d1", fitted_predictor)
        assert store.nearest(fast_corp_config, exclude_digest="d1") is None

    def test_other_config_never_donates(
        self, store, fast_corp_config, fitted_predictor
    ):
        store.save(fast_corp_config, "d1", fitted_predictor)
        changed = dataclasses.replace(fast_corp_config, units_per_layer=8)
        assert changed.dnn_layer_sizes() != fast_corp_config.dnn_layer_sizes()
        assert store.nearest(changed, exclude_digest="d2") is None

    def test_newest_donor_wins(self, store, fast_corp_config, fitted_predictor):
        """Which artifact nearest() picks is observable by corrupting
        the other one: only the newest sidecar's npz is ever read."""
        store.save(fast_corp_config, "old", fitted_predictor)
        store.save(fast_corp_config, "new", fitted_predictor)
        old_key = fit_fingerprint(fast_corp_config, "old")
        new_key = fit_fingerprint(fast_corp_config, "new")
        for key, created in ((old_key, 100.0), (new_key, 200.0)):
            meta_path = store.root / f"{key}.json"
            meta = json.loads(meta_path.read_text())
            meta["created"] = created
            meta_path.write_text(json.dumps(meta))
        (store.root / f"{old_key}.npz").write_bytes(b"corrupt")
        assert store.nearest(fast_corp_config, exclude_digest="x") is not None
        (store.root / f"{new_key}.npz").write_bytes(b"corrupt")
        assert store.nearest(fast_corp_config, exclude_digest="x") is None


class TestHousekeeping:
    def test_stats_and_clear(self, store, fast_corp_config, fitted_predictor):
        assert store.stats()["entries"] == 0
        store.save(fast_corp_config, "d1", fitted_predictor)
        store.save(fast_corp_config, "d2", fitted_predictor)
        stats = store.stats()
        assert stats["entries"] == 2 and len(store) == 2
        assert stats["total_bytes"] > 0
        assert stats["saves"] == 2
        assert store.clear() == 2
        assert store.stats()["entries"] == 0
        assert list(store.root.glob("*")) == []

    def test_clear_missing_dir(self, tmp_path):
        assert PredictorStore(tmp_path / "never-created").clear() == 0

    def test_stray_temp_files_invisible(
        self, store, fast_corp_config, fitted_predictor
    ):
        store.save(fast_corp_config, "d", fitted_predictor)
        (store.root / ".k.npz.tmp.123").write_bytes(b"partial write")
        assert store.stats()["entries"] == 1
        assert store.load(fast_corp_config, "d") is not None

    def test_default_dir_honours_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "envdir"))
        assert default_store_dir() == tmp_path / "envdir"

    def test_default_dir_expands_tilde(self, monkeypatch):
        # A literal `~` must resolve to $HOME, not a CWD dir named "~".
        monkeypatch.setenv("REPRO_CACHE_DIR", "~/repro-cache")
        resolved = default_store_dir()
        assert resolved == Path.home() / "repro-cache"
        assert "~" not in str(resolved)

    def test_default_dir_expands_xdg_tilde(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        monkeypatch.setenv("XDG_CACHE_HOME", "~/xdg-cache")
        resolved = default_store_dir()
        assert resolved == Path.home() / "xdg-cache" / "repro-corp" / "predictors"
        assert "~" not in str(resolved)

    def test_unfitted_save_rejected(self, store, fast_corp_config):
        with pytest.raises(ValueError):
            store.save(fast_corp_config, "d", CorpPredictor())


class TestFamilyIsolation:
    """v1.6: family-keyed fingerprints keep predictor zoos apart."""

    @pytest.fixture()
    def fitted_quantile(self, history_trace):
        from repro.forecast.quantile import QuantileHistogramPredictor

        return QuantileHistogramPredictor().fit(history_trace)

    def test_family_is_part_of_the_fingerprint(self, fast_corp_config):
        corp = fit_fingerprint(fast_corp_config, "d")
        assert corp == fit_fingerprint(fast_corp_config, "d", family="corp")
        for family in ("quantile", "classify", "markov"):
            assert fit_fingerprint(fast_corp_config, "d", family) != corp

    def test_non_corp_round_trip(
        self, store, fast_corp_config, fitted_quantile
    ):
        from repro.forecast.quantile import QuantileHistogramPredictor

        store.save(fast_corp_config, "d", fitted_quantile)
        loaded = store.load(fast_corp_config, "d", family="quantile")
        assert isinstance(loaded, QuantileHistogramPredictor)
        assert loaded.fitted
        for a, b in zip(fitted_quantile.seed_errors, loaded.seed_errors):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(
            fitted_quantile.prior_unused_fraction, loaded.prior_unused_fraction
        )

    def test_families_never_cross_load(
        self, store, fast_corp_config, fitted_quantile, fitted_predictor
    ):
        store.save(fast_corp_config, "d", fitted_quantile)
        # Same config and digest, corp family: distinct key, so a miss.
        assert store.load(fast_corp_config, "d") is None
        store.save(fast_corp_config, "d", fitted_predictor)
        assert store.load(fast_corp_config, "d") is not None
        assert store.load(fast_corp_config, "d", family="classify") is None

    def test_non_corp_artifacts_never_donate(
        self, store, fast_corp_config, fitted_quantile
    ):
        # Warm starts seed DNN weights; other families are ineligible.
        store.save(fast_corp_config, "d1", fitted_quantile)
        assert store.nearest(fast_corp_config, exclude_digest="d2") is None

    def test_legacy_sidecar_without_family_counts_as_corp(
        self, store, fast_corp_config, fitted_predictor
    ):
        store.save(fast_corp_config, "d1", fitted_predictor)
        key = fit_fingerprint(fast_corp_config, "d1")
        meta_path = store.root / f"{key}.json"
        meta = json.loads(meta_path.read_text())
        meta.pop("family")
        meta_path.write_text(json.dumps(meta))
        assert store.nearest(fast_corp_config, exclude_digest="d2") is not None

    def test_family_stamped_in_sidecar(
        self, store, fast_corp_config, fitted_quantile, fitted_predictor
    ):
        store.save(fast_corp_config, "d", fitted_quantile)
        store.save(fast_corp_config, "d", fitted_predictor)
        families = set()
        for meta_path in store.root.glob("*.json"):
            families.add(json.loads(meta_path.read_text())["family"])
        assert families == {"quantile", "corp"}
