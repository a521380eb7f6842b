"""The Predictor contract, once, for every registered family.

Section III-A's contract is one sentence — a job's utilization history
in, its predicted unused resource out — and
:class:`repro.forecast.base.Predictor` owns everything around the
family's arithmetic: the fitted check, the young-job prior, the clip to
``[0, request]``, ``from_config`` and the archive round trip.  These
cases run over ``available_predictors()`` so a new family is covered by
registering it.

``PINNED`` is the fence: a digest per family of ``seed_errors``,
``prior_unused_fraction`` and the prediction bytes on a fixed probe set
(histories of 1-40 slots, so shorter than ``min_history_slots`` and
shorter than ``input_slots`` are both in it), under ``train_quantile``
``None`` and ``0.3``.  Recorded on commit 1413798 (the per-family
``predict_job_unused`` copies) and transcribed here.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from repro import obs
from repro.cluster.resources import NUM_RESOURCES, as_row
from repro.core.config import CorpConfig
from repro.core.predictor_store import PredictorStore
from repro.forecast import (
    available_predictors,
    create_predictor,
    predictor_class,
)
from repro.obs import OBS

FAMILIES = available_predictors()
SERIALIZABLE = tuple(
    name for name in FAMILIES if "serialize" in predictor_class(name).capabilities
)
#: ``train_quantile`` values the fence is recorded under.
FENCE_QUANTILES = (None, 0.3)

PINNED = {
    "corp": "b019ba4ba31668cc",
    "quantile": "43b14612bc829473",
    "classify": "1ce50c524b8677ec",
    "markov": "8f954adc8ca02a6e",
}


def probes() -> list[tuple[np.ndarray, np.ndarray]]:
    """48 fixed ``(util_history, request)`` pairs, 1-40 slots long."""
    rng = np.random.default_rng(20261003)
    out = []
    for i in range(48):
        n_slots = 1 + (7 * i) % 40
        util = rng.uniform(0.0, 1.0, size=(n_slots, NUM_RESOURCES))
        if i % 8 == 5:  # a flat history: the series families' no-fit path
            util[:] = util[0]
        request = as_row(rng.uniform(0.5, 4.0, size=NUM_RESOURCES))
        out.append((util, request))
    return out


def prediction_bytes(predictor) -> bytes:
    return b"".join(
        predictor.predict_job_unused(util, request).tobytes()
        for util, request in probes()
    )


@pytest.fixture(scope="module")
def zoo(history_trace, fast_corp_config):
    """``fit(name, train_quantile)``: each family fitted once per level."""
    fits: dict[tuple[str, float | None], object] = {}

    def fit(name: str, train_quantile: float | None = 0.5):
        key = (name, train_quantile)
        if key not in fits:
            config = dataclasses.replace(
                fast_corp_config, train_quantile=train_quantile
            )
            fits[key] = create_predictor(name, config).fit(history_trace)
        return fits[key]

    return fit


@pytest.mark.parametrize("name", FAMILIES)
class TestContract:
    def test_unfitted_raises(self, name):
        with pytest.raises(RuntimeError, match="not fitted"):
            create_predictor(name).predict_job_unused(
                np.zeros((4, NUM_RESOURCES)), as_row([1.0] * NUM_RESOURCES)
            )

    def test_young_job_gets_the_prior(self, name, zoo):
        predictor = zoo(name)
        request = as_row([2.0, 3.0, 0.5])
        young = np.full((CorpConfig().min_history_slots - 1, NUM_RESOURCES), 0.2)
        obs.reset()  # counters are process-global
        obs.enable_profiling()
        try:
            got = predictor.predict_job_unused(young, request)
            fallbacks = OBS.counters.get("predictor.prior_fallback")
        finally:
            obs.reset()
        np.testing.assert_array_equal(
            got, predictor.prior_unused_fraction * request
        )
        assert fallbacks == 1.0

    def test_output_within_request(self, name, zoo):
        predictor = zoo(name)
        for util, request in probes():
            got = predictor.predict_job_unused(util, request)
            assert np.all(got >= 0.0) and np.all(got <= request)

    def test_from_config_honours_the_shared_knobs(self, name):
        config = CorpConfig(
            input_slots=4, window_slots=3, prediction_target="window_min",
            train_quantile=0.3, min_history_slots=3, seed=17,
        )
        predictor = create_predictor(name, config)
        if hasattr(predictor, "config"):  # corp: the config itself
            assert predictor.config is config
            return
        assert predictor.input_slots == 4 and predictor.window_slots == 3
        assert predictor.prediction_target == "window_min"
        assert predictor.min_history_slots == 3
        if hasattr(predictor, "quantile"):
            assert predictor.quantile == 0.3
            median = create_predictor(name, CorpConfig(train_quantile=None))
            assert median.quantile == 0.5
        if hasattr(predictor, "seed"):
            assert predictor.seed == 17

    def test_pinned_fence(self, name, zoo):
        digest = hashlib.sha256()
        for train_quantile in FENCE_QUANTILES:
            predictor = zoo(name, train_quantile)
            for errors in predictor.seed_errors:
                digest.update(np.asarray(errors, dtype=np.float64).tobytes())
            digest.update(
                np.asarray(predictor.prior_unused_fraction, dtype=np.float64).tobytes()
            )
            digest.update(prediction_bytes(predictor))
        assert digest.hexdigest()[:16] == PINNED[name]


def assert_same_predictor(restored, original) -> None:
    assert restored.fitted
    for a, b in zip(original.seed_errors, restored.seed_errors, strict=True):
        np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(
        original.prior_unused_fraction, restored.prior_unused_fraction
    )
    assert prediction_bytes(restored) == prediction_bytes(original)


@pytest.mark.parametrize("name", SERIALIZABLE)
class TestArchiveRoundTrip:
    def test_npz(self, name, zoo, tmp_path):
        predictor = zoo(name)
        predictor.save_npz(tmp_path / "p.npz")
        restored = predictor_class(name).load_npz(tmp_path / "p.npz")
        assert_same_predictor(restored, predictor)

    def test_store(self, name, zoo, tmp_path, fast_corp_config):
        predictor = zoo(name)
        store = PredictorStore(tmp_path / "store")
        store.save(fast_corp_config, "digest", predictor)
        restored = store.load(fast_corp_config, "digest", name)
        assert (store.hits, store.misses) == (1, 0)
        assert_same_predictor(restored, predictor)


class TestEveryConstructorParameterIsArchived:
    """A family's own hyper-parameters survive ``save_npz`` / ``load_npz``."""

    @pytest.mark.parametrize("name", [n for n in SERIALIZABLE if n != "corp"])
    def test_params_and_arrays_name_every_field(self, name):
        # corp is the one family with its own payload code (nets + HMMs).
        cls = predictor_class(name)
        declared = {*cls.PARAMS, *cls.ARRAYS, "seed_errors", "prior_unused_fraction"}
        assert {f.name for f in dataclasses.fields(cls)} == declared

    @pytest.mark.parametrize(
        "name, params",
        [
            ("quantile", {"quantile": 0.2, "input_slots": 4}),
            ("classify", {"n_classes": 2, "seed": 5}),
            ("markov", {"n_bins": 3}),
        ],
    )
    def test_round_trip(self, name, params, short_trace, tmp_path):
        cls = predictor_class(name)
        predictor = cls(**params).fit(short_trace)
        predictor.save_npz(tmp_path / "p.npz")
        restored = cls.load_npz(tmp_path / "p.npz")
        for key, value in params.items():
            assert getattr(restored, key) == value
        assert_same_predictor(restored, predictor)
