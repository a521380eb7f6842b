"""The predictor registry: lookup, creation, resolution, registration."""

import pytest

from repro.core.config import CorpConfig
from repro.core.predictor import CorpPredictor
from repro.forecast import (
    ClassifyThenPredictPredictor,
    MarkovJobPredictor,
    Predictor,
    QuantileHistogramPredictor,
    available_predictors,
    create_predictor,
    predictor_class,
    predictor_summaries,
    register_predictor,
    resolve_predictor,
)
from repro.forecast import registry as registry_mod

BUILTINS = ("corp", "quantile", "classify", "markov")


class TestLookup:
    def test_builtins_registered_in_order(self):
        assert available_predictors() == BUILTINS

    def test_summaries_cover_every_name(self):
        summaries = predictor_summaries()
        assert tuple(summaries) == BUILTINS
        assert all(summaries[name] for name in BUILTINS)

    def test_predictor_class(self):
        assert predictor_class("corp") is CorpPredictor
        assert predictor_class("quantile") is QuantileHistogramPredictor
        assert predictor_class("classify") is ClassifyThenPredictPredictor
        assert predictor_class("markov") is MarkovJobPredictor

    def test_unknown_name_lists_registry(self):
        with pytest.raises(ValueError, match="corp, quantile, classify"):
            predictor_class("nope")
        with pytest.raises(ValueError, match="unknown predictor 'nope'"):
            create_predictor("nope")

    def test_family_attribute_matches_registry_name(self):
        for name in BUILTINS:
            assert predictor_class(name).family == name


class TestCreate:
    def test_create_passes_config(self):
        cfg = CorpConfig(input_slots=4, window_slots=3)
        p = create_predictor("quantile", cfg)
        assert isinstance(p, QuantileHistogramPredictor)
        assert p.input_slots == 4 and p.window_slots == 3

    def test_create_default_config(self):
        p = create_predictor("corp")
        assert isinstance(p, CorpPredictor)
        assert p.config.window_slots == CorpConfig().window_slots

    def test_every_builtin_constructs(self):
        for name in BUILTINS:
            assert isinstance(create_predictor(name), Predictor)


class TestResolve:
    def test_name_resolves(self):
        assert isinstance(resolve_predictor("markov"), MarkovJobPredictor)

    def test_instance_passes_through(self):
        p = QuantileHistogramPredictor()
        assert resolve_predictor(p) is p

    def test_wrong_type_rejected(self):
        with pytest.raises(TypeError):
            resolve_predictor(42)


class TestRegister:
    def test_register_and_remove(self):
        class Dummy(QuantileHistogramPredictor):
            family = "dummyfam"

        register_predictor(
            "dummyfam",
            cls=lambda: Dummy,
            summary="test-only",
        )
        try:
            assert "dummyfam" in available_predictors()
            assert predictor_class("dummyfam") is Dummy
            assert isinstance(create_predictor("dummyfam"), Dummy)
            assert predictor_summaries()["dummyfam"] == "test-only"
        finally:
            registry_mod._REGISTRY.pop("dummyfam", None)
        assert "dummyfam" not in available_predictors()

    def test_invalid_name_rejected(self):
        with pytest.raises(ValueError, match="lowercase"):
            register_predictor("Not Valid", cls=lambda: QuantileHistogramPredictor)
        with pytest.raises(ValueError, match="lowercase"):
            register_predictor("", cls=lambda: QuantileHistogramPredictor)
