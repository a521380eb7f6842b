"""Shared fixtures: small traces, fast configs, a session-scoped predictor.

Test-speed policy: anything that trains the DNN or runs a simulation
uses deliberately tiny sizes; the expensive offline fit is shared
session-wide through ``fitted_predictor``.

Hypothesis runs the derandomized ``ci`` profile by default so CI
failures reproduce locally from the same examples; set
``HYPOTHESIS_PROFILE=dev`` to explore fresh random examples.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import settings as hypothesis_settings

hypothesis_settings.register_profile(
    "ci", derandomize=True, deadline=None, print_blob=True
)
hypothesis_settings.register_profile("dev", deadline=None)
hypothesis_settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "ci"))

from repro.cluster.profiles import ClusterProfile
from repro.core.config import CorpConfig
from repro.core.predictor import CorpPredictor
from repro.experiments.runner import PredictorCache
from repro.trace.filters import remove_long_lived
from repro.trace.generator import GoogleTraceGenerator, TraceConfig
from repro.trace.records import Trace
from repro.trace.transform import resample_trace


def fast_trace_config(n_jobs: int = 40, seed: int = 0, **overrides) -> TraceConfig:
    """A 10-second-sampled config mirroring the experiment scenarios."""
    defaults = dict(
        n_jobs=n_jobs,
        arrival_span_s=100.0,
        short_fraction=0.92,
        sample_period_s=10.0,
        burst_prob=0.03,
        burst_mean_len=8.0,
        valley_prob=0.03,
        valley_mean_len=8.0,
        noise_sigma=0.03,
        long_pattern_period_s=600.0,
        seed=seed,
    )
    defaults.update(overrides)
    return TraceConfig(**defaults)


def make_short_trace(n_jobs: int = 40, seed: int = 0, **overrides) -> Trace:
    """Short-lived-only trace at 10-second sampling."""
    raw = GoogleTraceGenerator(fast_trace_config(n_jobs, seed, **overrides)).generate()
    return resample_trace(remove_long_lived(raw), 10.0, seed=seed)


@pytest.fixture(scope="session")
def short_trace() -> Trace:
    """A shared evaluation-style trace (short jobs, 10 s samples)."""
    return make_short_trace(n_jobs=40, seed=11)


@pytest.fixture(scope="session")
def history_trace() -> Trace:
    """A shared history trace big enough to train the predictor on."""
    return make_short_trace(n_jobs=120, seed=12, arrival_span_s=None,
                            arrival_rate_per_s=0.2)


@pytest.fixture(scope="session")
def fast_corp_config() -> CorpConfig:
    """Small DNN and short training so CORP tests stay fast."""
    return CorpConfig(
        n_hidden_layers=2,
        units_per_layer=16,
        train_max_epochs=15,
        seed=3,
    )


@pytest.fixture(scope="session")
def fitted_predictor(fast_corp_config, history_trace) -> CorpPredictor:
    """One fitted CORP predictor shared by every test that needs it."""
    return CorpPredictor(config=fast_corp_config).fit(history_trace)


@pytest.fixture(scope="session")
def predictor_cache() -> PredictorCache:
    """One cache of fitted predictors for the whole session.

    For tests that need *a* fit, not to observe one: most end-to-end
    modules train the same default-config DNN on the same seed-7
    history.  Tests that assert on hit / miss counters build their own.
    """
    return PredictorCache(maxsize=64)


@pytest.fixture(scope="session")
def cli_store(tmp_path_factory) -> str:
    """One ``--store`` directory for every CLI test that fits a predictor.

    ``main([...])`` has no in-process cache seam; with the store, each
    distinct (seed, config) fit runs once per session instead of once
    per test.
    """
    return str(tmp_path_factory.mktemp("predictor-store"))


@pytest.fixture()
def small_profile() -> ClusterProfile:
    """A 4-PM / 8-VM cluster for fast simulations."""
    return ClusterProfile.palmetto(n_pms=4, vms_per_pm=2)


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(0)
