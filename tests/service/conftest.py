"""Shared fixtures for the service layer: one tiny scenario + warm cache.

Every test here runs real simulations, so the scenario is small (20
jobs on a 4-PM cluster) and all CORP runs share the session's
``predictor_cache`` — the DNN/HMM fit happens once.
"""

import pytest

from repro.cluster.profiles import ClusterProfile
from repro.core.config import CorpConfig
from repro.experiments.scenarios import cluster_scenario
from repro.obs import OBS


@pytest.fixture(autouse=True)
def pristine_observer():
    OBS.reset()
    yield
    OBS.reset()


@pytest.fixture(scope="package")
def small_scenario():
    return cluster_scenario(
        n_jobs=20, seed=5, profile=ClusterProfile.palmetto(n_pms=4, vms_per_pm=2)
    )


@pytest.fixture(scope="package")
def tiny_corp_config():
    return CorpConfig(
        n_hidden_layers=1, units_per_layer=8, train_max_epochs=2, seed=3
    )
