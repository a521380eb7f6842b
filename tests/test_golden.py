"""Golden-trace regression suite: the committed seeded summaries.

The golden files under ``tests/golden/`` freeze the per-method summary
metrics of the seeded 30-job comparison — fault-free and under the
seeded fault plan — plus one file per scenario family (pipeline,
diurnal, storm) pinning the family's extra metrics.  Any behavioural
drift in the simulator, schedulers, predictors, fault layer or workload
drivers fails here with the exact metric that moved.  Re-record
intentional changes with ``python -m repro golden --update``.
"""

from __future__ import annotations

import os

import pytest

from repro.check.golden import (
    GOLDEN_FAMILIES,
    NONDETERMINISTIC_KEYS,
    compute_family_golden,
    compute_golden,
    default_golden_path,
    diff_golden,
    family_golden_path,
    golden_digest,
    load_golden,
)

pytestmark = pytest.mark.slow

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")

#: The metric each family golden must pin — proof the scenario actually
#: ran through its workload driver, not the plain path.
FAMILY_METRIC = {
    "pipeline": "pipeline_stall_slots",
    "diurnal": "flash_crowd_p99_wait",
    "storm": "storm_waves",
}


@pytest.fixture(scope="module")
def recorded():
    path = default_golden_path(GOLDEN_DIR, jobs=30, testbed="cluster", seed=7)
    if not os.path.exists(path):
        pytest.fail(
            f"missing golden file {path}; record it with "
            f"`python -m repro golden --update`"
        )
    return load_golden(path)


@pytest.fixture(scope="module")
def fresh(recorded):
    meta = recorded["meta"]
    return compute_golden(
        jobs=meta["jobs"],
        testbed=meta["testbed"],
        seed=meta["seed"],
        fault_intensity=meta["fault_intensity"],
        fault_seed=meta["fault_seed"],
    )


class TestGoldenMatch:
    def test_no_drift(self, recorded, fresh):
        drift = diff_golden(recorded, fresh)
        assert not drift, (
            "seeded summaries drifted from tests/golden "
            "(re-record with `python -m repro golden --update` if this "
            "change is intentional):\n  " + "\n  ".join(drift)
        )

    def test_digest_matches(self, recorded, fresh):
        assert recorded["digest"] == golden_digest(recorded)
        assert fresh["digest"] == recorded["digest"]

    def test_covers_all_methods_in_both_sections(self, recorded):
        methods = set(recorded["meta"]["methods"])
        assert set(recorded["fault_free"]) == methods
        assert set(recorded["faulted"]) == methods

    def test_excludes_wall_clock_metrics(self, recorded):
        for section in ("fault_free", "faulted"):
            for summary in recorded[section].values():
                assert not NONDETERMINISTIC_KEYS & set(summary)


@pytest.fixture(scope="module", params=GOLDEN_FAMILIES)
def family_pair(request):
    family = request.param
    path = family_golden_path(GOLDEN_DIR, family=family, jobs=30, seed=7)
    if not os.path.exists(path):
        pytest.fail(
            f"missing golden file {path}; record it with "
            f"`python -m repro golden --update`"
        )
    recorded = load_golden(path)
    meta = recorded["meta"]
    fresh = compute_family_golden(
        meta["family"], jobs=meta["jobs"], testbed=meta["testbed"],
        seed=meta["seed"],
    )
    return recorded, fresh


class TestFamilyGoldens:
    def test_no_drift(self, family_pair):
        recorded, fresh = family_pair
        drift = diff_golden(recorded, fresh)
        assert not drift, (
            f"{recorded['meta']['family']} scenario summaries drifted from "
            "tests/golden (re-record with `python -m repro golden --update` "
            "if this change is intentional):\n  " + "\n  ".join(drift)
        )

    def test_digest_matches(self, family_pair):
        recorded, fresh = family_pair
        assert recorded["digest"] == golden_digest(recorded)
        assert fresh["digest"] == recorded["digest"]

    def test_covers_all_methods(self, family_pair):
        recorded, _ = family_pair
        assert set(recorded["summaries"]) == set(recorded["meta"]["methods"])

    def test_pins_the_family_metric(self, family_pair):
        recorded, _ = family_pair
        metric = FAMILY_METRIC[recorded["meta"]["family"]]
        for method, summary in recorded["summaries"].items():
            assert metric in summary, (method, metric)

    def test_excludes_wall_clock_metrics(self, family_pair):
        recorded, _ = family_pair
        for summary in recorded["summaries"].values():
            assert not NONDETERMINISTIC_KEYS & set(summary)


class TestGoldenMachinery:
    def test_diff_reports_value_drift(self, recorded):
        import copy

        tampered = copy.deepcopy(recorded)
        method = recorded["meta"]["methods"][0]
        tampered["fault_free"][method]["overall_utilization"] += 0.01
        lines = diff_golden(recorded, tampered)
        assert len(lines) == 1
        assert f"fault_free/{method}/overall_utilization" in lines[0]

    def test_diff_reports_missing_method(self, recorded):
        import copy

        tampered = copy.deepcopy(recorded)
        method = recorded["meta"]["methods"][0]
        del tampered["faulted"][method]
        lines = diff_golden(recorded, tampered)
        assert any(f"faulted/{method}" in line for line in lines)

    def test_default_path_is_parameterized(self):
        path = default_golden_path("g", jobs=30, testbed="cluster", seed=7)
        assert path == os.path.join("g", "cluster_j30_seed7.json")

    def test_family_path_is_parameterized(self):
        path = family_golden_path("g", family="storm", jobs=30, seed=7)
        assert path == os.path.join("g", "storm_j30_seed7.json")

    def test_diff_discovers_family_sections(self, family_pair):
        """The differ iterates whatever sections the payload carries."""
        import copy

        recorded, _ = family_pair
        tampered = copy.deepcopy(recorded)
        method = recorded["meta"]["methods"][0]
        metric = FAMILY_METRIC[recorded["meta"]["family"]]
        tampered["summaries"][method][metric] += 1.0
        lines = diff_golden(recorded, tampered)
        assert len(lines) == 1
        assert f"summaries/{method}/{metric}" in lines[0]

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="unknown golden family"):
            compute_family_golden("tsunami")
