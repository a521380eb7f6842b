"""Clean-run behaviour of the runtime invariant checker (repro.check)."""

from __future__ import annotations

import json

import pytest

from repro import api
from repro.check import CHECK, DEFAULT_RULES, InvariantChecker, Violation
from repro.check.rules import ALL_RULES


def _deterministic(summary: dict) -> dict:
    """Summary minus the wall-clock timing field."""
    return {k: v for k, v in summary.items() if k != "allocation_latency_s"}


class TestCheckerConstruction:
    def test_unknown_rule_rejected(self):
        with pytest.raises(ValueError, match="unknown invariant rule"):
            InvariantChecker(rules=("capacity", "bogus"))

    def test_non_positive_tolerance_rejected(self):
        with pytest.raises(ValueError, match="tolerance"):
            InvariantChecker(tolerance=0.0)

    def test_default_rules_exclude_differential(self):
        checker = InvariantChecker()
        assert checker.rules == frozenset(DEFAULT_RULES)
        assert "differential" not in checker.rules
        assert set(ALL_RULES) - set(DEFAULT_RULES) == {"differential"}

    def test_violation_rows_are_flat(self):
        v = Violation(rule="capacity", detail="d", slot=3, vm=1)
        row = v.as_row()
        assert row["rule"] == "capacity"
        assert row["slot"] == 3
        assert row["vm"] == 1
        json.dumps(row)  # table/JSON-ready


class TestHub:
    def test_disabled_by_default(self):
        assert CHECK.enabled is False
        assert CHECK.checker is None

    def test_session_installs_and_restores(self):
        checker = InvariantChecker()
        with CHECK.session(checker) as installed:
            assert installed is checker
            assert CHECK.enabled is True
            assert CHECK.checker is checker
        assert CHECK.enabled is False
        assert CHECK.checker is None

    def test_session_does_not_uninstall_a_replacement(self):
        first = InvariantChecker()
        second = InvariantChecker()
        with CHECK.session(first):
            CHECK.install(second)
        # The session only tears down its own checker.
        assert CHECK.enabled is True
        assert CHECK.checker is second
        CHECK.uninstall()
        assert CHECK.enabled is False


class TestCleanRun:
    def test_no_violations_and_rules_exercised(self):
        report = api.check_run(jobs=12, methods=("DRA", "RCCR"))
        assert report.ok, report.rows()
        assert report.n_violations == 0
        assert report.checks["capacity"] > 0
        assert report.checks["jobs"] > 0
        assert report.checks["packing"] > 0
        assert report.n_checks == sum(report.checks.values())
        assert set(report.summaries) == {"DRA", "RCCR"}

    def test_corp_exercises_gate_and_volume(self, predictor_cache):
        report = api.check_run(
            jobs=12, methods=("CORP",), predictor_cache=predictor_cache
        )
        assert report.ok, report.rows()
        assert report.checks["gate"] > 0
        assert report.checks["volume"] > 0

    def test_checker_is_read_only(self):
        """Checked summaries match unchecked ones on every deterministic
        field (allocation latency is wall-clock and varies run to run)."""
        plain = api.compare(jobs=12, methods=("DRA", "RCCR"))
        checked = api.check_run(jobs=12, methods=("DRA", "RCCR"))
        for method, result in plain.items():
            assert _deterministic(checked.summaries[method]) == _deterministic(
                result.summary()
            )

    def test_hub_left_disabled_after_check_run(self):
        api.check_run(jobs=10, methods=("DRA",))
        assert CHECK.enabled is False
        assert CHECK.checker is None

    def test_explicit_rule_subset(self):
        report = api.check_run(jobs=10, methods=("DRA",), rules=("jobs",))
        assert report.ok
        assert set(report.checks) == {"jobs"}
        assert report.checks["jobs"] > 0

    def test_parallel_workers_rejected_while_checking(self):
        with CHECK.session(InvariantChecker()):
            with pytest.raises(ValueError, match="workers"):
                api.compare(jobs=10, methods=("DRA",), workers=2)

    def test_faulted_run_conserves_jobs(self):
        plan = api.build_fault_plan(seed=0, intensity=0.5)
        report = api.check_run(jobs=12, methods=("DRA",), fault_plan=plan)
        assert report.ok, report.rows()
        assert report.checks["jobs"] > 0
