"""Reference-vs-vectorized differential execution (repro.check.differential)."""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro import api
from repro.check.differential import (
    capture_snapshot,
    diff_outcome,
    reference_outcome,
)
from repro.cluster.machine import Placement, VirtualMachine
from repro.cluster.job import Job

from ..cluster.test_job import make_record


def make_vm_with_jobs(primary_utils, rider_utils):
    vm = VirtualMachine(0, [8, 16, 100])
    for i, util in enumerate(primary_utils):
        share = len(primary_utils)
        job = Job(
            record=make_record(
                request=(8 / share, 16 / share, 100 / share),
                util=np.full(6, util),
                task_id=i,
            ),
            submit_slot=0,
        )
        vm.add_placement(
            Placement(job=job, vm=vm, reserved=job.requested, opportunistic=False)
        )
        job.start(0, opportunistic=False)
    for i, util in enumerate(rider_utils):
        job = Job(
            record=make_record(
                request=(2, 4, 10), util=np.full(6, util), task_id=100 + i
            ),
            submit_slot=0,
        )
        vm.add_placement(
            Placement(
                job=job, vm=vm, reserved=np.zeros(3),
                opportunistic=True,
            )
        )
        job.start(0, opportunistic=True)
    return vm


class TestUnitDiff:
    def test_clean_vm_produces_no_diff(self):
        vm = make_vm_with_jobs([0.6, 0.9], [0.5])
        snapshot = capture_snapshot(vm)
        outcome = vm.execute_slot(0)
        assert diff_outcome(snapshot, outcome, vm) == []

    def test_contended_vm_produces_no_diff(self):
        """Riders squeezed by heavy primaries still match the reference."""
        vm = make_vm_with_jobs([0.95, 0.95, 0.95], [0.9, 0.9])
        snapshot = capture_snapshot(vm)
        outcome = vm.execute_slot(0)
        assert diff_outcome(snapshot, outcome, vm) == []

    def test_perturbed_aggregate_is_flagged(self):
        vm = make_vm_with_jobs([0.7], [0.4])
        snapshot = capture_snapshot(vm)
        outcome = vm.execute_slot(0)
        corrupted = replace(
            outcome,
            served_demand=outcome.served_demand + 0.5,
        )
        details = diff_outcome(snapshot, corrupted, vm)
        assert len(details) == 1
        assert details[0].startswith("served_demand")

    def test_reference_respects_capacity(self):
        vm = make_vm_with_jobs([0.95, 0.95, 0.95], [0.9])
        ref = reference_outcome(capture_snapshot(vm))
        assert np.all(
            ref.served_demand <= vm.capacity + 1e-9
        )
        assert np.all((ref.rates >= 0.0) & (ref.rates <= 1.0))

    def test_changed_placement_list_is_flagged(self):
        vm = make_vm_with_jobs([0.5], [])
        snapshot = capture_snapshot(vm)
        outcome = vm.execute_slot(0)
        vm.placements.clear()
        details = diff_outcome(snapshot, outcome, vm)
        assert details and "placement list changed" in details[0]


class TestEndToEnd:
    def test_differential_rule_clean_over_full_run(self, predictor_cache):
        report = api.check_run(
            jobs=10, methods=("CORP", "DRA"), differential=True,
            predictor_cache=predictor_cache,
        )
        assert report.ok, report.rows()
        assert report.checks["differential"] > 0
