"""Cluster profiles: the two testbed descriptions of Section IV."""

import numpy as np
import pytest

from repro.cluster.machine import ClusterLanes, VirtualMachine
from repro.cluster.profiles import ClusterProfile
from repro.cluster.resources import ResourceVector


class TestPalmetto:
    def test_defaults(self):
        p = ClusterProfile.palmetto()
        assert p.name == "palmetto"
        assert p.n_pms == 50
        assert p.pm_capacity == ResourceVector.of(cpu=16, mem=64, storage=720)

    def test_vm_carving(self):
        p = ClusterProfile.palmetto(n_pms=10, vms_per_pm=2)
        assert p.n_vms == 20
        assert p.vm_capacity == ResourceVector.of(cpu=8, mem=32, storage=360)

    def test_build_counts(self):
        p = ClusterProfile.palmetto(n_pms=3, vms_per_pm=2)
        pms, vms = p.build()
        assert len(pms) == 3
        assert len(vms) == 6

    def test_build_vm_ids_sequential(self):
        _, vms = ClusterProfile.palmetto(n_pms=2, vms_per_pm=2).build()
        assert [vm.vm_id for vm in vms] == [0, 1, 2, 3]

    def test_build_assigns_pm_ids(self):
        pms, vms = ClusterProfile.palmetto(n_pms=2, vms_per_pm=2).build()
        assert vms[0].pm_id == 0 and vms[3].pm_id == 1

    def test_vms_fit_in_pm(self):
        pms, _ = ClusterProfile.palmetto(n_pms=1, vms_per_pm=4).build()
        np.testing.assert_array_equal(pms[0].free_capacity(), [0, 0, 0])


class TestEc2:
    def test_defaults(self):
        p = ClusterProfile.ec2()
        assert p.name == "ec2"
        assert p.n_pms == 30
        assert p.vms_per_pm == 1
        assert p.n_vms == 30

    def test_comm_latency_above_cluster(self):
        # The EC2 communication overhead exceeds the cluster's — the
        # cause of Fig. 14's latencies exceeding Fig. 10's.
        assert ClusterProfile.ec2().comm_latency_s > ClusterProfile.palmetto().comm_latency_s

    def test_bandwidth_recorded(self):
        assert ClusterProfile.ec2().bandwidth_gbps == 1.0


class TestValidation:
    def test_rejects_zero_pms(self):
        with pytest.raises(ValueError):
            ClusterProfile(
                name="x",
                n_pms=0,
                pm_capacity=ResourceVector.of(cpu=1),
                vms_per_pm=1,
                comm_latency_s=0.0,
            )

    def test_rejects_zero_vms_per_pm(self):
        with pytest.raises(ValueError):
            ClusterProfile(
                name="x",
                n_pms=1,
                pm_capacity=ResourceVector.of(cpu=1),
                vms_per_pm=0,
                comm_latency_s=0.0,
            )

    def test_rejects_negative_latency(self):
        with pytest.raises(ValueError):
            ClusterProfile(
                name="x",
                n_pms=1,
                pm_capacity=ResourceVector.of(cpu=1),
                vms_per_pm=1,
                comm_latency_s=-0.1,
            )

    def test_builds_are_independent(self):
        p = ClusterProfile.palmetto(n_pms=1, vms_per_pm=1)
        _, vms_a = p.build()
        _, vms_b = p.build()
        assert vms_a[0] is not vms_b[0]


class TestOneLaneSet:
    @pytest.mark.parametrize(
        "profile",
        [
            ClusterProfile.palmetto(n_pms=3, vms_per_pm=2),
            ClusterProfile.ec2(),
            ClusterProfile.hyperscale(n_pms=4),
        ],
        ids=["palmetto", "ec2", "hyperscale"],
    )
    def test_build_lanes_equal_the_adopted_one_at_a_time_vms(self, profile):
        """``build()`` makes the cluster's lanes once, each VM a row
        handle of them; VMs built one at a time and adopted by
        ``ClusterLanes.of`` hold the same lanes, ids and PMs."""
        pms, vms = profile.build()
        lanes = vms[0]._lanes
        assert all(vm._lanes is lanes and vm._row == row for row, vm in enumerate(vms))
        assert ClusterLanes.of(vms) is lanes

        alone = [
            VirtualMachine(vm_id, profile.vm_capacity, pm_id=vm_id // profile.vms_per_pm)
            for vm_id in range(profile.n_vms)
        ]
        adopted = ClusterLanes.of(alone)
        for name in ("capacity", "committed", "online", "occupied", "changes",
                     "idle_slots"):
            got, want = getattr(lanes, name), getattr(adopted, name)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes(), name
        assert lanes.capacity_changes == adopted.capacity_changes == 0
        assert [(vm.vm_id, vm.pm_id) for vm in vms] == [
            (vm.vm_id, vm.pm_id) for vm in alone
        ]
        assert [vm.base_capacity.tolist() for vm in vms] == [
            vm.base_capacity.tolist() for vm in alone
        ]
        assert [[vm.vm_id for vm in pm.vms] for pm in pms] == [
            list(range(i * profile.vms_per_pm, (i + 1) * profile.vms_per_pm))
            for i in range(profile.n_pms)
        ]

    def test_a_vm_writes_its_own_row(self):
        _, vms = ClusterProfile.palmetto(n_pms=2, vms_per_pm=2).build()
        vms[2].set_capacity_scale(0.5)
        lanes = vms[0]._lanes
        np.testing.assert_array_equal(lanes.capacity[2], vms[2].base_capacity * 0.5)
        np.testing.assert_array_equal(lanes.capacity[[0, 1, 3]], np.tile(
            vms[0].base_capacity, (3, 1)
        ))


class TestRowsFromTheProfile:
    def test_build_holds_read_only_rows(self):
        """A profile is a hashable value; what it builds holds rows."""
        p = ClusterProfile.hyperscale(n_pms=2, vms_per_pm=4)
        pms, vms = p.build()
        for row in [pm.capacity for pm in pms] + [vm.base_capacity for vm in vms]:
            assert type(row) is np.ndarray and row.dtype == np.float64
            assert row.shape == (3,) and not row.flags.writeable
        np.testing.assert_array_equal(pms[0].capacity, p.pm_capacity.as_array())
        np.testing.assert_array_equal(vms[0].base_capacity, p.vm_capacity.as_array())
        assert p == ClusterProfile.hyperscale(n_pms=2, vms_per_pm=4)
        assert hash(p) == hash(ClusterProfile.hyperscale(n_pms=2, vms_per_pm=4))
