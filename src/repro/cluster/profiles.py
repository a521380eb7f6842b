"""Cluster profiles matching the paper's two testbeds (Section IV).

* **Palmetto** — Clemson's HPC cluster: 50 HP SL230 servers (dual
  E5-2665 → 16 cores, 64 GB RAM), 1 GB/s network, 720 GB disk each.
  The paper simulates "a node as a PM and a logic disk as a VM"; we carve
  each PM into equal VMs.
* **EC2** — 30 Amazon EC2 nodes (HP ProLiant ML110 G5-class: 2660 MIPS
  ≈ 2 cores, 4 GB RAM), each node simulated as one VM, with a higher
  communication latency per scheduling operation (the cause of Fig. 14's
  latencies exceeding Fig. 10's).

The communication-latency model substitutes for real network RTTs: every
remote scheduler operation (placing an entity, polling a VM's usage)
charges ``comm_latency_s`` to the modeled allocation latency.
"""

from __future__ import annotations

from dataclasses import dataclass

from .machine import PhysicalMachine, VirtualMachine
from .resources import ResourceVector

__all__ = ["ClusterProfile"]


@dataclass(frozen=True)
class ClusterProfile:
    """A testbed description the simulator can instantiate.

    Attributes
    ----------
    name:
        Profile label used in reports.
    n_pms:
        Number of physical machines (paper: 30-50, Table II).
    pm_capacity:
        Per-PM capacity (cores, GB RAM, GB disk): a hashable
        :class:`~repro.cluster.resources.ResourceVector`, so a profile is a
        value; the machines :meth:`build` makes hold its row.
    vms_per_pm:
        Equal-size VMs carved from each PM (total VMs 100-400, Table II).
    comm_latency_s:
        Modeled network round-trip charged per remote scheduler
        operation; EC2's is an order of magnitude above the cluster's.
    bandwidth_gbps:
        Node bandwidth (both testbeds: 1 GB/s) — recorded for
        completeness; the three modeled resource types are CPU/MEM/disk.
    """

    name: str
    n_pms: int
    pm_capacity: ResourceVector
    vms_per_pm: int
    comm_latency_s: float
    bandwidth_gbps: float = 1.0

    def __post_init__(self) -> None:
        if self.n_pms < 1:
            raise ValueError("n_pms must be >= 1")
        if self.vms_per_pm < 1:
            raise ValueError("vms_per_pm must be >= 1")
        if self.comm_latency_s < 0:
            raise ValueError("comm_latency_s must be >= 0")

    # ------------------------------------------------------------------
    @classmethod
    def palmetto(cls, n_pms: int = 50, vms_per_pm: int = 2) -> "ClusterProfile":
        """The real-cluster testbed (50 × HP SL230, Section IV-A)."""
        return cls(
            name="palmetto",
            n_pms=n_pms,
            pm_capacity=ResourceVector.of(cpu=16.0, mem=64.0, storage=720.0),
            vms_per_pm=vms_per_pm,
            comm_latency_s=0.0002,
        )

    @classmethod
    def ec2(cls, n_nodes: int = 30) -> "ClusterProfile":
        """The Amazon EC2 testbed (30 × ML110 G5-class, Section IV-B).

        Each node is simulated as one VM, as the paper does.
        """
        return cls(
            name="ec2",
            n_pms=n_nodes,
            pm_capacity=ResourceVector.of(cpu=8.0, mem=32.0, storage=720.0),
            vms_per_pm=1,
            comm_latency_s=0.002,
        )

    @classmethod
    def hyperscale(
        cls, n_pms: int = 1250, vms_per_pm: int = 8
    ) -> "ClusterProfile":
        """A 10k-VM datacenter testbed.

        Defaults to 1250 dense PMs (64 cores / 256 GB / 4 TB, modern
        2-socket boxes) carved into 8 VMs each — 10,000 VMs, two orders
        of magnitude beyond the paper's testbeds (the ledger's
        ``hyperscale_stream`` runs 3,000 of them).  At this size the
        per-slot cost is what the occupied VMs cost: the tick reads
        liveness and the primary pool its rows off the cluster lanes in
        one matrix expression each, and skips every quiescent VM.
        """
        return cls(
            name="hyperscale",
            n_pms=n_pms,
            pm_capacity=ResourceVector.of(cpu=64.0, mem=256.0, storage=4000.0),
            vms_per_pm=vms_per_pm,
            comm_latency_s=0.0001,
        )

    # ------------------------------------------------------------------
    @property
    def n_vms(self) -> int:
        """Total VM count (``n_pms × vms_per_pm``)."""
        return self.n_pms * self.vms_per_pm

    @property
    def vm_capacity(self) -> ResourceVector:
        """Capacity of each (equal) VM."""
        return ResourceVector(self.pm_capacity.as_array() / float(self.vms_per_pm))

    def build(self) -> tuple[list[PhysicalMachine], list[VirtualMachine]]:
        """Instantiate the PMs and VMs of this profile (one lane set)."""
        vms = VirtualMachine.cluster(
            self.vm_capacity,
            [pm_id for pm_id in range(self.n_pms) for _ in range(self.vms_per_pm)],
        )
        pms = [PhysicalMachine(pm_id, self.pm_capacity) for pm_id in range(self.n_pms)]
        for vm in vms:
            pms[vm.pm_id].add_vm(vm)
        return pms, vms
