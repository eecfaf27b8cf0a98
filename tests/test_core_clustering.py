"""Tests for the two-level clustering (Algorithms 1 and 2)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.calibration import PAPER_BEST_QUANTA
from repro.core.clustering import (
    TypedVCpu,
    build_pool_plan,
    cluster_socket,
    distribute_over_sockets,
)
from repro.core.types import VCpuType
from repro.hardware.specs import xeon_e5_4603
from repro.hypervisor.machine import Machine
from repro.sim.units import MS


def make_population(machine, counts):
    """counts: list of (VCpuType, n, llco_cur) -> TypedVCpu list."""
    typed = []
    for vtype, n, llco_cur in counts:
        for i in range(n):
            vm = machine.new_vm(f"{vtype.value}.{len(typed)}", 1)
            typed.append(TypedVCpu(vm.vcpus[0], vtype, llco_cur_avg=llco_cur))
    return typed


class TestTrashingSplit:
    def test_llco_is_trashing(self):
        machine = Machine(seed=0)
        vm = machine.new_vm("vm", 1)
        assert TypedVCpu(vm.vcpus[0], VCpuType.LLCO).trashing

    def test_llcf_and_lolcf_are_not(self):
        machine = Machine(seed=0)
        vm = machine.new_vm("vm", 2)
        assert not TypedVCpu(vm.vcpus[0], VCpuType.LLCF).trashing
        assert not TypedVCpu(vm.vcpus[1], VCpuType.LOLCF).trashing

    def test_ioint_plus_threshold(self):
        machine = Machine(seed=0)
        vm = machine.new_vm("vm", 2)
        plus = TypedVCpu(vm.vcpus[0], VCpuType.IOINT, llco_cur_avg=60.0)
        minus = TypedVCpu(vm.vcpus[1], VCpuType.IOINT, llco_cur_avg=40.0)
        assert plus.trashing
        assert not minus.trashing

    def test_conspin_plus_threshold(self):
        machine = Machine(seed=0)
        vm = machine.new_vm("vm", 1)
        assert TypedVCpu(vm.vcpus[0], VCpuType.CONSPIN, llco_cur_avg=51.0).trashing


class TestAlgorithm1:
    def test_trashers_packed_first(self):
        machine = Machine(xeon_e5_4603(), seed=0)
        typed = make_population(
            machine,
            [(VCpuType.LLCO, 4, 100.0), (VCpuType.LLCF, 4, 0.0)],
        )
        assignment = distribute_over_sockets(typed, machine.topology.sockets[:2])
        socket0 = assignment[0]
        assert all(tv.vtype == VCpuType.LLCO for tv in socket0)

    def test_fair_count_per_socket(self):
        machine = Machine(xeon_e5_4603(), seed=0)
        typed = make_population(machine, [(VCpuType.LLCF, 12, 0.0)])
        assignment = distribute_over_sockets(typed, machine.topology.sockets)
        sizes = [len(v) for v in assignment.values()]
        assert sum(sizes) == 12
        assert max(sizes) - min(sizes) <= 3  # ceil-chunked

    def test_lolcf_heads_the_non_trashing_list(self):
        """LoLCF lands on the boundary socket next to the trashers,
        shielding LLCF."""
        machine = Machine(xeon_e5_4603(), seed=0)
        typed = make_population(
            machine,
            [
                (VCpuType.LLCO, 2, 100.0),
                (VCpuType.LLCF, 2, 0.0),
                (VCpuType.LOLCF, 2, 0.0),
            ],
        )
        assignment = distribute_over_sockets(typed, machine.topology.sockets[:3])
        boundary = assignment[1]  # socket after the trashers
        assert all(tv.vtype == VCpuType.LOLCF for tv in boundary)

    def test_vm_vcpus_stay_adjacent(self):
        machine = Machine(xeon_e5_4603(), seed=0)
        vm = machine.new_vm("big", 4)
        typed = [TypedVCpu(v, VCpuType.LLCF) for v in vm.vcpus]
        other = machine.new_vm("other", 4)
        typed += [TypedVCpu(v, VCpuType.LLCF) for v in other.vcpus]
        assignment = distribute_over_sockets(typed, machine.topology.sockets[:2])
        for members in assignment.values():
            vms = {tv.vcpu.vm.vm_id for tv in members}
            assert len(vms) == 1  # one VM per socket here

    def test_no_sockets_raises(self):
        with pytest.raises(ValueError):
            distribute_over_sockets([], [])


class TestAlgorithm2:
    def test_single_qlc_cluster(self):
        machine = Machine(seed=0)
        typed = make_population(machine, [(VCpuType.LLCF, 8, 0.0)])
        socket = machine.topology.sockets[0]
        result = cluster_socket(typed, socket.pcpus[:2], PAPER_BEST_QUANTA)
        assert len(result.clusters) == 1
        quantum, vcpus, pcpus = result.clusters[0]
        assert quantum == 90 * MS
        assert len(vcpus) == 8 and len(pcpus) == 2

    def test_agnostic_vcpus_pad_clusters(self):
        machine = Machine(seed=0)
        typed = make_population(
            machine,
            [(VCpuType.CONSPIN, 5, 0.0), (VCpuType.LOLCF, 3, 0.0)],
        )
        socket = machine.topology.sockets[0]
        result = cluster_socket(typed, socket.pcpus[:2], PAPER_BEST_QUANTA)
        assert len(result.clusters) == 1
        quantum, vcpus, pcpus = result.clusters[0]
        assert quantum == 1 * MS  # ConSpin's quantum; LoLCF just fills
        assert len(vcpus) == 8

    def test_mixed_share_spills_to_default_cluster(self):
        """Fig. 3 socket 3: 9 LLCF + 7 ConSpin on 4 pCPUs -> one pCPU's
        share spans both clusters and lands in the 30 ms default."""
        machine = Machine(seed=0)
        typed = make_population(
            machine,
            [(VCpuType.LLCF, 9, 0.0), (VCpuType.CONSPIN, 7, 0.0)],
        )
        socket = machine.topology.sockets[0]
        result = cluster_socket(typed, socket.pcpus[:4], PAPER_BEST_QUANTA)
        by_quantum = {q: (len(v), len(p)) for q, v, p in result.clusters}
        assert by_quantum[90 * MS] == (8, 2)
        assert by_quantum[1 * MS] == (4, 1)
        assert by_quantum[30 * MS] == (4, 1)

    def test_empty_socket_gets_default_pool(self):
        machine = Machine(seed=0)
        socket = machine.topology.sockets[0]
        result = cluster_socket([], socket.pcpus[:4], PAPER_BEST_QUANTA)
        assert len(result.clusters) == 1
        quantum, vcpus, pcpus = result.clusters[0]
        assert not vcpus and len(pcpus) == 4

    def test_vcpus_without_pcpus_rejected(self):
        machine = Machine(seed=0)
        typed = make_population(machine, [(VCpuType.LLCF, 2, 0.0)])
        with pytest.raises(ValueError):
            cluster_socket(typed, [], PAPER_BEST_QUANTA)

    def test_only_agnostic_vcpus_form_default_cluster(self):
        machine = Machine(seed=0)
        typed = make_population(machine, [(VCpuType.LLCO, 4, 100.0)])
        socket = machine.topology.sockets[0]
        result = cluster_socket(typed, socket.pcpus[:1], PAPER_BEST_QUANTA)
        assert len(result.clusters) == 1
        assert result.clusters[0][0] == 30 * MS


class TestBuildPoolPlan:
    def test_fig3_layout(self):
        """The paper's Fig. 3 worked example, end to end."""
        machine = Machine(xeon_e5_4603(), seed=0)
        typed = make_population(
            machine,
            [
                (VCpuType.LLCO, 12, 100.0),
                (VCpuType.IOINT, 12, 80.0),  # IOInt+
                (VCpuType.LLCF, 17, 0.0),
                (VCpuType.CONSPIN, 7, 0.0),  # ConSpin-
            ],
        )
        usable = machine.topology.sockets[1:]
        plan = build_pool_plan(
            machine.topology,
            typed,
            PAPER_BEST_QUANTA,
            sockets=usable,
            filler_policy="paper",
        )
        plan.validate(machine.topology.pcpus, [tv.vcpu for tv in typed])
        # six clusters + the reserved dom0 socket
        populated = [e for e in plan.entries if e[3]]
        assert len(populated) == 6
        quanta = sorted(e[2] for e in populated)
        assert quanta == [1 * MS, 1 * MS, 1 * MS, 30 * MS, 90 * MS, 90 * MS]

    def test_fig3_layout_safe_policy(self):
        """Under the default "safe" filler policy the LLCO remainder on
        socket 1 forms a default-quantum cluster instead of joining the
        IOInt+ 1 ms cluster (the self-correction refinement)."""
        machine = Machine(xeon_e5_4603(), seed=1)
        typed = make_population(
            machine,
            [
                (VCpuType.LLCO, 12, 100.0),
                (VCpuType.IOINT, 12, 80.0),
                (VCpuType.LLCF, 17, 0.0),
                (VCpuType.CONSPIN, 7, 0.0),
            ],
        )
        usable = machine.topology.sockets[1:]
        plan = build_pool_plan(
            machine.topology, typed, PAPER_BEST_QUANTA, sockets=usable
        )
        plan.validate(machine.topology.pcpus, [tv.vcpu for tv in typed])
        socket1 = [
            e for e in plan.entries if e[0].startswith("s1.") and e[3]
        ]
        by_quantum = {e[2]: len(e[3]) for e in socket1}
        assert by_quantum == {1 * MS: 4, 30 * MS: 12}

    def test_plan_covers_everything(self):
        machine = Machine(seed=0)
        typed = make_population(
            machine, [(VCpuType.LLCF, 3, 0.0), (VCpuType.IOINT, 5, 0.0)]
        )
        plan = build_pool_plan(machine.topology, typed, PAPER_BEST_QUANTA)
        plan.validate(machine.topology.pcpus, [tv.vcpu for tv in typed])


@settings(max_examples=50, deadline=None)
@given(
    counts=st.lists(
        st.tuples(
            st.sampled_from(list(VCpuType)),
            st.integers(min_value=1, max_value=8),
            st.sampled_from([0.0, 80.0]),
        ),
        min_size=1,
        max_size=5,
    )
)
def test_clustering_invariants_hold_for_any_population(counts):
    """For any mix of typed vCPUs: the plan places every vCPU exactly
    once, covers every pCPU exactly once, and no pool exceeds the
    fairness ratio ceil(total_vcpus / total_pcpus) per pCPU."""
    machine = Machine(xeon_e5_4603(), seed=0)
    typed = make_population(machine, counts)
    total = len(typed)
    usable = machine.topology.sockets[1:]
    usable_pcpus = sum(len(s.pcpus) for s in usable)
    if total > usable_pcpus * 16:
        return  # absurd overcommit, not a target configuration
    plan = build_pool_plan(
        machine.topology, typed, PAPER_BEST_QUANTA, sockets=usable
    )
    plan.validate(machine.topology.pcpus, [tv.vcpu for tv in typed])
    k = -(-total // usable_pcpus)
    for name, pcpus, quantum, vcpus in plan.entries:
        if pcpus and vcpus:
            assert len(vcpus) <= k * len(pcpus) + 1e-9
