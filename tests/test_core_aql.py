"""Tests for the AQL_Sched manager and the calibration driver."""

import pytest

from repro.core.aql import AqlScheduler, _plan_signature
from repro.core.calibration import (
    PAPER_BEST_QUANTA,
    run_calibration,
)
from repro.core.types import VCpuType
from repro.hypervisor.machine import Machine
from repro.sim.units import MS, SEC
from repro.workloads.cpu import CpuBurnWorkload
from repro.workloads.profiles import llcf_profile, llco_profile


def build_mixed_machine(seed=0):
    """6 LLCF + 2 LLCO single-vCPU VMs on a 2-pCPU pool.

    The trasher ratio mirrors scenario S5; a population dominated by
    concurrent streaming would legitimately re-type LLCF as LLCO (the
    paper notes the classification is environment-dependent).
    """
    machine = Machine(seed=seed)
    pool = machine.create_pool("p", machine.topology.pcpus[:2], 30 * MS)
    vms = []
    for i in range(6):
        vm = machine.new_vm(f"llcf{i}", 1)
        machine.default_pool.remove_vcpu(vm.vcpus[0])
        pool.add_vcpu(vm.vcpus[0])
        CpuBurnWorkload(f"f{i}", llcf_profile(machine.spec)).install(machine, vm)
        vms.append(vm)
    for i in range(2):
        vm = machine.new_vm(f"llco{i}", 1)
        machine.default_pool.remove_vcpu(vm.vcpus[0])
        pool.add_vcpu(vm.vcpus[0])
        CpuBurnWorkload(f"o{i}", llco_profile(machine.spec)).install(machine, vm)
        vms.append(vm)
    return machine, vms, pool


class TestManager:
    def test_decisions_happen_every_window(self):
        machine, _, pool = build_mixed_machine()
        manager = AqlScheduler(machine, pcpus=pool.pcpus).attach()
        machine.run(1 * SEC)
        # window = 4 x 30 ms = 120 ms -> ~8 decisions in 1 s
        assert manager.decisions == 8

    def test_plan_applied_and_types_recorded(self):
        machine, _, pool = build_mixed_machine()
        manager = AqlScheduler(machine, pcpus=pool.pcpus).attach()
        machine.run(1 * SEC)
        assert manager.reconfigurations >= 1
        types = set(manager.last_types.values())
        assert VCpuType.LLCF in types
        assert VCpuType.LLCO in types
        quanta = {pool.quantum_ns for pool in machine.pools if pool.vcpus}
        assert 90 * MS in quanta  # LLCF cluster got its quantum

    def test_unchanged_layout_not_reapplied(self):
        machine, _, pool = build_mixed_machine()
        manager = AqlScheduler(machine, pcpus=pool.pcpus).attach()
        machine.run(2 * SEC)
        # steady workload: far fewer reconfigurations than decisions
        assert manager.reconfigurations < manager.decisions

    def test_oracle_mode_bypasses_vtrs(self):
        machine, vms, pool = build_mixed_machine()
        oracle = {
            vm.vcpus[0].vcpu_id: (
                VCpuType.LLCF if vm.name.startswith("llcf") else VCpuType.LLCO
            )
            for vm in vms
        }
        manager = AqlScheduler(machine, pcpus=pool.pcpus, type_oracle=oracle).attach()
        machine.run(500 * MS)  # past the initial cold-start delay
        assert manager.last_types[vms[0].vcpus[0].vcpu_id] == VCpuType.LLCF

    def test_uniform_quantum_override(self):
        machine, _, pool = build_mixed_machine()
        manager = AqlScheduler(machine, pcpus=pool.pcpus, uniform_quantum_ns=10 * MS).attach()
        machine.run(500 * MS)
        for pool in machine.pools:
            assert pool.quantum_ns == 10 * MS

    def test_attach_idempotent(self):
        machine, _, pool = build_mixed_machine()
        manager = AqlScheduler(machine, pcpus=pool.pcpus)
        manager.attach()
        manager.attach()
        machine.run(130 * MS)
        assert manager.decisions == 1

    def test_untyped_vcpus_treated_as_filler(self):
        machine = Machine(seed=0)
        machine.new_vm("idle", 1)  # never runs anything
        manager = AqlScheduler(machine)
        types = manager.current_types()
        assert list(types.values()) == [VCpuType.LOLCF]


class TestPlanSignature:
    def test_signature_ignores_entry_order(self):
        machine, _, pool = build_mixed_machine()
        manager = AqlScheduler(machine, pcpus=pool.pcpus).attach()
        machine.run(200 * MS)
        from repro.core.clustering import TypedVCpu, build_pool_plan

        typed = [
            TypedVCpu(v, VCpuType.LLCF) for v in machine.all_vcpus
        ]
        plan_a = build_pool_plan(machine.topology, typed, PAPER_BEST_QUANTA)
        plan_b = build_pool_plan(machine.topology, typed, PAPER_BEST_QUANTA)
        plan_b.entries = list(reversed(plan_b.entries))
        assert _plan_signature(plan_a) == _plan_signature(plan_b)


class TestCalibrationDriver:
    def test_small_calibration_run(self):
        """A fast 2-kind sweep exercises the whole driver path."""
        result = run_calibration(
            quanta_ms=(1, 30, 90),
            consolidations=(4,),
            kinds=("llcf", "lolcf"),
            warmup_ns=300 * MS,
            measure_ns=600 * MS,
            seed=1,
        )
        series = result.normalized_series("llcf", 4)
        assert series[30] == pytest.approx(1.0)
        assert series[1] > series[90]  # LLCF prefers long quanta
        assert result.best_quanta[VCpuType.LLCF] == 90 * MS
        assert result.best_quanta[VCpuType.LOLCF] is None

    def test_reference_quantum_required(self):
        with pytest.raises(ValueError):
            run_calibration(quanta_ms=(1, 10))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            run_calibration(
                kinds=("quantum-foam",),
                warmup_ns=10 * MS,
                measure_ns=10 * MS,
            )

    def test_paper_best_quanta_constants(self):
        assert PAPER_BEST_QUANTA[VCpuType.IOINT] == 1 * MS
        assert PAPER_BEST_QUANTA[VCpuType.CONSPIN] == 1 * MS
        assert PAPER_BEST_QUANTA[VCpuType.LLCF] == 90 * MS
        assert PAPER_BEST_QUANTA[VCpuType.LOLCF] is None
        assert PAPER_BEST_QUANTA[VCpuType.LLCO] is None
