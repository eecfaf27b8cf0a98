"""Edge cases for the machine lifecycle layer.

The nasty corners of churn: a VM dying with IO in flight, a pCPU
failing while a vCPU is mid-quantum on it, a pool losing its last VM,
and the recovery paths back.  Each scenario checks the structural
invariants from the stress suite afterwards, so a leak anywhere in the
teardown path fails loudly.  Last, a vCPU whose type changes over its
lifetime (§3.3): phase changes must re-type it in vTRS and re-cluster
it in AQL_Sched.
"""

import pytest

from repro.core.aql import AqlScheduler
from repro.core.types import VCpuType
from repro.core.vtrs import VTRS
from repro.dynamics import (
    MODES,
    ChurnEngine,
    ChurnTimeline,
    PhaseChange,
    SwitchableWorkload,
)
from repro.hypervisor.machine import Machine
from repro.hypervisor.vm import VCpuState
from repro.sim.units import MS, SEC

from tests.test_stress_invariants import check_machine_invariants


def _machine(pcpus: int = 2, seed: int = 0) -> Machine:
    from dataclasses import replace

    from repro.hardware.specs import i7_3770

    spec = replace(i7_3770(), cores_per_socket=pcpus, sockets=1)
    return Machine(spec, seed=seed)


def _add_switchable(machine: Machine, name: str, mode: str, pool=None):
    vm = machine.new_vm(name, 1, pool=pool)
    workload = SwitchableWorkload(name, mode=mode, clients=4)
    workload.install(machine, vm)
    return vm, workload


class TestVmShutdown:
    def test_shutdown_mid_io_burst_drops_pending(self):
        """Killing an IO VM with a full event queue must drop (and
        count) the backlog, not deliver to the corpse."""
        machine = _machine()
        vm, workload = _add_switchable(machine, "srv", "io")
        _add_switchable(machine, "bg", "llcf")
        machine.run(200 * MS)
        assert workload.completed > 0
        port = workload.port
        # a burst that the server cannot have served yet
        for _ in range(50):
            port.post((workload._generation, machine.sim.now))
        assert port.backlog > 0
        backlog = port.backlog
        machine.shutdown_vm(vm)
        assert port.closed
        assert port.backlog == 0
        # the drained backlog counts as discarded (accepted, never
        # served) — not as dropped (refused at the door)
        assert port.discarded >= backlog
        # in-flight completions arriving after death are refused
        dropped_before = port.dropped
        port.post((0, machine.sim.now))
        assert port.dropped == dropped_before + 1
        assert port.posted == port.consumed + port.backlog + port.discarded
        assert not vm.alive
        assert vm in machine.retired_vms and vm not in machine.vms
        # stale client timers fire harmlessly; the world keeps turning
        machine.run(300 * MS)
        machine.sync()
        check_machine_invariants(machine)

    def test_shutdown_running_vm_backfills_pcpu(self):
        machine = _machine()
        victims = [_add_switchable(machine, f"v{i}", "llcf") for i in range(3)]
        machine.run(100 * MS)
        running = [
            ctx.current for ctx in machine.contexts.values() if ctx.current
        ]
        assert running, "someone should be on a pCPU"
        target = running[0].vm
        workload = next(w for vm, w in victims if vm is target)
        machine.shutdown_vm(target)
        for vcpu in target.vcpus:
            assert vcpu.state == VCpuState.BLOCKED
            assert vcpu.pool is None
        machine.run(100 * MS)
        machine.sync()
        # the survivors keep making progress on the freed core
        for vm, w in victims:
            if vm is not target:
                assert w.units_done > 0
        check_machine_invariants(machine)

    def test_shutdown_twice_rejected(self):
        machine = _machine()
        vm, _ = _add_switchable(machine, "once", "llcf")
        machine.run(50 * MS)
        machine.shutdown_vm(vm)
        with pytest.raises(ValueError):
            machine.shutdown_vm(vm)

    def test_last_vm_shutdown_collapses_custom_pool(self):
        """A non-default pool whose last vCPU leaves gives its pCPUs
        back to the default pool."""
        machine = _machine(pcpus=2)
        vm, _ = _add_switchable(machine, "solo", "llcf")
        keeper, _ = _add_switchable(machine, "keeper", "llcf")
        pcpu = machine.topology.pcpus[1]
        pool = machine.create_pool("island", [pcpu], 5 * MS)
        machine.default_pool.remove_vcpu(vm.vcpus[0])
        pool.add_vcpu(vm.vcpus[0])
        machine.run(100 * MS)
        machine.shutdown_vm(vm)
        assert pool not in machine.pools
        assert pcpu in machine.default_pool.pcpus
        assert machine.contexts[pcpu].pool is machine.default_pool
        machine.run(100 * MS)
        machine.sync()
        check_machine_invariants(machine)


class TestPcpuFaults:
    def test_offline_mid_quantum_displaces_current(self):
        machine = _machine(pcpus=2)
        workloads = [
            _add_switchable(machine, f"w{i}", "llcf")[1] for i in range(4)
        ]
        machine.run(95 * MS)  # mid-quantum, mid-tick
        pcpu = machine.topology.pcpus[1]
        ctx = machine.contexts[pcpu]
        assert ctx.current is not None
        displaced = ctx.current
        machine.offline_pcpu(pcpu)
        assert pcpu in machine.offline_pcpus
        assert ctx.offline and ctx.current is None and len(ctx.runq) == 0
        assert displaced.state in (VCpuState.RUNNABLE, VCpuState.RUNNING)
        before = [w.units_done for w in workloads]
        machine.run(300 * MS)
        machine.sync()
        check_machine_invariants(machine)
        # all four VMs keep running on the surviving core
        for w, b in zip(workloads, before):
            assert w.units_done > b, w.name

    def test_offline_then_online_restores_capacity(self):
        machine = _machine(pcpus=2)
        workloads = [
            _add_switchable(machine, f"w{i}", "llcf")[1] for i in range(4)
        ]
        machine.run(100 * MS)
        pcpu = machine.topology.pcpus[0]
        machine.offline_pcpu(pcpu)
        machine.run(200 * MS)
        machine.online_pcpu(pcpu)
        assert pcpu not in machine.offline_pcpus
        assert not machine.contexts[pcpu].offline
        machine.run(200 * MS)
        machine.sync()
        check_machine_invariants(machine)
        # the revived core actually runs someone again
        assert machine.contexts[pcpu].pcpu in machine.contexts[pcpu].pool.pcpus
        busy = sum(
            1 for ctx in machine.contexts.values() if ctx.current is not None
        )
        assert busy == 2, "both cores should be busy under 2x overload"
        assert all(w.units_done > 0 for w in workloads)

    def test_cannot_offline_last_pcpu(self):
        machine = _machine(pcpus=2)
        _add_switchable(machine, "w", "llcf")
        machine.run(50 * MS)
        p0, p1 = machine.topology.pcpus
        machine.offline_pcpu(p0)
        with pytest.raises(ValueError):
            machine.offline_pcpu(p1)
        with pytest.raises(ValueError):
            machine.offline_pcpu(p0)  # already offline

    def test_offline_pool_with_vcpus_reabsorbs(self):
        """A single-pCPU pool losing its core hands its vCPUs to the
        least-loaded surviving pool and counts the migrations."""
        machine = _machine(pcpus=2)
        vm, _ = _add_switchable(machine, "islander", "llcf")
        _add_switchable(machine, "mainlander", "llcf")
        pcpu = machine.topology.pcpus[1]
        pool = machine.create_pool("island", [pcpu], 5 * MS)
        machine.default_pool.remove_vcpu(vm.vcpus[0])
        pool.add_vcpu(vm.vcpus[0])
        machine.run(100 * MS)
        migrations = machine.migrations_total
        machine.offline_pcpu(pcpu)
        assert pool not in machine.pools
        assert vm.vcpus[0].pool is machine.default_pool
        assert machine.migrations_total == migrations + 1
        machine.run(100 * MS)
        machine.sync()
        check_machine_invariants(machine)


class TestBootAfterStart:
    def test_boot_vm_mid_run_makes_progress(self):
        machine = _machine(pcpus=2)
        _add_switchable(machine, "old", "llcf")
        machine.run(100 * MS)
        vm, workload = _add_switchable(machine, "young", "io")
        machine.boot_vm(vm)
        machine.run(300 * MS)
        machine.sync()
        assert workload.completed > 0, "booted IO VM never served a request"
        check_machine_invariants(machine)


def _cycle_modes(
    machine: Machine, workload: SwitchableWorkload, modes: tuple,
    period_ns: int, until_ns: int,
) -> None:
    """Phase-change ``workload`` to the next of ``modes`` every period."""
    timeline = ChurnTimeline(tuple(
        PhaseChange(
            at_ns, name=workload.name,
            mode=modes[at_ns // period_ns % len(modes)],
        )
        for at_ns in range(period_ns, until_ns, period_ns)
    ))
    ChurnEngine(machine, timeline, {workload.name: workload}).arm()


class TestPhaseChanges:
    def test_every_mode_accepted(self):
        for mode in MODES:
            PhaseChange(0, mode=mode)
            SwitchableWorkload("w", mode=mode).set_mode(mode)

    def test_unknown_mode_rejected_by_phase_change(self):
        with pytest.raises(ValueError, match="quantum-leap"):
            PhaseChange(0, mode="quantum-leap")

    def test_unknown_mode_rejected_by_workload(self):
        with pytest.raises(ValueError, match="quantum-leap"):
            SwitchableWorkload("w", mode="quantum-leap")

    def test_unknown_mode_rejected_by_set_mode(self):
        workload = SwitchableWorkload("w", mode="llcf")
        with pytest.raises(ValueError, match="quantum-leap"):
            workload.set_mode("quantum-leap")
        assert workload.mode == "llcf" and not workload.mode_changes

    def _pooled_machine(self, pcpus: int = 1):
        machine = Machine(seed=3)
        pool = machine.create_pool(
            "p", machine.topology.pcpus[:pcpus], 30 * MS
        )
        return machine, pool

    def test_units_complete_across_phase_changes(self):
        machine, pool = self._pooled_machine()
        _, workload = _add_switchable(machine, "p", "lolcf", pool=pool)
        _cycle_modes(machine, workload, ("lolcf", "io"), 50 * MS, 800 * MS)
        machine.run(200 * MS)
        workload.begin_measurement()
        requests = workload.completed
        machine.run(600 * MS)
        result = workload.result()
        assert result.metric == "ns_per_unit"
        units = dict(result.details)["units"]
        served = workload.completed - requests
        # two full lolcf -> io cycles inside the window, and each mode
        # got work done: requests served and compute chunks finished
        in_window = [t for t, _ in workload.mode_changes if t > 200 * MS]
        assert len(in_window) >= 4
        assert served > 0
        assert units - served > 0

    def test_vtrs_follows_the_phases(self):
        machine, pool = self._pooled_machine()
        vm, workload = _add_switchable(machine, "p", "llco", pool=pool)
        _cycle_modes(machine, workload, ("llco", "io"), 600 * MS, 2400 * MS)
        vtrs = VTRS(machine).attach()
        observed = set()
        for _ in range(24):
            machine.run(100 * MS)
            verdict = vtrs.type_of(vm.vcpus[0])
            if verdict is not None:
                observed.add(verdict)
        assert VCpuType.LLCO in observed
        assert VCpuType.IOINT in observed

    def test_aql_recluster_on_phase_change(self):
        """A phase-shifting vCPU forces periodic re-clustering."""
        machine, pool = self._pooled_machine(pcpus=2)
        # a steady LLCF companion so there are two distinct clusters
        _add_switchable(machine, "steady", "llcf", pool=pool)
        _, workload = _add_switchable(machine, "phased", "io", pool=pool)
        _cycle_modes(machine, workload, ("io", "llcf"), 500 * MS, 4 * SEC)
        manager = AqlScheduler(machine, pcpus=pool.pcpus).attach()
        machine.run(4 * SEC)
        # the layout must have changed more than once: IO phases pull
        # the vCPU into a 1 ms pool, compute phases out of it
        assert manager.reconfigurations >= 3
