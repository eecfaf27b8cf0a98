"""Edge-case tests for the machine: migration, reconfiguration, caps."""

from repro.core.aql import AqlScheduler
from repro.guest.phases import Acquire, Compute, Release
from repro.guest.spinlock import SpinLock
from repro.guest.thread import GuestThread
from repro.hardware.specs import xeon_e5_4603
from repro.hypervisor.machine import Machine
from repro.hypervisor.pools import PoolPlan
from repro.sim.units import MS, SEC


def hog_body(thread):
    while True:
        yield Compute(5_000_000)


class TestSocketMigration:
    def test_thread_cache_evicted_on_socket_change(self):
        """Moving a vCPU to another socket leaves no stale warm state:
        the thread's footprint is evicted from the old LLC."""
        machine = Machine(xeon_e5_4603(), seed=0)
        from repro.workloads.profiles import llcf_profile

        vm = machine.new_vm("vm", 1)
        thread = GuestThread("t", hog_body, profile=llcf_profile(machine.spec))
        vm.guest.add_thread(thread)
        socket0, socket1 = machine.topology.sockets[:2]
        plan = PoolPlan()
        plan.add("a", socket0.pcpus, 30 * MS, [vm.vcpus[0]])
        plan.add(
            "rest",
            [p for s in machine.topology.sockets[1:] for p in s.pcpus],
            30 * MS,
            [],
        )
        machine.apply_pool_plan(plan)
        machine.run(200 * MS)
        machine.sync()
        assert socket0.llc.occupancy_of(thread) > 0
        # migrate to socket 1
        plan2 = PoolPlan()
        plan2.add("b", socket1.pcpus, 30 * MS, [vm.vcpus[0]])
        plan2.add(
            "rest2",
            [p for s in machine.topology.sockets if s is not socket1
             for p in s.pcpus],
            30 * MS,
            [],
        )
        machine.apply_pool_plan(plan2)
        machine.run(200 * MS)
        machine.sync()
        assert socket0.llc.occupancy_of(thread) == 0.0
        assert socket1.llc.occupancy_of(thread) > 0


class TestReconfigureUnderLoad:
    def test_plan_applied_while_spinning(self):
        """A pool plan landing mid-spin must not lose the lock state."""
        machine = Machine(seed=0, default_quantum_ns=10 * MS)
        pool = machine.create_pool("p", machine.topology.pcpus[:1], 10 * MS)
        vm = machine.new_vm("vm", 2, weight=512)
        for vcpu in vm.vcpus:
            machine.default_pool.remove_vcpu(vcpu)
            pool.add_vcpu(vcpu)
        lock = SpinLock("l")
        jobs = []

        def worker(thread):
            while True:
                yield Acquire(lock)
                yield Compute(3_000_000)
                yield Release(lock)
                jobs.append(thread.name)

        vm.guest.add_thread(GuestThread("a", worker), vm.vcpus[0])
        vm.guest.add_thread(GuestThread("b", worker), vm.vcpus[1])
        machine.run(55 * MS)  # mid-flight, someone is spinning/holding
        plan = PoolPlan()
        plan.add("q", machine.topology.pcpus, 1 * MS, list(vm.vcpus))
        machine.apply_pool_plan(plan)
        before = len(jobs)
        machine.run(500 * MS)
        assert len(jobs) > before  # progress continues after the move

    def test_repeated_reconfiguration_is_stable(self):
        machine = Machine(seed=0)
        vms = [machine.new_vm(f"vm{i}", 1) for i in range(4)]
        threads = []
        for vm in vms:
            t = GuestThread(vm.name, hog_body)
            vm.guest.add_thread(t)
            threads.append(t)
        machine.run(50 * MS)
        pcpus = machine.topology.pcpus
        for round_index in range(10):
            plan = PoolPlan()
            split = (round_index % 7) + 1
            plan.add(
                "a", pcpus[:split], 1 * MS, [vm.vcpus[0] for vm in vms[:2]]
            )
            plan.add(
                "b", pcpus[split:], 90 * MS, [vm.vcpus[0] for vm in vms[2:]]
            )
            machine.apply_pool_plan(plan)
            machine.run(30 * MS)
        machine.sync()
        for t in threads:
            assert t.instructions_retired > 0

    def test_blocked_vcpus_survive_reconfiguration(self):
        machine = Machine(seed=0)
        vm = machine.new_vm("idle", 1)  # no threads: stays blocked
        runner = machine.new_vm("runner", 1)
        runner.guest.add_thread(GuestThread("r", hog_body))
        machine.run(50 * MS)
        plan = PoolPlan()
        plan.add("all", machine.topology.pcpus, 5 * MS,
                 [vm.vcpus[0], runner.vcpus[0]])
        machine.apply_pool_plan(plan)
        machine.run(50 * MS)
        from repro.hypervisor.vm import VCpuState

        assert vm.vcpus[0].state == VCpuState.BLOCKED
        assert runner.vcpus[0].run_ns_total > 0


class TestAqlConfinement:
    def test_manager_respects_pcpu_restriction(self):
        machine = Machine(seed=0)
        pool = machine.create_pool("p", machine.topology.pcpus[:2], 30 * MS)
        for i in range(4):
            vm = machine.new_vm(f"vm{i}", 1)
            machine.default_pool.remove_vcpu(vm.vcpus[0])
            pool.add_vcpu(vm.vcpus[0])
            vm.guest.add_thread(GuestThread(f"t{i}", hog_body))
        manager = AqlScheduler(machine, pcpus=pool.pcpus[:2]).attach()
        machine.run(1 * SEC)
        allowed = set(machine.topology.pcpus[:2])
        for p in machine.pools:
            if p.vcpus:
                assert set(p.pcpus) <= allowed

    def test_restricted_plan_reserves_other_pcpus(self):
        from repro.core.calibration import PAPER_BEST_QUANTA
        from repro.core.clustering import TypedVCpu, build_pool_plan
        from repro.core.types import VCpuType

        machine = Machine(seed=0)
        vm = machine.new_vm("vm", 2)
        typed = [TypedVCpu(v, VCpuType.LLCF) for v in vm.vcpus]
        plan = build_pool_plan(
            machine.topology,
            typed,
            PAPER_BEST_QUANTA,
            pcpus=machine.topology.pcpus[:2],
        )
        plan.validate(machine.topology.pcpus, vm.vcpus)
        reserved = [e for e in plan.entries if e[0] == "reserved"]
        assert len(reserved) == 1
        assert len(reserved[0][1]) == 6  # the other six cores
