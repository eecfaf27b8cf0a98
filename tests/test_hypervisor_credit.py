"""Tests for the Credit scheduler policy pieces (run queue, credits)."""

import pytest

from repro.guest.phases import Compute
from repro.guest.thread import GuestThread
from repro.hypervisor.credit import CreditParams, RunQueue
from repro.hypervisor.machine import Machine
from repro.hypervisor.vm import Priority
from repro.sim.units import MS, SEC


def hog_body(thread):
    while True:
        yield Compute(5_000_000)


def add_hog(machine, vm):
    vm.guest.add_thread(GuestThread(f"{vm.name}.hog", hog_body))


class TestRunQueue:
    def make_vcpu(self, machine, priority):
        vm = machine.new_vm(f"vm{priority}", 1)
        vcpu = vm.vcpus[0]
        vcpu.priority = priority
        return vcpu

    def test_priority_order(self):
        machine = Machine(seed=0)
        runq = RunQueue()
        over = self.make_vcpu(machine, Priority.OVER)
        boost = self.make_vcpu(machine, Priority.BOOST)
        under = self.make_vcpu(machine, Priority.UNDER)
        for vcpu in (over, under, boost):
            runq.push(vcpu)
        assert runq.pop_best() is boost
        assert runq.pop_best() is under
        assert runq.pop_best() is over
        assert runq.pop_best() is None

    def test_fifo_within_priority(self):
        machine = Machine(seed=0)
        runq = RunQueue()
        a = self.make_vcpu(machine, Priority.UNDER)
        b = self.make_vcpu(machine, Priority.UNDER)
        runq.push(a)
        runq.push(b)
        assert runq.pop_best() is a

    def test_push_front(self):
        machine = Machine(seed=0)
        runq = RunQueue()
        a = self.make_vcpu(machine, Priority.UNDER)
        b = self.make_vcpu(machine, Priority.UNDER)
        runq.push(a)
        runq.push(b, front=True)
        assert runq.pop_best() is b

    def test_remove(self):
        machine = Machine(seed=0)
        runq = RunQueue()
        a = self.make_vcpu(machine, Priority.UNDER)
        runq.push(a)
        assert runq.remove(a) is True
        assert runq.remove(a) is False
        assert len(runq) == 0

    def test_drain(self):
        machine = Machine(seed=0)
        runq = RunQueue()
        vcpus = [self.make_vcpu(machine, Priority.OVER) for _ in range(3)]
        for vcpu in vcpus:
            runq.push(vcpu)
        assert set(runq.drain()) == set(vcpus)
        assert len(runq) == 0

    def test_best_priority(self):
        machine = Machine(seed=0)
        runq = RunQueue()
        assert runq.best_priority() is None
        runq.push(self.make_vcpu(machine, Priority.OVER))
        assert runq.best_priority() == Priority.OVER

    def test_refresh_priorities_rebuckets(self):
        machine = Machine(seed=0)
        runq = RunQueue()
        a = self.make_vcpu(machine, Priority.OVER)
        a.credit = 100  # now deserves UNDER
        runq.push(a)
        runq.refresh_priorities(
            lambda v: Priority.UNDER if v.credit > 0 else Priority.OVER
        )
        assert a.priority == Priority.UNDER
        assert runq.best_priority() == Priority.UNDER


class TestCreditAccounting:
    def test_burn_rate(self):
        params = CreditParams()
        # 100 credits per 10 ms: a full 30 ms accounting period of run
        # time burns 300
        assert params.burn_rate_per_ns * 30 * MS == pytest.approx(300.0)

    def test_equal_weights_share_equally(self):
        machine = Machine(seed=0)
        pool = machine.create_pool("p", machine.topology.pcpus[:1], 30 * MS)
        vms = []
        for i in range(4):
            vm = machine.new_vm(f"vm{i}", 1)
            machine.default_pool.remove_vcpu(vm.vcpus[0])
            pool.add_vcpu(vm.vcpus[0])
            add_hog(machine, vm)
            vms.append(vm)
        machine.run(2 * SEC)
        shares = [vm.vcpus[0].run_ns_total for vm in vms]
        for share in shares:
            assert share == pytest.approx(0.5 * SEC, rel=0.1)

    def test_weight_proportional_sharing(self):
        machine = Machine(seed=0)
        pool = machine.create_pool("p", machine.topology.pcpus[:1], 30 * MS)
        heavy = machine.new_vm("heavy", 1, weight=512)
        light = machine.new_vm("light", 1, weight=256)
        for vm in (heavy, light):
            machine.default_pool.remove_vcpu(vm.vcpus[0])
            pool.add_vcpu(vm.vcpus[0])
            add_hog(machine, vm)
        machine.run(3 * SEC)
        ratio = heavy.vcpus[0].run_ns_total / light.vcpus[0].run_ns_total
        assert ratio == pytest.approx(2.0, rel=0.15)

    def test_cap_limits_cpu(self):
        machine = Machine(seed=0)
        pool = machine.create_pool("p", machine.topology.pcpus[:1], 30 * MS)
        capped = machine.new_vm("capped", 1, cap=25)
        free = machine.new_vm("free", 1)
        for vm in (capped, free):
            machine.default_pool.remove_vcpu(vm.vcpus[0])
            pool.add_vcpu(vm.vcpus[0])
            add_hog(machine, vm)
        machine.run(3 * SEC)
        # cap enforcement is accounting-period granular (like Xen), so
        # a 25% cap lands in [0.15, 0.40] instead of the uncapped 0.50
        capped_share = capped.vcpus[0].run_ns_total / (3 * SEC)
        assert 0.15 < capped_share < 0.40

    def test_credit_clipped(self):
        machine = Machine(seed=0)
        vm = machine.new_vm("idle", 1)  # never runs: would hoard credit
        add_hog(machine, vm)  # keep it runnable but alone on 8 cores
        machine.run(2 * SEC)
        assert vm.vcpus[0].credit <= machine.params.credit_clip

    def test_vm_validation(self):
        machine = Machine(seed=0)
        with pytest.raises(ValueError):
            machine.new_vm("bad", 0)
        with pytest.raises(ValueError):
            machine.new_vm("bad", 1, weight=0)
        with pytest.raises(ValueError):
            machine.new_vm("bad", 1, cap=0)


class TestWorkConserving:
    def test_idle_pcpu_steals_work(self):
        """Two pCPUs, three hog vCPUs: both pCPUs stay ~100% busy."""
        machine = Machine(seed=0)
        pool = machine.create_pool("p", machine.topology.pcpus[:2], 30 * MS)
        vms = []
        for i in range(3):
            vm = machine.new_vm(f"vm{i}", 1)
            machine.default_pool.remove_vcpu(vm.vcpus[0])
            pool.add_vcpu(vm.vcpus[0])
            add_hog(machine, vm)
            vms.append(vm)
        machine.run(2 * SEC)
        total_run = sum(vm.vcpus[0].run_ns_total for vm in vms)
        assert total_run == pytest.approx(2 * 2 * SEC, rel=0.05)

    def test_three_hogs_on_two_pcpus_fair(self):
        machine = Machine(seed=0)
        pool = machine.create_pool("p", machine.topology.pcpus[:2], 30 * MS)
        vms = []
        for i in range(3):
            vm = machine.new_vm(f"vm{i}", 1)
            machine.default_pool.remove_vcpu(vm.vcpus[0])
            pool.add_vcpu(vm.vcpus[0])
            add_hog(machine, vm)
            vms.append(vm)
        machine.run(3 * SEC)
        shares = [vm.vcpus[0].run_ns_total / (3 * SEC) for vm in vms]
        for share in shares:
            assert share == pytest.approx(2 / 3, rel=0.15)
