"""Tests for blocking semaphores and the blocking-sync workload."""

import pytest

from repro.guest.phases import Compute, SemAcquire, SemRelease
from repro.guest.semaphore import Semaphore
from repro.guest.thread import GuestThread, ThreadState
from repro.hypervisor.machine import Machine
from repro.sim.units import MS, SEC
from repro.workloads.blocking import BlockingSyncWorkload


def make_thread(name="t"):
    def body(thread):
        yield Compute(1)

    return GuestThread(name, body)


class TestSemaphoreUnit:
    def test_uncontended_acquire(self):
        sem = Semaphore("s", initial=1)
        t = make_thread()
        assert sem.try_acquire(t, now=0)
        assert sem.count == 0
        assert sem.stats.acquisitions == 1

    def test_contended_acquire_queues(self):
        sem = Semaphore("s", initial=1)
        a, b = make_thread("a"), make_thread("b")
        sem.try_acquire(a, now=0)
        assert not sem.try_acquire(b, now=1)
        assert sem.waiting_count == 1
        assert sem.stats.contended_acquisitions == 1

    def test_release_hands_unit_to_waiter(self):
        sem = Semaphore("s", initial=1)
        a, b = make_thread("a"), make_thread("b")
        sem.try_acquire(a, now=0)
        sem.try_acquire(b, now=1)
        waiter = sem.release(a, now=10)
        assert waiter is b
        assert sem.count == 0  # unit handed over, not returned
        sem.grant_to(b, now=25)
        assert sem.stats.total_wait_ns == 24
        assert sem.release(b, now=30) is None
        assert sem.count == 1

    def test_release_without_holding_raises(self):
        sem = Semaphore("s")
        with pytest.raises(RuntimeError):
            sem.release(make_thread(), now=0)

    def test_counting_semaphore(self):
        sem = Semaphore("s", initial=2)
        a, b, c = (make_thread(n) for n in "abc")
        assert sem.try_acquire(a, now=0)
        assert sem.try_acquire(b, now=0)
        assert not sem.try_acquire(c, now=0)

    def test_negative_initial_rejected(self):
        with pytest.raises(ValueError):
            Semaphore("s", initial=-1)

    def test_fifo_order(self):
        sem = Semaphore("s", initial=1)
        a, b, c = (make_thread(n) for n in "abc")
        sem.try_acquire(a, now=0)
        sem.try_acquire(b, now=1)
        sem.try_acquire(c, now=2)
        assert sem.release(a, now=3) is b


class TestSemaphoreExecution:
    def test_contended_waiter_blocks_instead_of_spinning(self):
        """Unlike a spin lock, a semaphore waiter's vCPU blocks."""
        machine = Machine(seed=0)
        vm = machine.new_vm("vm", 2)
        sem = Semaphore("s", initial=1)
        order = []

        def holder(thread):
            yield SemAcquire(sem)
            yield Compute(30_000_000)  # ~10 ms critical section
            yield SemRelease(sem)
            order.append(("released", machine.sim.now))

        def waiter(thread):
            yield Compute(3_000_000)  # arrive second
            yield SemAcquire(sem)
            order.append(("acquired", machine.sim.now))
            yield SemRelease(sem)

        h = GuestThread("h", holder)
        w = GuestThread("w", waiter)
        vm.guest.add_thread(h, vm.vcpus[0])
        vm.guest.add_thread(w, vm.vcpus[1])
        machine.run(5 * MS)
        assert w.state == ThreadState.BLOCKED  # not SPINNING
        assert w.spin_ns == 0.0
        machine.run(100 * MS)
        timeline = dict(order)
        assert timeline["acquired"] >= timeline["released"]
        assert w.spin_ns == 0.0  # never burned a cycle waiting

    def test_no_ple_exits_from_semaphores(self):
        machine = Machine(seed=0)
        pool = machine.create_pool("p", machine.topology.pcpus[:1], 10 * MS)
        vm = machine.new_vm("vm", 2, weight=512)
        for vcpu in vm.vcpus:
            machine.default_pool.remove_vcpu(vcpu)
            pool.add_vcpu(vcpu)
        workload = BlockingSyncWorkload("b", threads=2)
        workload.install(machine, vm)
        machine.run(1 * SEC)
        assert sum(v.ple.exits for v in vm.vcpus) == 0


class TestBlockingSyncWorkload:
    def test_jobs_complete_and_metric(self):
        machine = Machine(seed=0)
        pool = machine.create_pool("p", machine.topology.pcpus[:2], 30 * MS)
        vm = machine.new_vm("vm", 4, weight=1024)
        for vcpu in vm.vcpus:
            machine.default_pool.remove_vcpu(vcpu)
            pool.add_vcpu(vcpu)
        workload = BlockingSyncWorkload("b", threads=4)
        workload.install(machine, vm)
        machine.run(300 * MS)
        workload.begin_measurement()
        machine.run(1 * SEC)
        result = workload.result()
        assert result.metric == "ns_per_job"
        assert dict(result.details)["jobs"] > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            BlockingSyncWorkload("b", threads=0)
        with pytest.raises(ValueError):
            BlockingSyncWorkload("b", cs_instructions=0)


class TestSyncPrimitiveAblation:
    def test_blocking_less_quantum_sensitive_than_spinning(self):
        from repro.experiments.registry import REGISTRY, run

        result = run(REGISTRY["sync"], dict(
            quanta_ms=(1, 90),
            warmup_ns=300 * MS,
            measure_ns=1 * SEC,
        ))
        spin_degradation = result.degradation("spin")
        blocking_degradation = result.degradation("semaphore")
        assert spin_degradation > blocking_degradation
