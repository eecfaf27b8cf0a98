"""Tests for the event-channel IO path."""

from repro.guest.phases import Compute, WaitEvent
from repro.guest.thread import GuestThread
from repro.hypervisor.machine import Machine
from repro.hypervisor.vm import VCpuState
from repro.sim.units import MS


def server_body(port, log):
    def body(thread):
        while True:
            wait = WaitEvent(port)
            yield wait
            log.append(wait.payload)
            yield Compute(10_000)

    return body


class TestDelivery:
    def test_event_unblocks_waiting_thread(self):
        machine = Machine(seed=0)
        vm = machine.new_vm("vm", 1)
        port = machine.new_port(vm.vcpus[0], "p")
        log = []
        vm.guest.add_thread(GuestThread("s", server_body(port, log)))
        machine.run(10 * MS)
        assert vm.vcpus[0].state == VCpuState.BLOCKED
        port.post("hello")
        machine.run(10 * MS)
        assert log == ["hello"]

    def test_events_processed_in_order(self):
        machine = Machine(seed=0)
        vm = machine.new_vm("vm", 1)
        port = machine.new_port(vm.vcpus[0], "p")
        log = []
        vm.guest.add_thread(GuestThread("s", server_body(port, log)))
        machine.run(10 * MS)
        for i in range(5):
            port.post(i)
        machine.run(10 * MS)
        assert log == [0, 1, 2, 3, 4]

    def test_backlog_and_counters(self):
        machine = Machine(seed=0)
        vm = machine.new_vm("vm", 1)
        port = machine.new_port(vm.vcpus[0], "p")
        port.post("a")
        port.post("b")
        assert port.backlog == 2
        assert port.posted == 2
        assert vm.vcpus[0].io_events == 2.0
        ok, payload = port.try_consume()
        assert ok and payload == "a"
        assert port.consumed == 1
        assert port.backlog == 1

    def test_empty_consume(self):
        machine = Machine(seed=0)
        vm = machine.new_vm("vm", 1)
        port = machine.new_port(vm.vcpus[0], "p")
        ok, payload = port.try_consume()
        assert not ok and payload is None

    def test_event_before_thread_waits_is_not_lost(self):
        machine = Machine(seed=0)
        vm = machine.new_vm("vm", 1)
        port = machine.new_port(vm.vcpus[0], "p")
        log = []
        port.post("early")
        vm.guest.add_thread(GuestThread("s", server_body(port, log)))
        machine.run(10 * MS)
        assert log == ["early"]


class TestGuestInterrupt:
    def test_event_preempts_cpu_thread_on_same_vcpu(self):
        """The guest-interrupt path: an event for a blocked handler
        displaces the running compute thread immediately."""
        machine = Machine(seed=0)
        vm = machine.new_vm("vm", 1)
        port = machine.new_port(vm.vcpus[0], "p")
        log = []
        vm.guest.add_thread(GuestThread("s", server_body(port, log)))

        def hog(thread):
            while True:
                yield Compute(10_000_000)

        vm.guest.add_thread(GuestThread("cgi", hog))
        machine.run(50 * MS)
        post_time = machine.sim.now
        port.post(post_time)
        machine.run(1 * MS)
        assert log == [post_time]  # handled within ~the service time

    def test_interrupt_does_not_displace_spinner(self):
        from repro.guest.phases import Acquire
        from repro.guest.spinlock import SpinLock
        from repro.guest.thread import ThreadState

        machine = Machine(seed=0)
        vm = machine.new_vm("vm", 1)
        port = machine.new_port(vm.vcpus[0], "p")
        log = []
        lock = SpinLock("l")
        lock_holder = GuestThread("ghost", lambda t: iter(()))
        lock.try_acquire(lock_holder, now=0)  # never released

        def spinner(thread):
            yield Acquire(lock)

        vm.guest.add_thread(GuestThread("s", server_body(port, log)))
        spin_thread = GuestThread("spin", spinner)
        vm.guest.add_thread(spin_thread)
        machine.run(5 * MS)
        # the server waits; the spinner holds the vCPU spinning
        assert spin_thread.state == ThreadState.SPINNING
        port.post("x")
        machine.run(5 * MS)
        # interrupt must not displace the spinning thread
        assert spin_thread.state == ThreadState.SPINNING
        assert log == []
