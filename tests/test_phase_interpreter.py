"""Focused tests for the machine's phase interpreter edge cases."""

import pytest

from repro.guest.barrier import SpinBarrier
from repro.guest.phases import (
    Acquire,
    BarrierWait,
    Compute,
    Exit,
    Release,
    Sleep,
    WaitEvent,
)
from repro.guest.spinlock import SpinLock
from repro.guest.thread import GuestThread
from repro.hypervisor.machine import Machine
from repro.hypervisor.vm import VCpuState
from repro.sim.units import MS


class TestExitHandling:
    def test_explicit_exit_phase(self):
        machine = Machine(seed=0)
        vm = machine.new_vm("vm", 1)

        def body(thread):
            yield Compute(1_000)
            yield Exit()
            yield Compute(10**12)  # never reached

        t = GuestThread("t", body)
        vm.guest.add_thread(t)
        machine.run(10 * MS)
        assert t.done
        assert t.instructions_retired < 10_000

    def test_vcpu_blocks_after_last_thread_exits(self):
        machine = Machine(seed=0)
        vm = machine.new_vm("vm", 1)

        def body(thread):
            yield Compute(1_000)

        vm.guest.add_thread(GuestThread("t", body))
        machine.run(10 * MS)
        assert vm.vcpus[0].state == VCpuState.BLOCKED

    def test_sibling_continues_after_exit(self):
        machine = Machine(seed=0)
        vm = machine.new_vm("vm", 1)

        def short(thread):
            yield Compute(1_000)

        def long_running(thread):
            while True:
                yield Compute(1_000_000)

        vm.guest.add_thread(GuestThread("short", short))
        survivor = GuestThread("long", long_running)
        vm.guest.add_thread(survivor)
        machine.run(50 * MS)
        machine.sync()
        assert survivor.run_ns > 40 * MS


class TestWaitEventEdges:
    def test_two_waiters_on_one_port_is_an_error(self):
        machine = Machine(seed=0)
        vm = machine.new_vm("vm", 1)
        port = machine.new_port(vm.vcpus[0], "p")

        def waiter(thread):
            yield WaitEvent(port)

        vm.guest.add_thread(GuestThread("a", waiter))
        vm.guest.add_thread(GuestThread("b", waiter))
        with pytest.raises(RuntimeError, match="one waiter per port"):
            machine.run(10 * MS)

    def test_same_thread_rewaiting_is_fine(self):
        machine = Machine(seed=0)
        vm = machine.new_vm("vm", 1)
        port = machine.new_port(vm.vcpus[0], "p")
        handled = []

        def server(thread):
            while True:
                wait = WaitEvent(port)
                yield wait
                handled.append(wait.payload)

        vm.guest.add_thread(GuestThread("s", server))
        machine.run(5 * MS)
        port.post(1)
        machine.run(5 * MS)
        port.post(2)
        machine.run(5 * MS)
        assert handled == [1, 2]


class TestSpinResumption:
    def test_preempted_spinner_resumes_spinning(self):
        """A spinner preempted mid-spin picks the spin back up on its
        next dispatch and acquires once the lock frees."""
        machine = Machine(seed=0, default_quantum_ns=5 * MS)
        pool = machine.create_pool("p", machine.topology.pcpus[:1], 5 * MS)
        vm = machine.new_vm("vm", 2, weight=512, pool=pool)
        lock = SpinLock("l")
        acquired = []

        def holder(thread):
            yield Acquire(lock)
            yield Compute(60_000_000)  # ~20 ms: several quanta
            yield Release(lock)

        def waiter(thread):
            yield Compute(3_000_000)
            yield Acquire(lock)
            acquired.append(machine.sim.now)
            yield Release(lock)

        vm.guest.add_thread(GuestThread("h", holder), vm.vcpus[0])
        w = GuestThread("w", waiter)
        vm.guest.add_thread(w, vm.vcpus[1])
        machine.run(200 * MS)
        assert acquired, "waiter never got the lock"
        assert w.spin_ns > 0

    def test_barrier_passing_after_redispatch(self):
        """A barrier released while a waiter is descheduled is noticed
        at the waiter's next dispatch."""
        machine = Machine(seed=0, default_quantum_ns=5 * MS)
        pool = machine.create_pool("p", machine.topology.pcpus[:1], 5 * MS)
        vm = machine.new_vm("vm", 2, weight=512, pool=pool)
        barrier = SpinBarrier("b", 2)
        rounds = []

        def worker(thread):
            for _ in range(3):
                yield Compute(2_000_000)
                yield BarrierWait(barrier)
                rounds.append((thread.name, machine.sim.now))

        vm.guest.add_thread(GuestThread("a", worker), vm.vcpus[0])
        vm.guest.add_thread(GuestThread("b", worker), vm.vcpus[1])
        machine.run(300 * MS)
        assert barrier.rounds_completed == 3
        assert len(rounds) == 6


class TestSleepEdges:
    def test_zero_sleep_still_blocks_one_turn(self):
        machine = Machine(seed=0)
        vm = machine.new_vm("vm", 1)
        times = []

        def napper(thread):
            yield Compute(1_000)
            times.append(machine.sim.now)
            yield Sleep(0)
            times.append(machine.sim.now)

        vm.guest.add_thread(GuestThread("n", napper))
        machine.run(10 * MS)
        assert len(times) == 2
        assert times[1] >= times[0]

    def test_many_sleepers_wake_independently(self):
        machine = Machine(seed=0)
        vm = machine.new_vm("vm", 4, weight=1024)
        wake_times = {}

        def napper(thread, delay):
            yield Sleep(delay)
            wake_times[thread.name] = machine.sim.now

        for i, delay in enumerate((3 * MS, 7 * MS, 11 * MS, 2 * MS)):
            vm.guest.add_thread(
                GuestThread(
                    f"n{i}", lambda t, d=delay: napper(t, d)
                ),
                vm.vcpus[i],
            )
        machine.run(50 * MS)
        assert wake_times["n3"] < wake_times["n0"] < wake_times["n1"]
        assert wake_times["n1"] < wake_times["n2"]


class TestExactPhaseTypes:
    def test_subclass_of_a_concrete_phase_is_unknown(self):
        """The machine dispatches on the exact phase type: the concrete
        phases are final, so a subclass is not taken for its base."""

        class TimedCompute(Compute):
            __slots__ = ()

        machine = Machine(seed=0)
        vm = machine.new_vm("vm", 1)

        def body(thread):
            yield TimedCompute(1_000)

        vm.guest.add_thread(GuestThread("t", body))
        with pytest.raises(TypeError, match="unknown phase"):
            machine.run(1 * MS)
