"""Tests for the guest OS thread scheduler (via a real Machine)."""

import math

import pytest

from repro.guest.phases import Compute, Sleep
from repro.guest.thread import GuestThread, ThreadState
from repro.hypervisor.machine import Machine


@pytest.fixture
def machine():
    return Machine(seed=0)


def spin_forever_body(thread):
    while True:
        yield Compute(1_000_000)


class TestThreadPlacement:
    def test_explicit_pinning(self, machine):
        vm = machine.new_vm("vm", vcpus=2)
        t = GuestThread("t", spin_forever_body)
        vm.guest.add_thread(t, vm.vcpus[1])
        assert t.vcpu is vm.vcpus[1]

    def test_default_placement_balances(self, machine):
        vm = machine.new_vm("vm", vcpus=2)
        threads = [
            vm.guest.add_thread(GuestThread(f"t{i}", spin_forever_body))
            for i in range(4)
        ]
        per_vcpu = {}
        for t in threads:
            per_vcpu[t.vcpu.vcpu_id] = per_vcpu.get(t.vcpu.vcpu_id, 0) + 1
        assert set(per_vcpu.values()) == {2}

    def test_foreign_vcpu_rejected(self, machine):
        vm1 = machine.new_vm("vm1", 1)
        vm2 = machine.new_vm("vm2", 1)
        with pytest.raises(ValueError):
            vm1.guest.add_thread(GuestThread("t", spin_forever_body), vm2.vcpus[0])


class TestPickAndRotate:
    def test_pick_none_when_empty(self, machine):
        vm = machine.new_vm("vm", 1)
        assert vm.guest.pick(vm.vcpus[0]) is None

    def test_pick_returns_ready_thread(self, machine):
        vm = machine.new_vm("vm", 1)
        t = vm.guest.add_thread(GuestThread("t", spin_forever_body))
        assert vm.guest.pick(vm.vcpus[0]) is t

    def test_rotation_after_guest_slice(self, machine):
        vm = machine.new_vm("vm", 1)
        a = vm.guest.add_thread(GuestThread("a", spin_forever_body))
        b = vm.guest.add_thread(GuestThread("b", spin_forever_body))
        vcpu = vm.vcpus[0]
        assert vm.guest.pick(vcpu) is a
        vm.guest.note_run(vcpu, vm.guest.guest_slice_ns + 1)
        assert vm.guest.maybe_rotate(vcpu) is b

    def test_no_rotation_below_slice(self, machine):
        vm = machine.new_vm("vm", 1)
        a = vm.guest.add_thread(GuestThread("a", spin_forever_body))
        vm.guest.add_thread(GuestThread("b", spin_forever_body))
        vcpu = vm.vcpus[0]
        vm.guest.pick(vcpu)
        vm.guest.note_run(vcpu, 100)
        assert vm.guest.maybe_rotate(vcpu) is a

    def test_spinning_thread_never_rotated(self, machine):
        vm = machine.new_vm("vm", 1)
        a = vm.guest.add_thread(GuestThread("a", spin_forever_body))
        vm.guest.add_thread(GuestThread("b", spin_forever_body))
        vcpu = vm.vcpus[0]
        vm.guest.pick(vcpu)
        a.state = ThreadState.SPINNING
        vm.guest.note_run(vcpu, vm.guest.guest_slice_ns * 10)
        assert vm.guest.maybe_rotate(vcpu) is a


class TestBlockingAndWaking:
    def test_blocked_thread_not_picked(self, machine):
        vm = machine.new_vm("vm", 1)
        t = vm.guest.add_thread(GuestThread("t", spin_forever_body))
        vcpu = vm.vcpus[0]
        vm.guest.pick(vcpu)
        vm.guest.thread_blocked(t)
        assert vm.guest.pick(vcpu) is None
        assert not vm.guest.has_runnable(vcpu)

    def test_thread_ready_requeues(self, machine):
        vm = machine.new_vm("vm", 1)
        t = vm.guest.add_thread(GuestThread("t", spin_forever_body))
        vcpu = vm.vcpus[0]
        vm.guest.pick(vcpu)
        vm.guest.thread_blocked(t)
        assert vm.guest.thread_ready(t) is True
        assert vm.guest.pick(vcpu) is t

    def test_thread_ready_on_nonblocked_is_noop(self, machine):
        vm = machine.new_vm("vm", 1)
        t = vm.guest.add_thread(GuestThread("t", spin_forever_body))
        assert vm.guest.thread_ready(t) is False

    def test_exited_thread_gone(self, machine):
        vm = machine.new_vm("vm", 1)
        t = vm.guest.add_thread(GuestThread("t", spin_forever_body))
        vcpu = vm.vcpus[0]
        vm.guest.pick(vcpu)
        vm.guest.thread_exited(t)
        assert vm.guest.pick(vcpu) is None

    def test_runnable_count(self, machine):
        vm = machine.new_vm("vm", 1)
        a = vm.guest.add_thread(GuestThread("a", spin_forever_body))
        vm.guest.add_thread(GuestThread("b", spin_forever_body))
        vcpu = vm.vcpus[0]
        assert vm.guest.runnable_count(vcpu) == 2
        vm.guest.pick(vcpu)
        vm.guest.thread_blocked(a)
        assert vm.guest.runnable_count(vcpu) == 1


class TestPreemptTo:
    def test_interrupt_switches_current(self, machine):
        vm = machine.new_vm("vm", 1)
        a = vm.guest.add_thread(GuestThread("a", spin_forever_body))
        b = vm.guest.add_thread(GuestThread("b", spin_forever_body))
        vcpu = vm.vcpus[0]
        assert vm.guest.pick(vcpu) is a
        assert vm.guest.preempt_to(vcpu, b) is True
        assert vm.guest.pick(vcpu) is b
        # a resumes right after b (front of queue)
        vm.guest.thread_blocked(b)
        assert vm.guest.pick(vcpu) is a

    def test_preempt_to_current_is_noop(self, machine):
        vm = machine.new_vm("vm", 1)
        a = vm.guest.add_thread(GuestThread("a", spin_forever_body))
        vcpu = vm.vcpus[0]
        vm.guest.pick(vcpu)
        assert vm.guest.preempt_to(vcpu, a) is False

    def test_spinner_not_displaced(self, machine):
        vm = machine.new_vm("vm", 1)
        a = vm.guest.add_thread(GuestThread("a", spin_forever_body))
        b = vm.guest.add_thread(GuestThread("b", spin_forever_body))
        vcpu = vm.vcpus[0]
        vm.guest.pick(vcpu)
        a.state = ThreadState.SPINNING
        assert vm.guest.preempt_to(vcpu, b) is False

    def test_blocked_thread_cannot_preempt(self, machine):
        vm = machine.new_vm("vm", 1)
        vm.guest.add_thread(GuestThread("a", spin_forever_body))
        b = vm.guest.add_thread(GuestThread("b", spin_forever_body))
        vcpu = vm.vcpus[0]
        vm.guest.pick(vcpu)
        vm.guest.thread_blocked(b)
        assert vm.guest.preempt_to(vcpu, b) is False


class TestPhaseValidation:
    def test_negative_compute_rejected(self):
        with pytest.raises(ValueError):
            Compute(-1)

    def test_negative_sleep_rejected(self):
        with pytest.raises(ValueError):
            Sleep(-1)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_compute_rejected(self, value):
        with pytest.raises(ValueError, match="Compute"):
            Compute(value)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_sleep_rejected(self, value):
        with pytest.raises(ValueError, match="Sleep"):
            Sleep(value)

    def test_fractional_sleep_rejected(self):
        # truncating would sleep 2 ns for 2.7; integral floats are fine
        with pytest.raises(ValueError, match="Sleep"):
            Sleep(2.7)
        assert Sleep(2.0).duration_ns == 2
