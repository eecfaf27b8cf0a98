"""Integration tests for the machine execution engine."""

import pytest

from repro.guest.phases import Acquire, Compute, Exit, Release, Sleep, WaitEvent
from repro.guest.spinlock import SpinLock
from repro.guest.thread import GuestThread
from repro.hypervisor.machine import Machine
from repro.hypervisor.pools import PoolPlan
from repro.hypervisor.vm import VCpuState
from repro.sim.engine import SimulationError
from repro.sim.units import MS, SEC


def make_machine(pcpus=1, quantum=30 * MS, boost=True, seed=0):
    machine = Machine(seed=seed, default_quantum_ns=quantum, boost_enabled=boost)
    if pcpus < len(machine.topology.pcpus):
        machine.create_pool("small", machine.topology.pcpus[:pcpus], quantum)
        # new VMs are added to default pool; tests move them explicitly
    return machine


def hog_body(thread):
    while True:
        yield Compute(5_000_000)


class TestBasicExecution:
    def test_single_thread_progresses(self):
        machine = Machine(seed=0)
        vm = machine.new_vm("vm", 1)
        t = GuestThread("t", hog_body)
        vm.guest.add_thread(t)
        machine.run(100 * MS)
        machine.sync()
        assert t.instructions_retired > 0

    def test_finite_thread_exits_and_vcpu_blocks(self):
        machine = Machine(seed=0)

        def finite(thread):
            yield Compute(1_000_000)

        vm = machine.new_vm("vm", 1)
        t = GuestThread("t", finite)
        vm.guest.add_thread(t)
        machine.run(100 * MS)
        assert t.done
        assert t.finished_at is not None
        assert vm.vcpus[0].state == VCpuState.BLOCKED

    def test_compute_duration_matches_profile(self):
        """1M instructions at 0.3 ns each ~ 0.3 ms of virtual time."""
        machine = Machine(seed=0)
        done_at = []

        def finite(thread):
            yield Compute(1_000_000)
            done_at.append(machine.sim.now)

        vm = machine.new_vm("vm", 1)
        vm.guest.add_thread(GuestThread("t", finite))
        machine.run(10 * MS)
        assert done_at, "thread never finished"
        assert done_at[0] == pytest.approx(0.3 * MS, rel=0.1)

    def test_sleep_blocks_for_duration(self):
        machine = Machine(seed=0)
        timeline = []

        def sleeper(thread):
            yield Compute(1000)
            timeline.append(machine.sim.now)
            yield Sleep(5 * MS)
            timeline.append(machine.sim.now)

        vm = machine.new_vm("vm", 1)
        vm.guest.add_thread(GuestThread("t", sleeper))
        machine.run(50 * MS)
        assert len(timeline) == 2
        assert timeline[1] - timeline[0] == pytest.approx(5 * MS, rel=0.05)

    def test_two_hogs_on_one_pcpu_timeshare(self):
        machine = Machine(seed=0)
        pool = machine.create_pool("p", machine.topology.pcpus[:1], 30 * MS)
        threads = []
        for i in range(2):
            vm = machine.new_vm(f"vm{i}", 1)
            machine.default_pool.remove_vcpu(vm.vcpus[0])
            pool.add_vcpu(vm.vcpus[0])
            t = GuestThread(f"t{i}", hog_body)
            vm.guest.add_thread(t)
            threads.append(t)
        machine.run(1 * SEC)
        machine.sync()
        assert threads[0].run_ns == pytest.approx(0.5 * SEC, rel=0.1)
        assert threads[1].run_ns == pytest.approx(0.5 * SEC, rel=0.1)


class TestQuantumEnforcement:
    @pytest.mark.parametrize("quantum_ms", [1, 10, 30])
    def test_dispatch_rate_tracks_quantum(self, quantum_ms):
        machine = Machine(seed=0, default_quantum_ns=quantum_ms * MS)
        pool = machine.create_pool(
            "p", machine.topology.pcpus[:1], quantum_ms * MS
        )
        vcpus = []
        for i in range(2):
            vm = machine.new_vm(f"vm{i}", 1)
            machine.default_pool.remove_vcpu(vm.vcpus[0])
            pool.add_vcpu(vm.vcpus[0])
            vm.guest.add_thread(GuestThread(f"t{i}", hog_body))
            vcpus.append(vm.vcpus[0])
        machine.run(1 * SEC)
        dispatches = sum(v.dispatch_count for v in vcpus)
        expected = 1 * SEC / (quantum_ms * MS)
        assert dispatches == pytest.approx(expected, rel=0.2)

    def test_vcpu_quantum_override_wins(self):
        machine = Machine(seed=0, default_quantum_ns=30 * MS)
        pool = machine.create_pool("p", machine.topology.pcpus[:1], 30 * MS)
        fast_vm = machine.new_vm("fast", 1)
        slow_vm = machine.new_vm("slow", 1)
        for vm in (fast_vm, slow_vm):
            machine.default_pool.remove_vcpu(vm.vcpus[0])
            pool.add_vcpu(vm.vcpus[0])
            vm.guest.add_thread(GuestThread(vm.name, hog_body))
        fast_vm.vcpus[0].quantum_override = 1 * MS
        machine.run(1 * SEC)
        # the fast vCPU is dispatched far more often
        assert fast_vm.vcpus[0].dispatch_count > slow_vm.vcpus[0].dispatch_count * 3


class TestEventChannelAndBoost:
    def _io_setup(self, boost, service_instructions=10_000):
        machine = Machine(seed=0, boost_enabled=boost)
        pool = machine.create_pool("p", machine.topology.pcpus[:1], 30 * MS)
        io_vm = machine.new_vm("io", 1)
        machine.default_pool.remove_vcpu(io_vm.vcpus[0])
        pool.add_vcpu(io_vm.vcpus[0])
        port = machine.new_port(io_vm.vcpus[0], "port")
        latencies = []

        def server(thread):
            while True:
                wait = WaitEvent(port)
                yield wait
                yield Compute(service_instructions)
                latencies.append(machine.sim.now - wait.payload)

        io_vm.guest.add_thread(GuestThread("server", server))
        for i in range(3):
            vm = machine.new_vm(f"hog{i}", 1)
            machine.default_pool.remove_vcpu(vm.vcpus[0])
            pool.add_vcpu(vm.vcpus[0])
            vm.guest.add_thread(GuestThread(f"h{i}", hog_body))
        return machine, port, latencies

    def test_boost_gives_low_io_latency(self):
        machine, port, latencies = self._io_setup(boost=True)
        machine.start()

        def send():
            port.post(machine.sim.now)
            machine.sim.after(20 * MS, send)

        machine.sim.after(10 * MS, send)
        machine.run(1 * SEC)
        assert latencies
        mean = sum(latencies) / len(latencies)
        assert mean < 2 * MS  # boosted wake-up beats the 90 ms round

    def test_busy_vcpu_loses_boost_and_waits(self):
        """The paper's heterogeneous-IO argument: a vCPU kept busy by
        CGI work exhausts its quanta, is never BOOST-eligible, and its
        request latency becomes round-robin bound."""
        machine, port, latencies = self._io_setup(boost=True)
        # add an always-ready CGI thread on the server's vCPU
        io_vm = port.vcpu.vm
        io_vm.guest.add_thread(GuestThread("cgi", hog_body), port.vcpu)
        machine.start()

        def send():
            port.post(machine.sim.now)
            machine.sim.after(100 * MS, send)

        machine.sim.after(10 * MS, send)
        machine.run(2 * SEC)
        assert latencies
        mean = sum(latencies) / len(latencies)
        assert mean > 5 * MS  # waits behind other vCPUs' quanta

    def test_io_event_counter_increments(self):
        machine, port, _ = self._io_setup(boost=True)
        machine.start()
        port.post(machine.sim.now)
        port.post(machine.sim.now)
        assert port.vcpu.io_events == 2.0

    def test_exhausted_quantum_blocks_boost(self):
        """A vCPU preempted by quantum expiry is not BOOST-eligible."""
        machine, port, _ = self._io_setup(boost=True)
        machine.start()
        vcpu = port.vcpu
        vcpu.exhausted_last_quantum = True
        vcpu.credit = 100.0
        assert not machine.scheduler.boost_eligible(vcpu)
        vcpu.exhausted_last_quantum = False
        assert machine.scheduler.boost_eligible(vcpu)


class TestSpinExecution:
    def test_lock_holder_preemption_burns_spin_time(self):
        """Two spin threads on one pCPU: the waiter spins while the
        holder is descheduled, so spin time accumulates and PLE exits
        are recorded."""
        machine = Machine(seed=0, default_quantum_ns=10 * MS)
        pool = machine.create_pool("p", machine.topology.pcpus[:1], 10 * MS)
        vm = machine.new_vm("vm", 2, weight=512)
        for vcpu in vm.vcpus:
            machine.default_pool.remove_vcpu(vcpu)
            pool.add_vcpu(vcpu)
        lock = SpinLock("l")

        def worker(thread):
            while True:
                yield Compute(100_000)
                yield Acquire(lock)
                yield Compute(3_000_000)  # ~1 ms critical section
                yield Release(lock)

        a = GuestThread("a", worker)
        b = GuestThread("b", worker)
        vm.guest.add_thread(a, vm.vcpus[0])
        vm.guest.add_thread(b, vm.vcpus[1])
        machine.run(1 * SEC)
        machine.sync()
        total_spin = a.spin_ns + b.spin_ns
        assert total_spin > 50 * MS
        total_ple = sum(v.ple.exits for v in vm.vcpus)
        assert total_ple > 0
        assert vm.spin_notifications > 0

    def test_release_wakes_oncpu_spinner_immediately(self):
        """Holder and waiter on different pCPUs: handoff is instant."""
        machine = Machine(seed=0)
        vm = machine.new_vm("vm", 2)
        lock = SpinLock("l")
        events = []

        def holder(thread):
            yield Acquire(lock)
            yield Compute(30_000_000)  # ~10 ms
            yield Release(lock)
            events.append(("released", machine.sim.now))
            yield Exit()

        def waiter(thread):
            yield Compute(3_000_000)  # arrive second
            yield Acquire(lock)
            events.append(("acquired", machine.sim.now))
            yield Release(lock)
            yield Exit()

        vm.guest.add_thread(GuestThread("h", holder), vm.vcpus[0])
        vm.guest.add_thread(GuestThread("w", waiter), vm.vcpus[1])
        machine.run(100 * MS)
        assert dict(events)["acquired"] == dict(events)["released"]


class TestPoolPlanApplication:
    def test_apply_plan_moves_vcpus(self):
        machine = Machine(seed=0)
        vms = [machine.new_vm(f"vm{i}", 1) for i in range(4)]
        for vm in vms:
            vm.guest.add_thread(GuestThread(vm.name, hog_body))
        machine.run(100 * MS)
        pcpus = machine.topology.pcpus
        plan = PoolPlan()
        plan.add("fast", pcpus[:4], 1 * MS, [vm.vcpus[0] for vm in vms[:2]])
        plan.add("slow", pcpus[4:], 90 * MS, [vm.vcpus[0] for vm in vms[2:]])
        machine.apply_pool_plan(plan)
        assert len(machine.pools) == 2
        assert vms[0].vcpus[0].pool.quantum_ns == 1 * MS
        assert vms[3].vcpus[0].pool.quantum_ns == 90 * MS
        machine.run(100 * MS)  # everything still runs
        machine.sync()
        for vm in vms:
            assert vm.vcpus[0].run_ns_total > 0

    def test_plan_validation_rejects_partial_pcpu_coverage(self):
        machine = Machine(seed=0)
        vm = machine.new_vm("vm", 1)
        plan = PoolPlan()
        plan.add("p", machine.topology.pcpus[:2], 30 * MS, [vm.vcpus[0]])
        with pytest.raises(ValueError):
            machine.apply_pool_plan(plan)

    def test_plan_validation_rejects_unplaced_vcpu(self):
        machine = Machine(seed=0)
        machine.new_vm("vm", 1)
        plan = PoolPlan()
        plan.add("p", machine.topology.pcpus, 30 * MS, [])
        with pytest.raises(ValueError):
            machine.apply_pool_plan(plan)

    def test_plan_validation_rejects_duplicate_vcpu(self):
        machine = Machine(seed=0)
        vm = machine.new_vm("vm", 1)
        plan = PoolPlan()
        half = machine.topology.pcpus[:4]
        rest = machine.topology.pcpus[4:]
        plan.add("a", half, 30 * MS, [vm.vcpus[0]])
        plan.add("b", rest, 30 * MS, [vm.vcpus[0]])
        with pytest.raises(ValueError):
            machine.apply_pool_plan(plan)

    def test_migration_counted_on_pool_change(self):
        machine = Machine(seed=0)
        vm = machine.new_vm("vm", 1)
        vm.guest.add_thread(GuestThread("t", hog_body))
        machine.run(50 * MS)
        plan = PoolPlan()
        plan.add("a", machine.topology.pcpus[:4], 30 * MS, [vm.vcpus[0]])
        plan.add("b", machine.topology.pcpus[4:], 30 * MS, [])
        before = vm.vcpus[0].migrations
        machine.apply_pool_plan(plan)
        assert vm.vcpus[0].migrations == before + 1


class TestDeterminism:
    def test_same_seed_same_trajectory(self):
        def run_once():
            machine = Machine(seed=42)
            pool = machine.create_pool("p", machine.topology.pcpus[:1], 30 * MS)
            totals = []
            for i in range(3):
                vm = machine.new_vm(f"vm{i}", 1)
                machine.default_pool.remove_vcpu(vm.vcpus[0])
                pool.add_vcpu(vm.vcpus[0])
                t = GuestThread(f"t{i}", hog_body)
                vm.guest.add_thread(t)
                totals.append(t)
            machine.run(500 * MS)
            machine.sync()
            return [t.instructions_retired for t in totals]

        assert run_once() == run_once()


class TestRunDuration:
    """``Machine.run`` follows the clock's integer rule."""

    @pytest.mark.parametrize("value", [2.7, float("nan"), float("inf")])
    def test_non_integral_duration_rejected(self, value):
        machine = Machine(seed=0)
        vm = machine.new_vm("vm", 1)
        vm.guest.add_thread(GuestThread("t", hog_body))
        with pytest.raises(SimulationError, match="non-integral duration"):
            machine.run(value)
        assert machine.sim.now == 0 and machine.sim.events_fired == 0

    def test_integral_float_duration_accepted(self):
        machine = Machine(seed=0)
        machine.run(2.0 * MS)
        assert machine.sim.now == 2 * MS and type(machine.sim.now) is int
        with pytest.raises(SimulationError):
            machine.run(0.5)
        assert machine.sim.now == 2 * MS
