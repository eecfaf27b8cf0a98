"""Stress/fuzz tests: global scheduler invariants under random mixes.

These catch the class of bugs unit tests miss: vCPUs lost from run
queues, double-queued vCPUs, machines that silently stop making
progress after reconfigurations, CPU time appearing from nowhere.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import AqlPolicy, Microsliced, VSlicer, VTurbo, XenCredit
from repro.core.aql import AqlScheduler
from repro.experiments.scenarios import AppPlacement, Scenario
from repro.guest.phases import Compute
from repro.guest.thread import GuestThread
from repro.hypervisor.machine import Machine
from repro.hypervisor.vm import VCpuState
from repro.sim.units import MS


def check_machine_invariants(machine: Machine) -> None:
    """Structural invariants that must hold at any quiescent point."""
    seen: dict[int, str] = {}
    for ctx in machine.contexts.values():
        if ctx.offline:
            # a failed pCPU runs nothing and queues nothing
            assert ctx.pcpu in machine.offline_pcpus
            assert ctx.current is None
            assert len(ctx.runq) == 0
            continue
        # each context's pool owns the pcpu
        assert ctx.pcpu in ctx.pool.pcpus
        if ctx.current is not None:
            vcpu = ctx.current
            assert vcpu.state == VCpuState.RUNNING
            assert vcpu.pcpu is ctx.pcpu
            # a vCPU on two pCPUs would show up twice here
            assert vcpu.vcpu_id not in seen
            seen[vcpu.vcpu_id] = "running"
        for vcpu in ctx.runq:
            assert vcpu.state == VCpuState.RUNNABLE
            assert vcpu.vcpu_id not in seen, "vCPU queued twice"
            seen[vcpu.vcpu_id] = "queued"
    for vcpu in machine.all_vcpus:
        if vcpu.vcpu_id not in seen:
            assert vcpu.state in (VCpuState.BLOCKED, VCpuState.RUNNABLE), (
                f"{vcpu!r} neither running, queued, blocked nor parked"
            )
    # every live vCPU belongs to exactly one pool (and agrees about it)
    for vcpu in machine.all_vcpus:
        owners = [pool for pool in machine.pools if vcpu in pool.vcpus]
        assert len(owners) == 1, f"{vcpu!r} owned by {len(owners)} pools"
        assert vcpu.pool is owners[0]
    # live pools still carry the quantum the last installed plan chose
    if machine.last_plan is not None:
        plan_quanta = {
            name: quantum for name, _, quantum, _ in machine.last_plan.entries
        }
        for pool in machine.pools:
            if pool.name in plan_quanta:
                assert pool.quantum_ns == plan_quanta[pool.name], pool.name
    # shut-down VMs are fully withdrawn: ports closed and drained,
    # vCPUs in no pool / queue / context, credits can't be charged
    for vm in machine.retired_vms:
        assert not vm.alive
        for port in vm.ports:
            assert port.closed
            assert not port.pending, f"{port.name}: events to a dead VM"
        for vcpu in vm.vcpus:
            assert vcpu.state == VCpuState.BLOCKED
            assert vcpu.pool is None
            assert vcpu not in machine._parked
            for pool in machine.pools:
                assert vcpu not in pool.vcpus, "retired vCPU still pooled"
            for ctx in machine.contexts.values():
                assert ctx.current is not vcpu
                assert vcpu not in ctx.runq, "retired vCPU still queued"
    # total CPU time handed out (including by since-retired VMs) cannot
    # exceed wall time x pCPUs
    total_run = sum(v.run_ns_total for v in machine.all_vcpus)
    total_run += sum(
        v.run_ns_total for vm in machine.retired_vms for v in vm.vcpus
    )
    capacity = machine.sim.now * len(machine.topology.pcpus)
    assert total_run <= capacity * (1 + 1e-6)


APP_CHOICES = [
    "specweb2009", "facesim", "bzip2", "libquantum", "hmmer", "astar",
    "fluidanimate", "mcf", "gobmk",
]


@settings(max_examples=8, deadline=None)
@given(
    mix=st.lists(
        st.tuples(
            st.sampled_from(APP_CHOICES),
            st.integers(min_value=1, max_value=4),
        ),
        min_size=1,
        max_size=4,
    ),
    policy_index=st.integers(min_value=0, max_value=4),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_random_scenarios_run_clean(mix, policy_index, seed):
    """Any colocation mix under any policy runs without losing vCPUs
    or manufacturing CPU time."""
    placements = []
    for index, (app, vcpus) in enumerate(mix):
        placements.append(
            AppPlacement(app, vcpus, label=f"{app}#{index}")
        )
    scenario = Scenario("fuzz", tuple(placements), pcpus=2)
    policies = [XenCredit(), Microsliced(), VSlicer(), VTurbo(), AqlPolicy()]
    policy = policies[policy_index]
    from repro.experiments.scenarios import build_scenario

    built = build_scenario(scenario, seed=seed)
    policy.setup(built.machine, built.ctx)
    built.machine.run(600 * MS)
    built.machine.sync()
    check_machine_invariants(built.machine)
    # every placement made progress
    for key, workload in built.workloads.items():
        vm_threads = getattr(workload, "threads", None) or getattr(
            workload, "workers", None
        )
        if vm_threads:
            assert any(t.instructions_retired > 0 for t in vm_threads), key


@settings(max_examples=6, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    policy_index=st.integers(min_value=0, max_value=1),
)
def test_random_churn_keeps_invariants(seed, policy_index):
    """A random churn timeline (boots, teardowns, phase changes, faults)
    never corrupts scheduler structure under either policy."""
    from repro.dynamics import random_timeline
    from repro.experiments.churn import BASE, ChurnStory, _run_churn

    timeline = random_timeline(
        seed=seed,
        n_events=5,
        base_vms=tuple((member.name, member.mode) for member in BASE),
        pcpus=2,
        start_ns=200 * MS,
        spacing_ns=200 * MS,
    )
    story = ChurnStory("fuzz", BASE, timeline)
    policy_name = ("xen", "aql")[policy_index]
    run, machine = _run_churn(
        story,
        policy_name,
        warmup_ns=300 * MS,
        measure_ns=timeline.duration_ns + 400 * MS,
        seed=seed,
    )
    assert run.events_applied == len(timeline)
    check_machine_invariants(machine)
    # run on after the story: teardown must not have wedged anything
    machine.run(200 * MS)
    machine.sync()
    check_machine_invariants(machine)


class TestLongRunStability:
    def test_aql_long_run_conserves_structure(self):
        machine = Machine(seed=2)
        pool = machine.create_pool("p", machine.topology.pcpus[:4], 30 * MS)
        for i, name in enumerate(
            ("specweb2009", "bzip2", "libquantum", "hmmer")
        ):
            nv = 1
            vm = machine.new_vm(f"{name}", nv)
            machine.default_pool.remove_vcpu(vm.vcpus[0])
            pool.add_vcpu(vm.vcpus[0])
            from repro.workloads.suites import make_app

            make_app(name, machine.spec, vcpus=nv).install(machine, vm)
        AqlScheduler(machine, pcpus=pool.pcpus).attach()
        for _ in range(10):
            machine.run(500 * MS)
            machine.sync()
            check_machine_invariants(machine)

    def test_no_stuck_machine_after_many_migrations(self):
        """Force a reconfiguration every window and confirm forward
        progress throughout."""
        machine = Machine(seed=3)
        vms = []
        for i in range(6):
            vm = machine.new_vm(f"vm{i}", 1)
            t = GuestThread(f"t{i}", lambda th: iter_hog())
            vm.guest.add_thread(t)
            vms.append((vm, t))

        def iter_hog():
            while True:
                yield Compute(2_000_000)

        from repro.hypervisor.pools import PoolPlan

        machine.run(100 * MS)
        last = {vm.name: t.instructions_retired for vm, t in vms}
        pcpus = machine.topology.pcpus
        for round_index in range(12):
            split = (round_index % 7) + 1
            plan = PoolPlan()
            plan.add("a", pcpus[:split], (round_index % 3 + 1) * MS,
                     [vm.vcpus[0] for vm, _ in vms[:3]])
            plan.add("b", pcpus[split:], 90 * MS,
                     [vm.vcpus[0] for vm, _ in vms[3:]])
            machine.apply_pool_plan(plan)
            machine.run(100 * MS)
            machine.sync()
            check_machine_invariants(machine)
            if round_index % 3 == 2:
                # a 90 ms quantum with 3 vCPUs on one pCPU can starve a
                # vCPU for one 100 ms window; 300 ms covers a rotation
                for vm, t in vms:
                    assert t.instructions_retired > last[vm.name], vm.name
                    last[vm.name] = t.instructions_retired
