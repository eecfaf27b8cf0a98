"""The churn experiment family: AQL vs fixed-Xen under dynamism.

Every other experiment in this repo freezes the VM population at t=0;
here the population *moves*.  Four scripted stories run the same churn
timeline under native Xen (fixed 30 ms) and under AQL_Sched:

* ``arrivals`` — VMs boot mid-run (one heterogeneous-IO, one LLC
  streamer) and one of the original VMs shuts down;
* ``phases``   — a compute VM turns into an IO server and back, with
  an IO load spike in between (the §3.3 "no fixed type" claim);
* ``faults``   — a pCPU fails mid-run and later recovers;
* ``random``   — a seeded random timeline drawn by
  :func:`repro.dynamics.events.random_timeline`.

Per event we report the adaptation metrics (detection latency,
re-cluster convergence, migrations, degraded-window throughput and IO
latency) plus the final per-workload performance.  Everything runs
through :mod:`repro.exec` cells, so churn sweeps parallelise and cache
like the static figures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Optional

from repro.baselines import AqlPolicy, XenCredit
from repro.baselines.base import PolicyContext
from repro.dynamics import (
    AdaptationRecord,
    AdaptationTracker,
    ChurnEngine,
    ChurnTimeline,
    LoadSpike,
    PcpuOffline,
    PcpuOnline,
    PhaseChange,
    SwitchableWorkload,
    VmBoot,
    VmShutdown,
    build_records,
    random_timeline,
)
from repro.exec import Cell, SweepRunner
from repro.experiments import registry
from repro.hypervisor.hostspec import HostSpec
from repro.hypervisor.machine import Machine
from repro.metrics.tables import ResultTable
from repro.sim.units import MS, SEC

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.telemetry import Telemetry

POLICIES = ("xen", "aql")


@dataclass(frozen=True)
class ChurnSpec:
    """One member of the base (pre-churn) population."""

    name: str
    mode: str


@dataclass(frozen=True)
class ChurnStory:
    """A named churn experiment: base population + timeline."""

    name: str
    base: tuple[ChurnSpec, ...]
    timeline: ChurnTimeline
    #: machine size; the base population is confined to these cores
    pcpus: int = 2
    #: closed-loop clients per io-mode workload
    clients: int = 8


#: the shared base population: 4 single-vCPU VMs on 2 pCPUs (2:1
#: consolidation), one of them a heterogeneous IO server — enough
#: contention that quantum choices matter, small enough to stay fast
BASE = (
    ChurnSpec("cpu0", "llcf"),
    ChurnSpec("cpu1", "llcf"),
    ChurnSpec("mem0", "llco"),
    ChurnSpec("io0", "io"),
)


def make_stories(fast: bool = False) -> list[ChurnStory]:
    """The four scripted stories, spaced by ~2x the AQL decide period."""
    s = 400 * MS if fast else 600 * MS
    arrivals = ChurnStory(
        "arrivals",
        BASE,
        ChurnTimeline(
            (
                VmBoot(1 * s, name="dyn0", mode="io"),
                VmBoot(2 * s, name="dyn1", mode="llco"),
                VmShutdown(3 * s, name="mem0"),
            )
        ),
    )
    phases = ChurnStory(
        "phases",
        BASE,
        ChurnTimeline(
            (
                PhaseChange(1 * s, name="cpu1", mode="io"),
                LoadSpike(2 * s, name="io0", factor=4.0, duration_ns=s // 2),
                PhaseChange(3 * s, name="cpu1", mode="llcf"),
            )
        ),
    )
    faults = ChurnStory(
        "faults",
        BASE,
        ChurnTimeline(
            (
                PcpuOffline(1 * s, cpu_id=1),
                PcpuOnline(2 * s, cpu_id=1),
            )
        ),
    )
    rand = ChurnStory(
        "random",
        BASE,
        random_timeline(
            seed=11,
            n_events=4 if fast else 6,
            base_vms=tuple((member.name, member.mode) for member in BASE),
            pcpus=2,
            start_ns=s,
            spacing_ns=s,
        ),
    )
    return [arrivals, phases, faults, rand]


@dataclass
class ChurnRun:
    """Everything one story x policy churn run produced (picklable)."""

    story: str
    policy: str
    records: list[AdaptationRecord] = field(default_factory=list)
    #: final lower-is-better value per workload still alive at the end
    final: dict[str, float] = field(default_factory=dict)
    final_modes: dict[str, str] = field(default_factory=dict)
    events_applied: int = 0
    decisions: int = 0
    reconfigurations: int = 0
    migrations_total: int = 0


def _run_churn(
    story: ChurnStory,
    policy_name: str,
    warmup_ns: int,
    measure_ns: int,
    seed: int = 0,
    telemetry: Optional["Telemetry"] = None,
) -> tuple[ChurnRun, Machine]:
    """Build the base population, arm the timeline, run, measure."""
    if policy_name not in POLICIES:
        raise ValueError(f"unknown policy {policy_name!r}")
    if measure_ns <= story.timeline.duration_ns:
        raise ValueError("measurement window ends before the last event")
    machine = HostSpec(pcpus=story.pcpus).build(seed=seed, telemetry=telemetry)
    pool = machine.create_pool(
        "scenario", machine.topology.pcpus, 30 * MS
    )
    ctx = PolicyContext(pool=pool)
    workloads: dict[str, SwitchableWorkload] = {}
    for member in story.base:
        vm = machine.new_vm(member.name, 1)
        vcpu = vm.vcpus[0]
        machine.default_pool.remove_vcpu(vcpu)
        pool.add_vcpu(vcpu)
        workload = SwitchableWorkload(
            member.name, mode=member.mode, clients=story.clients
        )
        workload.install(machine, vm)
        workloads[member.name] = workload

    policy = XenCredit() if policy_name == "xen" else AqlPolicy()
    policy.setup(machine, ctx)
    machine.run(warmup_ns)
    for workload in workloads.values():
        workload.begin_measurement()

    manager = getattr(policy, "manager", None)
    tracker = AdaptationTracker(machine, workloads, manager=manager)
    engine = ChurnEngine(
        machine,
        story.timeline,
        workloads=workloads,
        allowed_pcpus=pool.pcpus,
        on_event=tracker.on_event,
        clients=story.clients,
    )
    tracker.snapshot()  # start of the measured window
    engine.arm()
    machine.run(measure_ns)
    tracker.snapshot()  # end of the measured window

    run = ChurnRun(story=story.name, policy=policy.name)
    run.records = build_records(tracker)
    for name, workload in sorted(workloads.items()):
        if workload.vm is not None and workload.vm.alive:
            run.final[name] = workload.result().value
            run.final_modes[name] = workload.mode
    run.events_applied = len(engine.applied)
    if manager is not None:
        run.decisions = manager.decisions
        run.reconfigurations = manager.reconfigurations
    run.migrations_total = machine.migrations_total
    return run, machine


def run_churn_cell(
    story: ChurnStory,
    policy_name: str,
    warmup_ns: int,
    measure_ns: int,
    seed: int = 0,
) -> ChurnRun:
    """The repro.exec cell: one story under one policy."""
    run, _machine = _run_churn(
        story, policy_name, warmup_ns, measure_ns, seed=seed
    )
    return run


def _durations(fast: bool) -> tuple[int, int]:
    warmup = 600 * MS if fast else 1 * SEC
    tail = 800 * MS if fast else 1200 * MS
    return warmup, tail


def plan_churn(fast: bool, seed: int = 0) -> list[Cell]:
    """Every story under both policies, interleaved per story."""
    warmup, tail = _durations(fast)
    return [
        Cell(run_churn_cell, dict(
            story=story, policy_name=policy_name, warmup_ns=warmup,
            measure_ns=story.timeline.duration_ns + tail, seed=seed,
        ), label=f"churn:{story.name}:{policy_name}")
        for story in make_stories(fast)
        for policy_name in POLICIES
    ]


def fold_churn(
    results: list[ChurnRun], fast: bool, **_: Any
) -> dict[str, dict[str, ChurnRun]]:
    """story -> policy -> ChurnRun."""
    return {
        story.name: {
            POLICIES[0]: results[2 * i],
            POLICIES[1]: results[2 * i + 1],
        }
        for i, story in enumerate(make_stories(fast))
    }


def run_churn(
    runner: Optional[SweepRunner] = None, **params: Any
) -> dict[str, dict[str, ChurnRun]]:
    return registry.run(registry.REGISTRY["churn"], params, runner)


def _opt(value, fmt: str = "{:.1f}") -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "no"
    return fmt.format(value)


def render_churn(result: dict[str, dict[str, ChurnRun]]) -> str:
    sections = []
    for story_name, runs in result.items():
        table = ResultTable(
            f"churn story {story_name!r} — per-event adaptation"
            " (AQL vs fixed-30ms Xen)",
            [
                "policy",
                "event",
                "t_ms",
                "win_ms",
                "detect_ms",
                "converge",
                "stable",
                "migr",
                "thpt i/ns",
                "io_lat_ms",
            ],
        )
        for policy_name in POLICIES:
            for record in runs[policy_name].records:
                table.add_row(
                    policy_name,
                    record.event,
                    f"{record.time_ms:.0f}",
                    f"{record.window_ms:.0f}",
                    _opt(record.detection_ms),
                    _opt(record.convergence_periods, "{:d}"),
                    _opt(record.stable),
                    record.migrations,
                    record.throughput_ipms / 1e6,
                    _opt(record.io_latency_ms, "{:.3f}"),
                )
        sections.append(table.render())

    summary = ResultTable(
        "churn — final per-workload performance"
        " (lower is better; ratio < 1 means AQL wins)",
        ["story", "workload", "mode", "xen", "aql", "aql/xen"],
    )
    for story_name, runs in result.items():
        xen, aql = runs["xen"], runs["aql"]
        for name in sorted(xen.final):
            if name not in aql.final:
                continue
            summary.add_row(
                story_name,
                name,
                aql.final_modes.get(name, "?"),
                xen.final[name],
                aql.final[name],
                aql.final[name] / xen.final[name],
            )
    sections.append(summary.render())
    return "\n\n".join(sections)


def export_churn_trace(
    path: str,
    fast: bool = False,
    story_name: str = "phases",
    policy_name: str = "aql",
    seed: int = 0,
) -> tuple[int, int]:
    """Run one churn story with telemetry on and write a
    chrome://tracing JSON; returns (#events, #spans dropped).

    The span layer records quantum slices (the pCPU occupancy tracks),
    vTRS periods, AQL decisions and churn markers, so the exported
    document shows the control plane above the timeline it reshaped.
    """
    from repro.metrics.chrome_trace import write_chrome_trace
    from repro.telemetry import Telemetry

    stories = {story.name: story for story in make_stories(fast)}
    story = stories[story_name]
    warmup, tail = _durations(fast)
    telemetry = Telemetry(enabled=True)
    _run, machine = _run_churn(
        story,
        policy_name,
        warmup,
        story.timeline.duration_ns + tail,
        seed=seed,
        telemetry=telemetry,
    )
    tracer = telemetry.tracer
    tracer.close_all(machine.sim.now)
    count = write_chrome_trace(path, tracer, machine.sim.now, telemetry=True)
    return count, tracer.dropped


__all__ = [
    "BASE",
    "POLICIES",
    "ChurnRun",
    "ChurnSpec",
    "ChurnStory",
    "export_churn_trace",
    "make_stories",
    "render_churn",
    "run_churn",
    "run_churn_cell",
]
