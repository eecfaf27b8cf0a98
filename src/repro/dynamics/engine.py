"""The churn engine: arms a timeline and applies events to a machine.

The engine owns the *mechanism* of churn: each event on the timeline
is scheduled at its absolute virtual time; when it fires, the engine
snapshots the world for the adaptation tracker (``on_event`` runs
*before* the event is applied, so the probe sees the pre-event state
at the event boundary), then mutates the machine — boots or tears down
VMs, swaps workload modes, spikes IO load, fails or revives pCPUs —
and records what it did.

Booted VMs are placed in the least-loaded pool that still overlaps the
scenario's confinement (``allowed_pcpus``), so hot-adds never escape
onto cores the experiment reserved — the policy's next re-clustering
re-places them anyway.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional, Sequence

from repro.dynamics.events import (
    ChurnEvent,
    ChurnTimeline,
    LoadSpike,
    PcpuOffline,
    PcpuOnline,
    PhaseChange,
    VmBoot,
    VmShutdown,
)
from repro.dynamics.workload import SwitchableWorkload
from repro.workloads.base import Workload

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.hardware.topology import PCpu
    from repro.hypervisor.machine import Machine
    from repro.hypervisor.pools import CpuPool
    from repro.hypervisor.vm import VM


@dataclass(frozen=True)
class AppliedEvent:
    """One event the engine actually executed, with its fire time."""

    time_ns: int
    event: ChurnEvent


class ChurnEngine:
    """Inject a :class:`ChurnTimeline` into a running machine."""

    def __init__(
        self,
        machine: "Machine",
        timeline: ChurnTimeline,
        workloads: dict[str, Workload],
        allowed_pcpus: Optional[Sequence["PCpu"]] = None,
        on_event: Optional[Callable[[ChurnEvent], None]] = None,
        clients: int = 8,
    ):
        self.machine = machine
        self.timeline = timeline
        #: name -> workload; shared with the caller and extended as
        #: VMs boot (shut-down VMs stay registered so post-mortem
        #: metrics still reach their counters)
        self.workloads = workloads
        self.allowed_pcpus = (
            list(allowed_pcpus) if allowed_pcpus is not None else None
        )
        self.on_event = on_event
        self.clients = clients
        self.applied: list[AppliedEvent] = []
        self._spike_base: dict[str, int] = {}
        self._armed = False

    # ------------------------------------------------------------------
    # arming
    # ------------------------------------------------------------------
    def arm(self, origin_ns: Optional[int] = None) -> None:
        """Schedule every timeline event at ``origin + at_ns``.

        Events are scheduled in tuple order, and the simulator fires
        same-instant events in scheduling order, so events sharing a
        timestamp fire in tuple order — the documented tie-break
        :class:`~repro.dynamics.events.ChurnTimeline` promises.
        """
        if self._armed:
            raise RuntimeError("timeline already armed")
        self._armed = True
        origin = self.machine.sim.now if origin_ns is None else origin_ns
        for event in self.timeline.events:
            self.machine.sim.at(
                origin + event.at_ns,
                lambda e=event: self._fire(e),
                f"churn:{event.kind}",
            )

    def _fire(self, event: ChurnEvent) -> None:
        if self.on_event is not None:
            self.on_event(event)  # pre-event boundary snapshot
        handler = getattr(self, f"_apply_{event.kind}")
        handler(event)
        self.applied.append(AppliedEvent(self.machine.sim.now, event))
        telemetry = self.machine.telemetry
        if telemetry.enabled:
            telemetry.registry.counter("churn_events", kind=event.kind).inc()
            telemetry.tracer.instant(
                self.machine.sim.now,
                f"churn:{event.kind}",
                track="churn",
                detail=event.describe(),
            )

    # ------------------------------------------------------------------
    # event handlers
    # ------------------------------------------------------------------
    def _apply_vm_boot(self, event: VmBoot) -> None:
        if event.name in self.workloads:
            raise ValueError(f"a VM named {event.name!r} already exists")
        pool = self._placement_pool()
        vm = self.machine.new_vm(event.name, event.vcpus, pool=pool)
        workload = SwitchableWorkload(
            event.name, mode=event.mode, clients=self.clients
        )
        workload.install(self.machine, vm)
        workload.begin_measurement()
        self.workloads[event.name] = workload
        self.machine.boot_vm(vm)

    def _apply_vm_shutdown(self, event: VmShutdown) -> None:
        self.machine.shutdown_vm(self._find_vm(event.name))

    def _apply_phase_change(self, event: PhaseChange) -> None:
        workload = self.workloads[event.name]
        set_mode = getattr(workload, "set_mode", None)
        if set_mode is None:
            raise TypeError(
                f"{event.name}: {type(workload).__name__} cannot change phase"
            )
        set_mode(event.mode)

    def _apply_load_spike(self, event: LoadSpike) -> None:
        workload = self.workloads[event.name]
        if not hasattr(workload, "think_ns"):
            raise TypeError(
                f"{event.name}: {type(workload).__name__} has no arrival rate"
            )
        if event.name not in self._spike_base:
            self._spike_base[event.name] = workload.think_ns
        workload.think_ns = max(
            1, int(self._spike_base[event.name] / event.factor)
        )
        self.machine.sim.after(
            event.duration_ns,
            lambda name=event.name: self._end_spike(name),
            "churn:spike-end",
        )

    def _end_spike(self, name: str) -> None:
        # overlapping spikes on one workload: the first expiry restores
        base = self._spike_base.pop(name, None)
        if base is None:
            return
        workload = self.workloads.get(name)
        if workload is not None:
            workload.think_ns = base

    def _apply_pcpu_offline(self, event: PcpuOffline) -> None:
        self.machine.offline_pcpu(self._pcpu(event.cpu_id))

    def _apply_pcpu_online(self, event: PcpuOnline) -> None:
        self.machine.online_pcpu(self._pcpu(event.cpu_id))

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    def _find_vm(self, name: str) -> "VM":
        for vm in self.machine.vms:
            if vm.name == name:
                return vm
        raise ValueError(f"no live VM named {name!r}")

    def _pcpu(self, cpu_id: int) -> "PCpu":
        for pcpu in self.machine.topology.pcpus:
            if pcpu.cpu_id == cpu_id:
                return pcpu
        raise ValueError(f"no pCPU with id {cpu_id}")

    def _placement_pool(self) -> "CpuPool":
        allowed = (
            set(self.allowed_pcpus) if self.allowed_pcpus is not None else None
        )
        candidates = [
            pool
            for pool in self.machine.pools
            if pool.pcpus
            and (allowed is None or any(p in allowed for p in pool.pcpus))
        ]
        if not candidates:
            candidates = [p for p in self.machine.pools if p.pcpus]
        if not candidates:
            raise RuntimeError("no pool with an online pCPU to boot into")
        return min(candidates, key=lambda p: (p.load, p.pool_id))


__all__ = ["AppliedEvent", "ChurnEngine"]
