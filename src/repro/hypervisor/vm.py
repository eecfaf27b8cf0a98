"""Virtual machines and virtual CPUs.

A :class:`VCpu` carries everything the schedulers and monitors need:
Credit-scheduler state (credit balance, priority, pool membership),
execution-engine state (current segment), and the per-vCPU monitoring
counters vTRS reads (PMU, PLE, IO-event count).
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Callable, Optional

from repro.hardware.pmu import PmuCounters
from repro.hardware.ple import PleDetector

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.guest.os import GuestOS
    from repro.guest.phases import Compute
    from repro.guest.thread import GuestThread
    from repro.hardware.topology import PCpu
    from repro.hypervisor.event_channel import EventPort
    from repro.hypervisor.pools import CpuPool
    from repro.sim.engine import Event


class VCpuState(enum.Enum):
    RUNNING = "running"  # holds a pCPU
    RUNNABLE = "runnable"  # queued on a run queue
    BLOCKED = "blocked"  # no runnable guest thread


class Priority(enum.IntEnum):
    """Credit-scheduler priorities; lower value = served first."""

    BOOST = 0
    UNDER = 1
    OVER = 2


class VCpu:
    """One virtual CPU."""

    __slots__ = (
        "vcpu_id",
        "vm",
        "index",
        "state",
        "priority",
        "credit",
        "pool",
        "pcpu",
        "last_pcpu",
        "exhausted_last_quantum",
        "quantum_override",
        "throttled",
        "segment_start",
        "segment_kind",
        "current_thread",
        "completion_event",
        "quantum_event",
        "completion_fn",
        "expiry_fn",
        "armed_thread",
        "armed_phase",
        "pmu",
        "ple",
        "io_events",
        "run_ns_total",
        "run_since_tick",
        "run_since_acct",
        "dispatch_count",
        "migrations",
        "steals",
        "woke_ns",
    )

    def __init__(self, vcpu_id: int, vm: "VM", index: int) -> None:
        self.vcpu_id = vcpu_id  # globally unique
        self.vm = vm
        self.index = index  # position within the VM

        # -- scheduler state ------------------------------------------
        self.state = VCpuState.BLOCKED
        self.priority = Priority.UNDER
        # fresh vCPUs start with a small positive balance (Xen boots
        # VMs in UNDER), so BOOST works before the first accounting
        self.credit = 100.0
        self.pool: Optional["CpuPool"] = None
        self.pcpu: Optional["PCpu"] = None
        self.last_pcpu: Optional["PCpu"] = None
        #: set when the vCPU's last descheduling was a forced quantum
        #: expiry; such vCPUs are not BOOST-eligible on their next wake
        #: (the rule the paper blames for BOOST failing on heterogeneous
        #: workloads).
        self.exhausted_last_quantum = False
        #: per-vCPU quantum override (used by the vSlicer baseline);
        #: None means "use the pool's quantum".
        self.quantum_override: Optional[int] = None
        #: parked because the VM exceeded its cap this accounting
        #: period; cleared (and re-queued) at the next accounting.
        self.throttled = False

        # -- execution-engine state ------------------------------------
        self.segment_start: int = 0
        self.segment_kind: Optional[str] = None  # 'compute' | 'spin'
        self.current_thread: Optional["GuestThread"] = None
        self.completion_event: Optional["Event"] = None
        self.quantum_event: Optional["Event"] = None
        #: the completion and quantum-expiry callbacks, built once by the
        #: machine: arming either event must not allocate a callable
        self.completion_fn: Optional[Callable[[], None]] = None
        self.expiry_fn: Optional[Callable[[], None]] = None
        #: the (thread, phase) the live ``completion_event`` was armed
        #: for; its callback reads them back for the stale check
        self.armed_thread: Optional["GuestThread"] = None
        self.armed_phase: Optional["Compute"] = None

        # -- monitoring counters (what vTRS reads) ---------------------
        self.pmu = PmuCounters()
        self.ple = PleDetector()
        self.io_events = 0.0

        # -- accounting -------------------------------------------------
        self.run_ns_total = 0.0
        self.run_since_tick = 0.0
        self.run_since_acct = 0.0  # for cap enforcement
        self.dispatch_count = 0
        #: pool-to-pool moves caused by re-clustering (plan changes)
        self.migrations = 0
        #: intra-pool work-stealing moves between sibling pCPUs
        self.steals = 0
        #: when telemetry is on: the last wake not yet dispatched, put
        #: on the next quantum-slice span as its ``woke_ns`` arg
        self.woke_ns: Optional[int] = None

    @property
    def name(self) -> str:
        return f"{self.vm.name}/v{self.index}"

    def __repr__(self) -> str:
        return f"<vCPU {self.name} {self.state.value} {self.priority.name}>"


class VM:
    """A virtual machine: vCPUs plus the guest OS running in them."""

    def __init__(
        self,
        vm_id: int,
        name: str,
        num_vcpus: int,
        weight: int = 256,
        cap: Optional[int] = None,
        first_vcpu_id: int = 0,
    ):
        if num_vcpus <= 0:
            raise ValueError("a VM needs at least one vCPU")
        if weight <= 0:
            raise ValueError("weight must be positive")
        if cap is not None and cap <= 0:
            raise ValueError("cap must be positive when set")
        self.vm_id = vm_id
        self.name = name
        self.weight = weight
        self.cap = cap  # percent of one pCPU (Credit semantics); None = uncapped
        self.vcpus = [
            VCpu(first_vcpu_id + i, self, i) for i in range(num_vcpus)
        ]
        self.guest: Optional["GuestOS"] = None  # attached by Machine.new_vm
        #: per-VM spin-lock notification count (paravirtual fallback);
        #: PLE counts live on each vCPU.
        self.spin_notifications = 0.0
        #: False once Machine.shutdown_vm ran: stale timer wakes and
        #: event posts aimed at this VM must be dropped, not delivered.
        self.alive = True
        #: every event-channel port bound to this VM's vCPUs, so
        #: shutdown can close them all (registered by Machine.new_port).
        self.ports: list["EventPort"] = []

    def __repr__(self) -> str:
        return f"<VM {self.name} x{len(self.vcpus)}>"


__all__ = ["VM", "VCpu", "VCpuState", "Priority"]
