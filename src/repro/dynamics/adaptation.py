"""Online-adaptation metrics: how fast does the scheduler catch up?

For every churn event the tracker answers four questions:

* **detection latency** — how long until the manager's vCPU typing
  first differs from what it believed just before the event (vTRS has
  *seen* the change);
* **convergence** — how many decision periods until the pool-plan
  signature stops changing (the layout has *stabilised*), and whether
  a quiet decision was observed after the last change;
* **migration cost** — vCPU pool moves charged during the event's
  window;
* **degraded-window performance** — aggregate instruction throughput
  and mean IO latency between this event and the next.

The tracker snapshots at the measurement start, at every event
boundary (the engine calls :meth:`AdaptationTracker.on_event` *before*
applying the event) and once at the end, so event ``k``'s window is
``snapshot[k+1] .. snapshot[k+2]``.  Counters of shut-down VMs remain
readable: the tracker keeps direct references to thread lists and
latency lists, which outlive their VM's retirement.

For a fixed-quantum baseline (no manager) the scheduler-side metrics
are ``None`` — rendered as ``-`` — while the window performance and
migration counts remain comparable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.workloads.base import Workload

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.aql import AqlScheduler
    from repro.dynamics.events import ChurnEvent
    from repro.hypervisor.machine import Machine


@dataclass(frozen=True)
class Snapshot:
    """Counter totals at one instant (sorted-by-name tuples)."""

    time_ns: int
    migrations_total: int
    instructions: tuple[tuple[str, float], ...]
    latency_counts: tuple[tuple[str, int], ...]


@dataclass(frozen=True)
class AdaptationRecord:
    """Per-event adaptation metrics over the event's window."""

    event: str
    time_ms: float
    window_ms: float
    #: ms from the event to the first decision whose typing differs
    #: from the pre-event typing; None = typing never changed (or no
    #: manager)
    detection_ms: Optional[float]
    #: decision periods until the last plan change in the window;
    #: 0 = the existing plan already fit
    convergence_periods: Optional[int]
    #: True when at least one quiet (unchanged) decision followed the
    #: last plan change inside the window
    stable: Optional[bool]
    migrations: int
    #: aggregate instructions retired per millisecond of window
    throughput_ipms: float
    io_latency_ms: Optional[float]


class AdaptationTracker:
    """Snapshots machine/workload counters around churn events."""

    def __init__(
        self,
        machine: "Machine",
        workloads: dict[str, Workload],
        manager: Optional["AqlScheduler"] = None,
    ):
        self.machine = machine
        self.workloads = workloads
        self.manager = manager
        self.snapshots: list[Snapshot] = []
        self.events: list["ChurnEvent"] = []
        self._threads: dict[str, list] = {}
        self._latencies: dict[str, list[float]] = {}

    def snapshot(self) -> Snapshot:
        """Record counter totals now (with exact integration)."""
        self.machine.sync()
        instructions: list[tuple[str, float]] = []
        latency_counts: list[tuple[str, int]] = []
        for name in sorted(self.workloads):
            workload = self.workloads[name]
            threads = self._threads.get(name)
            if threads is None and workload.vm is not None:
                guest = workload.vm.guest
                if guest is not None:
                    threads = self._threads[name] = guest.threads
            total = (
                float(sum(t.instructions_retired for t in threads))
                if threads
                else 0.0
            )
            instructions.append((name, total))
            latencies = getattr(workload, "latencies_ns", None)
            if latencies is not None:
                self._latencies[name] = latencies
                latency_counts.append((name, len(latencies)))
        snap = Snapshot(
            time_ns=self.machine.sim.now,
            migrations_total=self.machine.migrations_total,
            instructions=tuple(instructions),
            latency_counts=tuple(latency_counts),
        )
        self.snapshots.append(snap)
        return snap

    def on_event(self, event: "ChurnEvent") -> None:
        """ChurnEngine hook: boundary snapshot before the event applies."""
        self.events.append(event)
        self.snapshot()

    # ------------------------------------------------------------------
    # window analysis
    # ------------------------------------------------------------------
    def window_latencies(self, lo: Snapshot, hi: Snapshot) -> list[float]:
        """All IO latencies recorded between two snapshots."""
        lo_counts = dict(lo.latency_counts)
        values: list[float] = []
        for name, hi_count in hi.latency_counts:
            start = lo_counts.get(name, 0)
            values.extend(self._latencies[name][start:hi_count])
        return values


def build_records(tracker: AdaptationTracker) -> list[AdaptationRecord]:
    """One :class:`AdaptationRecord` per fired event.

    Requires the snapshot protocol: one snapshot before arming, one per
    event (via ``on_event``) and one after the run.
    """
    snaps = tracker.snapshots
    events = tracker.events
    if len(snaps) != len(events) + 2:
        raise ValueError(
            f"snapshot protocol violated: {len(events)} events need "
            f"{len(events) + 2} snapshots, got {len(snaps)}"
        )
    log = tracker.manager.decision_log if tracker.manager is not None else None
    records: list[AdaptationRecord] = []
    for k, event in enumerate(events):
        lo, hi = snaps[k + 1], snaps[k + 2]
        window = hi.time_ns - lo.time_ns
        lo_instr = dict(lo.instructions)
        throughput = sum(
            total - lo_instr.get(name, 0.0) for name, total in hi.instructions
        )
        latencies = tracker.window_latencies(lo, hi)
        io_latency_ms = (
            sum(latencies) / len(latencies) / 1e6 if latencies else None
        )

        detection_ms: Optional[float] = None
        convergence: Optional[int] = None
        stable: Optional[bool] = None
        if log is not None:
            in_window = [
                d for d in log if lo.time_ns < d.time_ns <= hi.time_ns
            ]
            baseline: tuple = ()
            for d in log:
                if d.time_ns <= lo.time_ns and d.input_types:
                    baseline = d.input_types
            for d in in_window:
                if d.input_types and d.input_types != baseline:
                    detection_ms = (d.time_ns - lo.time_ns) / 1e6
                    break
            changed = [i for i, d in enumerate(in_window) if d.changed]
            if changed:
                convergence = changed[-1] + 1
                stable = changed[-1] < len(in_window) - 1
            else:
                convergence = 0
                stable = True

        records.append(
            AdaptationRecord(
                event=event.describe(),
                time_ms=lo.time_ns / 1e6,
                window_ms=window / 1e6,
                detection_ms=detection_ms,
                convergence_periods=convergence,
                stable=stable,
                migrations=hi.migrations_total - lo.migrations_total,
                throughput_ipms=throughput / max(window / 1e6, 1e-9),
                io_latency_ms=io_latency_ms,
            )
        )
    return records


__all__ = [
    "AdaptationRecord",
    "AdaptationTracker",
    "Snapshot",
    "build_records",
]
