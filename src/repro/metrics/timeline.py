"""Schedule-timeline analysis from the machine's telemetry spans.

With telemetry on (``Machine(telemetry=Telemetry(enabled=True))``),
every dispatch opens a ``quantum_slice`` span on track ``pcpu<n>``,
named after the vCPU, and every deschedule closes it.
:func:`build_timeline` turns those slices into per-vCPU run
intervals, from which :func:`scheduling_delays` extracts the
wake-to-dispatch latencies (the quantity the paper's IO analysis is
about) and :func:`render_gantt` draws a terminal Gantt chart of who
held each pCPU when — invaluable when debugging scheduler changes.
Slices the tracer dropped past its ``max_spans`` cap are missing from
the timeline; ``SpanTracer.dropped`` counts them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.telemetry import SpanTracer


@dataclass(frozen=True)
class RunInterval:
    """One continuous stretch of a vCPU holding a pCPU."""

    vcpu: str
    pcpu: int
    start: int
    end: int

    @property
    def duration(self) -> int:
        return self.end - self.start


@dataclass
class Timeline:
    intervals: list[RunInterval] = field(default_factory=list)
    #: vcpu -> list of (wake time, following dispatch time)
    wake_to_dispatch: dict[str, list[tuple[int, int]]] = field(
        default_factory=dict
    )
    end_time: int = 0

    def intervals_of(self, vcpu: str) -> list[RunInterval]:
        return [i for i in self.intervals if i.vcpu == vcpu]

    def busy_fraction(self, pcpu: int) -> float:
        if self.end_time <= 0:
            return 0.0
        busy = sum(i.duration for i in self.intervals if i.pcpu == pcpu)
        return busy / self.end_time


def build_timeline(tracer: "SpanTracer", end_time: int) -> Timeline:
    """Run intervals and wake latencies from the quantum-slice spans.

    A slice still open at ``end_time`` runs to it.  A slice that
    follows a wake carries the wake time as its ``woke_ns`` arg.
    """
    timeline = Timeline(end_time=end_time)
    for span in tracer.spans() + tracer.open_spans():
        if span.category != "quantum_slice":
            continue
        end = end_time if span.end_ns is None else span.end_ns
        timeline.intervals.append(
            RunInterval(span.name, int(span.track[4:]), span.start_ns, end)
        )
        woke = span.args.get("woke_ns")
        if isinstance(woke, int):
            timeline.wake_to_dispatch.setdefault(span.name, []).append(
                (woke, span.start_ns)
            )
    timeline.intervals.sort(key=lambda i: (i.start, i.pcpu))
    return timeline


def scheduling_delays(timeline: Timeline, vcpu: str) -> list[int]:
    """Wake-to-dispatch latencies for one vCPU (ns)."""
    return [
        dispatch - wake
        for wake, dispatch in timeline.wake_to_dispatch.get(vcpu, [])
    ]


def render_gantt(
    timeline: Timeline,
    start: int = 0,
    end: Optional[int] = None,
    width: int = 72,
) -> str:
    """A terminal Gantt chart: one row per pCPU, one glyph per slot.

    Each vCPU gets a stable letter; '.' is idle.  Slots with several
    occupants (finer-grained switching than the resolution) show the
    one holding the slot longest.
    """
    if end is None:
        end = timeline.end_time
    if end <= start:
        raise ValueError("empty window")
    pcpus = sorted({i.pcpu for i in timeline.intervals})
    vcpus = sorted({i.vcpu for i in timeline.intervals})
    alphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789"
    glyph = {name: alphabet[i % len(alphabet)] for i, name in enumerate(vcpus)}
    span = end - start
    slot = span / width
    lines = []
    for pcpu in pcpus:
        per_slot: list[dict[str, float]] = [dict() for _ in range(width)]
        for interval in timeline.intervals:
            if interval.pcpu != pcpu or interval.end <= start or interval.start >= end:
                continue
            # exact integer slot indices: times are integer ns, and the
            # float path (int(t / slot)) both truncates toward zero and
            # loses whole nanoseconds once t exceeds 2**53
            first = max(0, (interval.start - start) * width // span)
            last = min(width - 1, (interval.end - start - 1) * width // span)
            for index in range(first, last + 1):
                slot_start = start + index * slot
                slot_end = slot_start + slot
                overlap = min(interval.end, slot_end) - max(
                    interval.start, slot_start
                )
                if overlap > 0:
                    per_slot[index][interval.vcpu] = (
                        per_slot[index].get(interval.vcpu, 0.0) + overlap
                    )
        row = []
        for index in range(width):
            if per_slot[index]:
                best = max(per_slot[index], key=per_slot[index].get)
                row.append(glyph[best])
            else:
                row.append(".")
        lines.append(f"pCPU{pcpu:<3d} |{''.join(row)}|")
    legend = "  ".join(f"{glyph[name]}={name}" for name in vcpus)
    return "\n".join(lines) + "\n" + legend


__all__ = [
    "RunInterval",
    "Timeline",
    "build_timeline",
    "scheduling_delays",
    "render_gantt",
]
