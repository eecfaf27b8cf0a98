"""Export a run's telemetry spans to Chrome's ``trace_event`` format.

The output loads in ``chrome://tracing`` / https://ui.perfetto.dev.
The machine process (pid 0) has one track per pCPU (tid), vCPU
occupancy as complete ("X") slices rebuilt from the quantum-slice
spans by :func:`repro.metrics.timeline.build_timeline`, and the
churn/scheduler milestones — pool-plan installs, VM shutdowns, pCPU
faults and every churn event — as global instant ("i") events, so
adaptation lag is literally visible as the gap between the instant
marker and the layout change on the tracks.

Every span also renders in a second process (pid 1, "telemetry"):
one tid per span track (``pcpu0..N``, ``aql``, ``engine``,
``machine``, ``churn``), begin/end spans as complete ("X") slices
and zero-duration markers as thread-scoped instants, so quantum
slices line up under the vTRS periods and AQL decisions that
produced them.

The tracer keeps at most ``max_spans`` completed spans; the document
records how many it dropped (``otherData.spans_dropped``), since the
tail of every track is missing when that is not zero.

All timestamps are microseconds (the trace_event unit); the simulator
runs in integer nanoseconds, so slices keep sub-µs precision via
fractional ``ts``/``dur``.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Union

from repro.metrics.timeline import build_timeline

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.telemetry import SpanTracer

#: pid of the telemetry-span process in the exported document (the
#: machine timeline owns pid 0)
TELEMETRY_PID = 1

#: span tracks whose zero-duration markers are machine milestones
MILESTONE_TRACKS = ("machine", "churn")


def chrome_trace_events(tracer: "SpanTracer", end_time: int) -> list[dict]:
    """The machine process (pid 0) of one run: pCPU occupancy from the
    quantum slices, global instants from the ``machine`` and ``churn``
    milestones (a churn marker is named by its detail, as the churn
    tables print it)."""
    timeline = build_timeline(tracer, end_time)
    events: list[dict] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 0,
            "tid": 0,
            "args": {"name": "machine"},
        }
    ]
    for pcpu in sorted({i.pcpu for i in timeline.intervals}):
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 0,
                "tid": pcpu,
                "args": {"name": f"pCPU{pcpu}"},
            }
        )
    for interval in timeline.intervals:
        events.append(
            {
                "name": interval.vcpu,
                "cat": "vcpu",
                "ph": "X",
                "ts": interval.start / 1000.0,
                "dur": interval.duration / 1000.0,
                "pid": 0,
                "tid": interval.pcpu,
            }
        )
    for span in tracer.spans():
        if span.track not in MILESTONE_TRACKS or span.end_ns != span.start_ns:
            continue
        name, args = span.name, span.args
        if span.track == "churn":
            name = str(args["detail"])
            args = {"event": span.name.partition(":")[2], "detail": name}
        events.append(
            {
                "name": name,
                "cat": "churn",
                "ph": "i",
                "s": "g",  # global scope: a full-height marker line
                "ts": span.start_ns / 1000.0,
                "pid": 0,
                "tid": 0,
                "args": {k: _jsonable(v) for k, v in args.items()},
            }
        )
    return events


def _jsonable(value: object) -> Union[str, int, float, bool, None]:
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    return str(value)


def span_trace_events(tracer: "SpanTracer") -> list[dict]:
    """Telemetry spans as trace events (own process, one tid per track)."""
    tracks = {track: tid for tid, track in enumerate(sorted(tracer.tracks()))}
    events: list[dict] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": TELEMETRY_PID,
            "tid": 0,
            "args": {"name": "telemetry"},
        }
    ]
    for track, tid in tracks.items():
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": TELEMETRY_PID,
                "tid": tid,
                "args": {"name": track},
            }
        )
    for span in tracer.spans():
        args = {k: _jsonable(v) for k, v in sorted(span.args.items())}
        args["span_id"] = span.span_id
        if span.parent_id is not None:
            args["parent_id"] = span.parent_id
        event = {
            "name": span.name,
            "cat": span.category,
            "ts": span.start_ns / 1000.0,
            "pid": TELEMETRY_PID,
            "tid": tracks[span.track],
            "args": args,
        }
        if span.end_ns == span.start_ns:
            event["ph"] = "i"
            event["s"] = "t"  # thread scope: a marker on its own track
        else:
            event["ph"] = "X"
            event["dur"] = span.duration_ns / 1000.0
        events.append(event)
    return events


def to_chrome_trace(tracer: "SpanTracer", end_time: int) -> dict:
    """The document: the machine timeline, then every span as pid 1."""
    return {
        "traceEvents": (
            chrome_trace_events(tracer, end_time) + span_trace_events(tracer)
        ),
        "displayTimeUnit": "ms",
        "otherData": {"spans_dropped": tracer.dropped},
    }


def write_chrome_trace(path: str, tracer: "SpanTracer", end_time: int) -> int:
    """Write the JSON document; returns the number of trace events."""
    doc = to_chrome_trace(tracer, end_time)
    with open(path, "w") as fh:
        json.dump(doc, fh, separators=(",", ":"))
        fh.write("\n")
    return len(doc["traceEvents"])


__all__ = [
    "MILESTONE_TRACKS",
    "TELEMETRY_PID",
    "chrome_trace_events",
    "span_trace_events",
    "to_chrome_trace",
    "write_chrome_trace",
]
