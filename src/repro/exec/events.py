"""Typed engine events: the stream every sweep emits while it runs.

The :class:`~repro.exec.engine.Engine` narrates execution as a flat
sequence of frozen event dataclasses — the taxonomy is deliberately
small (``PhaseStarted``, ``CellScheduled``, ``CellFinished``,
``CheckpointWritten``, ``Interrupted``, ``Finished``) and every event
serialises to one JSON object with a **stable field order** (``kind``
first, then ``seq``, then declared fields), so an event log is both
grep-able and byte-stable for golden snapshots.

Consumers are *sinks*: any callable taking one event.
:class:`JsonlSink` lives here and appends one JSON line per event (the
run directory's ``events.jsonl``, or ``--events-out``).  The others
read the same stream: :class:`repro.exec.progress.ProgressPrinter`
prints one line per ``CellFinished``,
:class:`repro.ops.status.RunStatus` folds every event into the live
status and the run tallies (the engine calls it at the source, before
any sink), and :class:`repro.ops.metrics.EngineMetricsSink` folds the
engine metrics for exposition.

:func:`validate_events` is the executable contract: tests and the CI
``engine-smoke`` job both call it to assert a log is a well-formed,
monotone, parseable sequence.  ``python -m repro.exec LOG``
(:mod:`repro.exec.cli`) runs the same check from the shell.
"""

from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import (
    IO,
    Any,
    Callable,
    Iterator,
    Mapping,
    Optional,
    Sequence,
    Union,
)

#: phases one engine sweep always runs, in order (DESIGN.md §14)
PHASE_ORDER = ("plan", "probe", "execute", "fold")

#: legal ``CellFinished.outcome`` values: executed, replayed from the
#: result cache, or replayed from a resumed run's checkpoint journal
CELL_OUTCOMES = ("ran", "hit", "resumed")


@dataclass(frozen=True)
class Event:
    """Base event: a monotone per-engine sequence number."""

    kind = "event"  # overridden per subclass (class attr, not a field)

    seq: int

    def to_json(self) -> dict[str, Any]:
        """Stable-order JSON object: kind, seq, then declared fields."""
        doc: dict[str, Any] = {"kind": self.kind}
        for field in dataclasses.fields(self):
            doc[field.name] = getattr(self, field.name)
        return doc


@dataclass(frozen=True)
class PhaseStarted(Event):
    """One engine phase (plan/probe/execute/fold) began."""

    kind = "phase_started"

    phase: str
    stage: str = ""
    #: cells relevant to the phase (planned for plan/probe, pending for
    #: execute, folded for fold)
    cells: int = 0


@dataclass(frozen=True)
class CellScheduled(Event):
    """A pending cell was handed to the work-stealing queue."""

    kind = "cell_scheduled"

    index: int
    label: str
    key: Optional[str] = None
    stage: str = ""


@dataclass(frozen=True)
class CellFinished(Event):
    """A cell's result is known (executed, cache hit, or resumed)."""

    kind = "cell_finished"

    index: int
    total: int
    label: str
    outcome: str  # "ran" | "hit" | "resumed"
    seconds: float
    key: Optional[str] = None
    stage: str = ""
    #: per-cell resource profile (CPU seconds in user/kernel mode and
    #: the executing process's peak RSS) — observability metadata like
    #: ``seconds``, normalised to zero in golden logs; all 0.0 for
    #: cache hits and resumed replays, which execute nothing
    utime_s: float = 0.0
    stime_s: float = 0.0
    max_rss_kb: float = 0.0


@dataclass(frozen=True)
class CheckpointWritten(Event):
    """A completed cell's result is stored; this line is fsynced.

    The run directory's ``events.jsonl`` is its checkpoint journal: a
    resume replays the keys of these records.
    """

    kind = "checkpoint_written"

    key: str
    #: cumulative checkpointed cells over the engine's lifetime
    completed: int
    total: int
    stage: str = ""


@dataclass(frozen=True)
class Interrupted(Event):
    """The sweep stopped early; the run directory's log was fsynced
    first."""

    kind = "interrupted"

    completed: int
    total: int
    reason: str = "keyboard-interrupt"
    stage: str = ""


@dataclass(frozen=True)
class Finished(Event):
    """One sweep completed; counts partition its cells by outcome."""

    kind = "finished"

    cells: int
    ran: int
    hits: int
    resumed: int
    stage: str = ""


#: kind string -> event class (the parse/validation registry)
EVENT_TYPES: dict[str, type[Event]] = {
    cls.kind: cls
    for cls in (
        PhaseStarted,
        CellScheduled,
        CellFinished,
        CheckpointWritten,
        Interrupted,
        Finished,
    )
}

#: signature of an event sink — any callable over events (so a plain
#: ``list.append`` collects a stream)
EventSink = Callable[[Event], None]


def event_from_json(doc: Mapping[str, Any]) -> Event:
    """Rebuild a typed event from its JSON object form."""
    kind = doc.get("kind")
    cls = EVENT_TYPES.get(str(kind))
    if cls is None:
        raise ValueError(f"unknown event kind {kind!r}")
    kwargs = {
        field.name: doc[field.name]
        for field in dataclasses.fields(cls)
        if field.name in doc
    }
    missing = {
        field.name for field in dataclasses.fields(cls)
    } - set(kwargs)
    required = {
        field.name
        for field in dataclasses.fields(cls)
        if field.default is dataclasses.MISSING
        and field.default_factory is dataclasses.MISSING
    }
    if missing & required:
        raise ValueError(
            f"{kind} event missing fields {sorted(missing & required)}"
        )
    return cls(**kwargs)


# ----------------------------------------------------------------------
# sinks
# ----------------------------------------------------------------------
class JsonlSink:
    """One JSON line per event; every line is flushed as written.

    ``append=True`` (the run directory's mode) continues an existing
    log, so a resumed run's events land after the interrupted run's.
    A final line without its newline is the torn write of a killed
    process; it is cut before appending, or the next record would
    merge into it and the log would stop parsing.
    """

    def __init__(
        self, path: Union[str, Path], append: bool = False
    ) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        if append and self.path.exists():
            data = self.path.read_bytes()
            end = data.rfind(b"\n") + 1
            if end < len(data):
                os.truncate(self.path, end)
        self._handle: Optional[IO[str]] = open(
            self.path, "a" if append else "w", encoding="utf-8"
        )

    def __call__(self, event: Event) -> None:
        if self._handle is None:
            return
        self._handle.write(
            json.dumps(event.to_json(), separators=(", ", ": ")) + "\n"
        )
        self._handle.flush()

    def sync(self) -> None:
        """Make every line written so far durable (``fsync``)."""
        if self._handle is not None:
            os.fsync(self._handle.fileno())

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None


# ----------------------------------------------------------------------
# parsing / validation / normalisation
# ----------------------------------------------------------------------
def read_event_log(path: Union[str, Path]) -> list[dict[str, Any]]:
    """Parse an events.jsonl file into raw JSON objects.

    A run killed mid-write (the crash suite SIGKILLs at arbitrary
    points) can leave a truncated final line; that line is dropped
    instead of raising.  Any earlier line that is not a JSON object
    raises a :class:`json.JSONDecodeError` (a ``ValueError``) naming
    the file and the line.
    """
    records: list[dict[str, Any]] = []
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    lines = text.splitlines(keepends=True)
    offset = 0
    for lineno, line in enumerate(lines):
        if line.strip():
            try:
                record = json.loads(line)
                if not isinstance(record, dict):
                    raise json.JSONDecodeError("not an object", line, 0)
            except json.JSONDecodeError as exc:
                if lineno == len(lines) - 1:
                    break
                raise json.JSONDecodeError(
                    f"{path}: malformed event record", text,
                    offset + exc.pos,
                ) from None
            records.append(record)
        offset += len(line)
    return records


def _segments(
    records: Sequence[Mapping[str, Any]],
) -> Iterator[tuple[list[Mapping[str, Any]], bool]]:
    """Split a log into ``(sweep segment, crashed)`` pairs.

    One events.jsonl can hold several sweeps (the CLI's ``all``, the
    fleet's epoch loop, an interrupted run plus its resumption), each
    ending in ``finished``/``interrupted``.  A SIGKILLed sweep never
    writes its terminal event — its truncation is proven instead by
    the *next* record starting a fresh engine lifetime
    (``phase_started(plan)`` with ``seq`` back at 0), so that boundary
    also splits, and the cut-short segment is flagged ``crashed``.
    """
    segment: list[Mapping[str, Any]] = []
    for record in records:
        if (
            segment
            and record.get("kind") == "phase_started"
            and record.get("phase") == "plan"
            and record.get("seq") == 0
        ):
            yield segment, True
            segment = []
        segment.append(record)
        if record.get("kind") in ("finished", "interrupted"):
            yield segment, False
            segment = []
    if segment:
        yield segment, False


def validate_events(
    records: Sequence[Mapping[str, Any]],
    partial: bool = False,
    ring: bool = False,
) -> list[str]:
    """Contract-check an event log; returns problems (empty = valid).

    Enforced per sweep segment:

    * every record parses into a known typed event;
    * ``seq`` is strictly increasing within a segment run (it may reset
      only where a new engine lifetime begins, i.e. at a segment start);
    * the segment opens with ``PhaseStarted(plan)`` and its phases
      appear in plan → probe → execute → fold order;
    * a cell finishes at most once, ``outcome`` is legal, and every
      ``outcome="ran"`` cell was scheduled first;
    * ``CheckpointWritten.completed`` is strictly increasing;
    * the terminal ``Finished`` counts match the observed outcomes.

    ``partial=True`` permits the *last* segment to lack a terminal
    event — the shape a SIGKILLed run leaves behind.

    ``ring=True`` validates a tail of the stream, such as the ops
    plane's ``/events`` replay (``repro.ops``): its ring keeps only the
    last N events, so the **first** segment may be truncated at its
    head — its opener, its ran-requires-scheduled pairing and its
    ``Finished`` count reconciliation are waived (the evidence fell off
    the ring); every later segment is complete and validates fully.
    """
    problems: list[str] = []
    if not records:
        return ["empty event log"]
    segments = list(_segments(records))
    last_seq: Optional[int] = None
    for seg_index, (segment, crashed) in enumerate(segments):
        prefix = f"segment {seg_index}"
        #: the head of a ring dump: possibly truncated from the front
        head = ring and seg_index == 0
        terminal = segment[-1].get("kind") in ("finished", "interrupted")
        # a crashed segment (cut short by the next engine restart) is
        # legal evidence of a kill+resume; a trailing truncation needs
        # the caller to opt in with ``partial``
        if not terminal and not crashed and not head and not (
            partial and seg_index == len(segments) - 1
        ):
            problems.append(f"{prefix}: no terminal event")
        phase_cursor = -1
        scheduled: set[tuple[str, int]] = set()
        finished_cells: set[tuple[str, int]] = set()
        outcomes = {name: 0 for name in CELL_OUTCOMES}
        last_completed: Optional[int] = None
        for pos, record in enumerate(segment):
            where = f"{prefix} record {pos}"
            try:
                event = event_from_json(record)
            except (ValueError, TypeError) as exc:
                problems.append(f"{where}: {exc}")
                continue
            if pos == 0:
                # a ring head may start mid-sweep: no opener requirement
                if not head and (
                    not isinstance(event, PhaseStarted)
                    or event.phase != "plan"
                ):
                    opener = (
                        f"phase_started({event.phase})"
                        if isinstance(event, PhaseStarted)
                        else event.kind
                    )
                    problems.append(
                        f"{where}: segment must open with "
                        f"phase_started(plan), got {opener}"
                    )
                if last_seq is not None and event.seq not in (0, last_seq + 1):
                    problems.append(
                        f"{where}: seq {event.seq} neither continues "
                        f"{last_seq} nor restarts a new engine at 0"
                    )
            elif last_seq is not None and event.seq <= last_seq:
                problems.append(
                    f"{where}: seq {event.seq} not after {last_seq}"
                )
            last_seq = event.seq
            if isinstance(event, PhaseStarted):
                if event.phase not in PHASE_ORDER:
                    problems.append(
                        f"{where}: unknown phase {event.phase!r}"
                    )
                else:
                    cursor = PHASE_ORDER.index(event.phase)
                    if cursor <= phase_cursor:
                        problems.append(
                            f"{where}: phase {event.phase!r} out of order"
                        )
                    phase_cursor = cursor
            elif isinstance(event, CellScheduled):
                scheduled.add((event.stage, event.index))
            elif isinstance(event, CellFinished):
                cell = (event.stage, event.index)
                if event.outcome not in CELL_OUTCOMES:
                    problems.append(
                        f"{where}: illegal outcome {event.outcome!r}"
                    )
                else:
                    outcomes[event.outcome] += 1
                if cell in finished_cells:
                    problems.append(
                        f"{where}: cell {event.index} finished twice"
                    )
                finished_cells.add(cell)
                # a ring head may have evicted the CellScheduled record
                if event.outcome == "ran" and cell not in scheduled and (
                    not head
                ):
                    problems.append(
                        f"{where}: cell {event.index} ran without being "
                        "scheduled"
                    )
            elif isinstance(event, CheckpointWritten):
                if last_completed is not None and (
                    event.completed <= last_completed
                ):
                    problems.append(
                        f"{where}: checkpoint count {event.completed} "
                        f"not after {last_completed}"
                    )
                last_completed = event.completed
            elif isinstance(event, Finished):
                if head:
                    continue  # head truncation dropped early outcomes
                observed = (
                    outcomes["ran"], outcomes["hit"], outcomes["resumed"]
                )
                declared = (event.ran, event.hits, event.resumed)
                if observed != declared:
                    problems.append(
                        f"{where}: finished counts {declared} != observed "
                        f"{observed}"
                    )
                if event.cells != len(finished_cells):
                    problems.append(
                        f"{where}: finished cells={event.cells} != "
                        f"{len(finished_cells)} cell_finished events"
                    )
    return problems


def normalize_events(
    records: Sequence[Mapping[str, Any]],
) -> list[dict[str, Any]]:
    """Strip run-to-run noise for golden snapshots.

    Wall-clock ``seconds`` become 0.0 and content-hash ``key`` values
    become the ``"<key>"`` placeholder (the salt digests every source
    file, so raw keys would churn the golden on any code edit).  Field
    order and everything else is preserved.
    """
    normalised: list[dict[str, Any]] = []
    for record in records:
        copy = dict(record)
        for field in ("seconds", "utime_s", "stime_s", "max_rss_kb"):
            if field in copy:
                copy[field] = 0.0
        if copy.get("key"):
            copy["key"] = "<key>"
        normalised.append(copy)
    return normalised


__all__ = [
    "CELL_OUTCOMES",
    "CellFinished",
    "CellScheduled",
    "CheckpointWritten",
    "EVENT_TYPES",
    "Event",
    "EventSink",
    "Finished",
    "Interrupted",
    "JsonlSink",
    "PHASE_ORDER",
    "PhaseStarted",
    "event_from_json",
    "normalize_events",
    "read_event_log",
    "validate_events",
]
