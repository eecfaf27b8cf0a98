"""The discrete-event simulation core.

A :class:`Simulator` owns a virtual clock (integer nanoseconds) and a
priority queue of :class:`Event` objects.  Components schedule callbacks
with :meth:`Simulator.at` / :meth:`Simulator.after`; the main loop pops
events in ``(time, sequence)`` order, so two events scheduled for the
same instant fire in scheduling order — this tie-break rule is what makes
whole-system runs deterministic.

Events are cancellable: cancelling marks the event dead and the loop
skips it (lazy deletion, the standard heapq idiom), which is how the
scheduler retracts a pending quantum-expiry when a vCPU blocks early.

The queue is a binary heap of ``(time, seq, event)`` tuples.  Tuple
entries keep every comparison at C level; heapifying :class:`Event`
objects would pay a Python ``__lt__`` call per comparison.  The
differential suite in ``tests/test_engine_equivalence.py`` pins the
fire order against a sorted-list reference (DESIGN.md §9).
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import TYPE_CHECKING, Callable, Optional

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.telemetry import Telemetry


class SimulationError(RuntimeError):
    """Raised when the engine detects an impossible state.

    Examples: scheduling an event in the past, or running the clock
    backwards.  These always indicate a bug in a component, never a
    legitimate runtime condition, so they are not meant to be caught.
    """


class Event:
    """A scheduled callback.  Create via ``Simulator.at``/``after`` only.

    The public surface is :meth:`cancel` and the read-only attributes
    ``time``, ``label`` and ``cancelled``.
    """

    __slots__ = ("time", "seq", "fn", "label", "cancelled")

    def __init__(self, time: int, seq: int, fn: Callable[[], None], label: str) -> None:
        self.time = time
        self.seq = seq
        self.fn = fn
        self.label = label
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent."""
        self.cancelled = True

    def __lt__(self, other: "Event") -> bool:
        # Queue entries are (time, seq, event) tuples whose unique seq
        # means this is never reached by the kernel; kept so external
        # code can still sort Event objects.
        return (self.time, self.seq) < (other.time, other.seq)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = " cancelled" if self.cancelled else ""
        return f"<Event {self.label!r} @{self.time}{state}>"


class Simulator:
    """Deterministic event loop over an integer-nanosecond virtual clock."""

    __slots__ = ("now", "telemetry", "_heap", "_seq", "_events_fired", "_running")

    def __init__(self) -> None:
        self.now: int = 0
        #: optional observability sink; spans are emitted only around
        #: whole run_until calls (never inside the pop loop), so a
        #: disabled — or absent — Telemetry costs one None check per run
        self.telemetry: Optional["Telemetry"] = None
        #: (time, seq, Event) tuples — C-level comparisons, no __lt__
        self._heap: list[tuple[int, int, Event]] = []
        self._seq: int = 0
        self._events_fired: int = 0
        self._running: bool = False

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def at(self, time: int, fn: Callable[[], None], label: str = "") -> Event:
        """Schedule ``fn`` to run at absolute virtual time ``time``.

        ``time`` must be integral: the clock is integer nanoseconds, and
        silently truncating a float would let two components desync on
        sub-nanosecond drift.  Integral floats (``5.0``) are accepted;
        NaN and infinities are rejected like any other non-integral time.
        """
        itime = whole_ns(time, "time", label)
        if itime < self.now:
            raise SimulationError(
                f"cannot schedule {label!r} at {itime} < now {self.now}"
            )
        seq = self._seq
        self._seq = seq + 1
        event = Event(itime, seq, fn, label)
        heappush(self._heap, (itime, seq, event))
        return event

    def after(self, delay: int, fn: Callable[[], None], label: str = "") -> Event:
        """Schedule ``fn`` to run ``delay`` nanoseconds from now.

        Like :meth:`at`, rejects negative, non-integral and non-finite
        delays instead of truncating them.  This is the hot scheduling
        call (every quantum, tick and completion), so it pushes directly
        rather than re-entering :meth:`at`, and a plain ``int`` delay
        skips the conversion.
        """
        if delay < 0:
            raise SimulationError(f"negative delay {delay} for {label!r}")
        if type(delay) is not int:
            try:
                idelay = int(delay)
            except (ValueError, OverflowError):  # NaN, +inf
                raise _non_integral("delay", delay, label) from None
            if idelay != delay:
                raise _non_integral("delay", delay, label)
            delay = idelay
        time = self.now + delay
        seq = self._seq
        self._seq = seq + 1
        event = Event(time, seq, fn, label)
        heappush(self._heap, (time, seq, event))
        return event

    # ------------------------------------------------------------------
    # running
    # ------------------------------------------------------------------
    def run_until(self, end_time: int) -> None:
        """Fire events in order until the clock reaches ``end_time``.

        The clock is left exactly at ``end_time`` even if the queue runs
        dry earlier, so periodic components can be resumed by a later
        ``run_until`` call.  Like :meth:`at`, ``end_time`` must be
        integral: an integral float lands on the integer clock, and NaN,
        infinities and fractions raise instead of leaving a non-integer
        (or unreachable) clock behind.
        """
        end_time = whole_ns(end_time, "end time", "run_until")
        if end_time < self.now:
            raise SimulationError(f"run_until({end_time}) is in the past")
        if self._running:
            raise SimulationError("re-entrant run_until")
        self._running = True
        # telemetry spans bracket whole run_until calls, outside the pop
        # loop — the loop itself stays untouched by observability
        telemetry = self.telemetry
        span = None
        if telemetry is not None and telemetry.enabled:
            span = telemetry.tracer.begin(
                self.now, "run_until", track="engine", category="engine",
                end_time=end_time,
            )
        # hot loop: heap ops and the fired counter live in locals; the
        # counter is synced back in the finally block so events_fired is
        # exact on every exit path (including a raising callback)
        start_fired = self._events_fired
        fired = start_fired
        heap = self._heap
        pop = heappop
        try:
            while heap and heap[0][0] <= end_time:
                time, _, event = pop(heap)
                if event.cancelled:
                    continue
                self.now = time
                fired += 1
                event.fn()
            self.now = end_time
        finally:
            self._events_fired = fired
            self._running = False
            if span is not None and telemetry is not None:
                telemetry.tracer.end(
                    self.now, span, events_fired=fired - start_fired
                )
                telemetry.registry.gauge("engine_events_fired").set(
                    float(fired)
                )

    def step(self) -> Optional[Event]:
        """Fire the single next pending event; return it (None if empty).

        Test helper — production code uses :meth:`run_until`.  Like
        :meth:`run_until` it refuses to re-enter a running loop: a
        callback stepping the engine would corrupt the clock invariant.
        """
        if self._running:
            raise SimulationError("re-entrant step")
        self._running = True
        try:
            heap = self._heap
            while heap:
                time, _, event = heappop(heap)
                if event.cancelled:
                    continue
                self.now = time
                self._events_fired += 1
                event.fn()
                return event
            return None
        finally:
            self._running = False

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Number of live (non-cancelled) events still queued."""
        return sum(1 for _, _, e in self._heap if not e.cancelled)

    @property
    def events_fired(self) -> int:
        """Total events executed since construction."""
        return self._events_fired

    def peek_time(self) -> Optional[int]:
        """Time of the next live event, or None if the queue is empty."""
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heappop(heap)
        return heap[0][0] if heap else None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Simulator now={self.now} pending={self.pending}>"


def whole_ns(value: float, what: str, label: str) -> int:
    """``value`` as an int, or the clock's error if it is not integral.

    Integral floats (``5.0``) are accepted; fractions, NaN and
    infinities raise :class:`SimulationError` naming ``what`` (the kind
    of value) and ``label`` (who asked).
    """
    try:
        whole = int(value)
    except (ValueError, OverflowError):  # NaN, +-inf
        raise _non_integral(what, value, label) from None
    if whole != value:
        raise _non_integral(what, value, label)
    return whole


def _non_integral(what: str, value: object, label: str) -> SimulationError:
    return SimulationError(
        f"non-integral {what} {value!r} for {label!r} "
        "(the clock is integer nanoseconds)"
    )


def noop() -> None:
    """A callback that does nothing (useful as a pure wake-up marker)."""


__all__ = ["Event", "Simulator", "SimulationError", "noop", "whole_ns"]
