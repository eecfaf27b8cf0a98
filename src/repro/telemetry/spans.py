"""Span-based tracing over the virtual clock.

A span is a named ``[begin, end]`` interval on a *track* (one track per
pCPU for quantum slices, one for the vTRS/AQL control plane, one for
the engine).  Tracks keep a LIFO stack of open spans, so nesting is
structural: beginning a span while another is open on the same track
parents it, and :meth:`SpanTracer.end` closes exactly the innermost
open span — ending out of order raises instead of silently producing a
malformed trace.  The Hypothesis suite in
``tests/test_telemetry_spans.py`` holds the tracer to this contract
under random op schedules.

Spans are the one recording layer of scheduling history: the
quantum-slice spans on the ``pcpu<n>`` tracks are what
:mod:`repro.metrics.timeline` rebuilds pCPU occupancy and wake
latencies from, and chrome://tracing and the JSONL exposition render
spans directly.
"""

from __future__ import annotations

from typing import Optional


class SpanError(RuntimeError):
    """Structurally invalid span usage (mismatched end, time travel)."""


class Span:
    """One completed or open interval; created via ``SpanTracer.begin``."""

    __slots__ = (
        "span_id", "parent_id", "name", "category", "track",
        "start_ns", "end_ns", "args",
    )

    def __init__(
        self,
        span_id: int,
        parent_id: Optional[int],
        name: str,
        category: str,
        track: str,
        start_ns: int,
        args: dict[str, object],
    ) -> None:
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.category = category
        self.track = track
        self.start_ns = start_ns
        #: None while the span is open
        self.end_ns: Optional[int] = None
        self.args = args

    @property
    def duration_ns(self) -> int:
        if self.end_ns is None:
            raise SpanError(f"span {self.name!r} is still open")
        return self.end_ns - self.start_ns

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        end = self.end_ns if self.end_ns is not None else "…"
        return f"<Span {self.track}:{self.name} [{self.start_ns},{end}]>"


class SpanTracer:
    """Begin/end span recorder with per-track nesting enforcement."""

    __slots__ = ("max_spans", "dropped", "_completed", "_open", "_seq")

    def __init__(self, max_spans: int = 200_000) -> None:
        #: retention cap: completed spans beyond this are dropped (and
        #: counted) rather than growing without bound on long runs
        self.max_spans = max_spans
        self.dropped = 0
        self._completed: list[Span] = []
        self._open: dict[str, list[Span]] = {}
        self._seq = 0

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def begin(
        self,
        time_ns: int,
        name: str,
        track: str = "main",
        category: str = "span",
        **args: object,
    ) -> Span:
        """Open a span; nests under the track's innermost open span."""
        stack = self._open.setdefault(track, [])
        if stack and time_ns < stack[-1].start_ns:
            raise SpanError(
                f"span {name!r} begins at {time_ns}, before its parent "
                f"{stack[-1].name!r} began at {stack[-1].start_ns}"
            )
        parent_id = stack[-1].span_id if stack else None
        span = Span(
            span_id=self._next_id(),
            parent_id=parent_id,
            name=name,
            category=category,
            track=track,
            start_ns=time_ns,
            args=dict(args),
        )
        stack.append(span)
        return span

    def end(
        self,
        time_ns: int,
        span: Optional[Span] = None,
        track: str = "main",
        **args: object,
    ) -> Span:
        """Close the innermost open span of ``track`` (must match ``span``
        when given)."""
        if span is not None:
            track = span.track
        stack = self._open.get(track)
        if not stack:
            raise SpanError(f"no open span on track {track!r}")
        top = stack[-1]
        if span is not None and top is not span:
            raise SpanError(
                f"cannot end {span.name!r}: {top.name!r} is still open "
                f"inside it (spans close innermost-first)"
            )
        if time_ns < top.start_ns:
            raise SpanError(
                f"span {top.name!r} ends at {time_ns} before its start "
                f"{top.start_ns}"
            )
        stack.pop()
        top.end_ns = time_ns
        if args:
            top.args.update(args)
        self._keep(top)
        return top

    def instant(
        self,
        time_ns: int,
        name: str,
        track: str = "main",
        category: str = "marker",
        **args: object,
    ) -> Span:
        """A zero-duration span (milestones: plan installs, churn)."""
        span = self.begin(time_ns, name, track=track, category=category, **args)
        return self.end(time_ns, span)

    def complete(
        self,
        start_ns: int,
        end_ns: int,
        name: str,
        track: str = "main",
        category: str = "span",
        **args: object,
    ) -> Span:
        """Record a retroactive ``[start, end]`` span in one call.

        Used by periodic monitors that only learn a period's extent
        when it closes (a vTRS monitoring period spans the gap since
        the previous sample).  The span still nests: it parents under
        the track's innermost open span, but may not overlap one that
        began inside the recorded interval.
        """
        if end_ns < start_ns:
            raise SpanError(f"span {name!r}: end {end_ns} < start {start_ns}")
        stack = self._open.get(track)
        if stack and stack[-1].start_ns > start_ns:
            raise SpanError(
                f"retroactive span {name!r} [{start_ns},{end_ns}] overlaps "
                f"open span {stack[-1].name!r} begun at {stack[-1].start_ns}"
            )
        parent_id = stack[-1].span_id if stack else None
        span = Span(
            span_id=self._next_id(),
            parent_id=parent_id,
            name=name,
            category=category,
            track=track,
            start_ns=start_ns,
            args=dict(args),
        )
        span.end_ns = end_ns
        self._keep(span)
        return span

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def spans(self, track: Optional[str] = None) -> list[Span]:
        """Completed spans in completion order, optionally one track's."""
        if track is None:
            return list(self._completed)
        return [s for s in self._completed if s.track == track]

    def open_spans(self) -> list[Span]:
        """Every still-open span, outermost first per track."""
        out: list[Span] = []
        for track in sorted(self._open):
            out.extend(self._open[track])
        return out

    def close_all(self, time_ns: int) -> int:
        """End every open span (run teardown); returns how many closed."""
        closed = 0
        for track in sorted(self._open):
            while self._open[track]:
                self.end(time_ns, track=track)
                closed += 1
        return closed

    def tracks(self) -> list[str]:
        seen: dict[str, None] = {}
        for span in self._completed:
            seen.setdefault(span.track, None)
        return list(seen)

    def __len__(self) -> int:
        return len(self._completed)

    # ------------------------------------------------------------------
    def _next_id(self) -> int:
        self._seq += 1
        return self._seq

    def _keep(self, span: Span) -> None:
        if len(self._completed) >= self.max_spans:
            self.dropped += 1
            return
        self._completed.append(span)


__all__ = ["Span", "SpanError", "SpanTracer"]
