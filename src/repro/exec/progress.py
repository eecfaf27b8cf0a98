"""Per-cell progress reporting for long sweeps.

:class:`ProgressPrinter` is an ordinary event sink: install it with
``sinks=[ProgressPrinter()]`` on an
:class:`~repro.exec.engine.Engine` or
:class:`~repro.exec.runner.SweepRunner` and it prints one line per
``CellFinished`` event, ignoring the rest of the stream.  Flat sweeps
(one list of cells) report ``[i/total]`` lines.  Nested sweeps — the
fleet simulator runs *epochs*, each of which shards a fleet of hosts
over the pool — pass ``stage=`` to
:meth:`~repro.exec.runner.SweepRunner.run`; the engine stamps it on
every ``CellFinished`` event, so each line carries the enclosing stage
(``[weekday:aql_aware epoch 2/3] [12/64] ran host07``) instead of a
meaningless flat cell count that resets every epoch.

:class:`EtaTracker` is the remaining-time arithmetic the live status
fold (:class:`repro.ops.status.RunStatus`) uses.
"""

from __future__ import annotations

import sys
from typing import Optional, TextIO

from repro.exec.events import CellFinished, Event


class EtaTracker:
    """Remaining-time projection that cannot divide by zero or go
    negative.

    Cached and resumed cells complete "instantly" (``seconds == 0.0``),
    so a naive ``elapsed / completed`` rate either divides by zero (no
    cells done yet) or projects a wildly optimistic finish after a warm
    probe phase replayed most of the sweep.  The tracker therefore
    averages **executed** cells only: :meth:`estimate` returns ``None``
    until at least one cell has really run (unknown, not zero), and
    every estimate clamps at ``0.0`` so a run that overshoots its plan
    never reports negative time remaining.  Pinned by
    ``tests/test_exec_progress.py``.
    """

    __slots__ = ("ran", "ran_seconds")

    def __init__(self) -> None:
        self.ran = 0
        self.ran_seconds = 0.0

    def note(self, outcome: str, seconds: float) -> None:
        """Fold one finished cell (the ``CellFinished`` fields)."""
        if outcome == "ran":
            self.ran += 1
            self.ran_seconds += max(0.0, seconds)

    def rate(self) -> Optional[float]:
        """Mean seconds per executed cell; None before the first one."""
        if self.ran <= 0:
            return None
        return self.ran_seconds / self.ran

    def estimate(self, remaining: int) -> Optional[float]:
        """Projected seconds for ``remaining`` more cells.

        ``0.0`` when nothing remains, ``None`` when no executed cell
        has established a rate yet, otherwise ``rate * remaining``
        clamped to be non-negative.
        """
        if remaining <= 0:
            return 0.0
        per_cell = self.rate()
        if per_cell is None:
            return None
        return max(0.0, per_cell * remaining)


class ProgressPrinter:
    """Event sink: one line per ``CellFinished``, timings included.

    Every other event is ignored.  Writes to stderr by default so
    experiment tables on stdout stay machine-comparable (parallel and
    serial runs print identical stdout).
    """

    def __init__(self, stream: Optional[TextIO] = None) -> None:
        self.stream = stream if stream is not None else sys.stderr

    def __call__(self, event: Event) -> None:
        if not isinstance(event, CellFinished):
            return
        width = len(str(event.total))
        prefix = f"[{event.stage}] " if event.stage else ""
        print(
            f"{prefix}[{event.index + 1:{width}d}/{event.total}] "
            f"{event.outcome:<3s} {event.label} "
            f"({event.seconds:.2f}s)",
            file=self.stream,
            flush=True,
        )


__all__ = [
    "EtaTracker",
    "ProgressPrinter",
]
