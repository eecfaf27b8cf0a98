"""Live run status: a thread-safe fold of the engine event stream.

:class:`RunStatus` is the single source of truth behind three surfaces:

* ``GET /status`` on the ops HTTP server;
* ``<run-dir>/status.json``, rewritten atomically on every checkpoint
  by :class:`StatusWriter` so a detached run stays inspectable with
  nothing but ``cat``;
* the ``status`` block inside flight-recorder dump metadata.

It observes every event **at the source** — the engine calls
:meth:`observe` inside ``_event()`` before sinks run — so /status is
live even for callers that drive ``Engine.stream()`` directly and
never install a sink.  The fold is observability-only: the engine
never reads it back, so a wrong count here could mislabel a dashboard
but cannot change a fold byte (pinned by
``tests/test_ops_plane.py::test_serve_preserves_fold_bytes``).

Wall-clock note: ``started_unix``/``updated_unix`` stamp when the host
observed events — operational provenance, never a simulation input —
and each read carries a simlint waiver naming its pinning test.
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path
from typing import TYPE_CHECKING, Any, Optional, Union

from repro.exec.events import (
    CellFinished,
    CellScheduled,
    CheckpointWritten,
    Event,
    Finished,
    Interrupted,
    PhaseStarted,
)
from repro.exec.progress import EtaTracker

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.exec.engine import Engine

#: bumped when the /status document shape changes incompatibly
STATUS_SCHEMA = 1


def _new_stage() -> dict[str, int]:
    return {"cells": 0, "done": 0, "ran": 0, "hit": 0, "resumed": 0}


class RunStatus:
    """Fold engine events into a JSON-ready run summary."""

    def __init__(self, engine: Optional["Engine"] = None) -> None:
        self.engine = engine
        self._lock = threading.Lock()
        self.phase = ""
        self.stage = ""
        self._stages: dict[str, dict[str, int]] = {}
        self.planned = 0
        self.done = 0
        self.ran = 0
        self.hit = 0
        self.resumed = 0
        self.scheduled = 0
        self.ran_done = 0
        self.checkpointed = 0
        self.sweeps_finished = 0
        self.interrupted: Optional[str] = None
        self.eta = EtaTracker()
        self.started_unix: Optional[float] = None
        self.updated_unix: Optional[float] = None

    # ------------------------------------------------------------------
    def observe(self, event: Event) -> None:
        # Status timestamps are host-side provenance for dashboards and
        # status.json; no engine result reads them (pinned by
        # tests/test_ops_plane.py::test_serve_preserves_fold_bytes).
        now = time.time()  # simlint: disable=SIM008
        with self._lock:
            if self.started_unix is None:
                self.started_unix = now
            self.updated_unix = now
            if isinstance(event, PhaseStarted):
                self.phase = event.phase
                self.stage = event.stage
                if event.phase == "plan":
                    stage = self._stages.setdefault(
                        event.stage, _new_stage()
                    )
                    stage["cells"] += event.cells
                    self.planned += event.cells
                    self.interrupted = None
            elif isinstance(event, CellScheduled):
                self.scheduled += 1
            elif isinstance(event, CellFinished):
                stage = self._stages.setdefault(event.stage, _new_stage())
                stage["done"] += 1
                self.done += 1
                if event.outcome in stage:
                    stage[event.outcome] += 1
                if event.outcome == "ran":
                    self.ran += 1
                    self.ran_done += 1
                elif event.outcome == "hit":
                    self.hit += 1
                elif event.outcome == "resumed":
                    self.resumed += 1
                self.eta.note(event.outcome, event.seconds)
            elif isinstance(event, CheckpointWritten):
                self.checkpointed = event.completed
            elif isinstance(event, Interrupted):
                self.interrupted = event.reason
            elif isinstance(event, Finished):
                self.sweeps_finished += 1

    # ------------------------------------------------------------------
    def document(self) -> dict[str, Any]:
        """The /status JSON object (also status.json's content)."""
        with self._lock:
            engine = self.engine
            hint = engine.cells_hint if engine is not None else None
            expected = max(self.planned, hint or 0)
            remaining = max(0, expected - self.done)
            eta = self.eta.estimate(remaining)
            # fold lag measures journal backlog; without a run
            # directory nothing journals and the lag is vacuously zero
            journalling = engine is not None and engine.run_dir is not None
            fold_lag = (
                max(0, self.done - self.checkpointed) if journalling else 0
            )
            elapsed: Optional[float] = None
            if self.started_unix is not None and (
                self.updated_unix is not None
            ):
                elapsed = max(0.0, self.updated_unix - self.started_unix)
            doc: dict[str, Any] = {
                "schema": STATUS_SCHEMA,
                "phase": self.phase,
                "stage": self.stage,
                "stages": {
                    name: dict(tallies)
                    for name, tallies in sorted(self._stages.items())
                },
                "cells": {
                    "planned": self.planned,
                    "expected": expected,
                    "done": self.done,
                    "ran": self.ran,
                    "hit": self.hit,
                    "resumed": self.resumed,
                    "scheduled": self.scheduled,
                    "checkpointed": self.checkpointed,
                    "queue_depth": max(0, self.scheduled - self.ran_done),
                    "fold_lag": fold_lag,
                },
                "eta_seconds": eta,
                "elapsed_seconds": elapsed,
                "interrupted": self.interrupted,
                "sweeps_finished": self.sweeps_finished,
                "updated_unix": self.updated_unix,
            }
            if engine is not None:
                run_dir = engine.run_dir
                doc["run"] = {
                    "jobs": engine.jobs,
                    "run_id": run_dir.run_id if run_dir else None,
                    "run_root": (
                        str(engine.run_root) if engine.run_root else None
                    ),
                    "plan": engine.plan_fingerprint,
                    "resumed_at_open": engine.resumed_at_open,
                }
                doc["workers"] = engine.worker_health.snapshot()
            return doc


class StatusWriter:
    """Sink: rewrite ``status.json`` atomically at run milestones.

    Writes on every ``CheckpointWritten`` (the durable progress beat)
    plus phase boundaries and terminal events — not on every cell, so
    cache-hit storms don't turn into fsync storms.  The write is
    tmp-then-:func:`os.replace`, so a reader never observes a torn
    document and a SIGKILL mid-write strands at most one
    ``status.json.tmp`` (removed on the next attach).
    """

    #: event kinds that trigger a rewrite
    TRIGGERS = (PhaseStarted, CheckpointWritten, Interrupted, Finished)

    def __init__(
        self, path: Union[str, Path], status: RunStatus
    ) -> None:
        self.path = Path(path)
        self.status = status
        self._tmp = self.path.with_name(self.path.name + ".tmp")
        # a previous crash may have stranded the temp file
        try:
            self._tmp.unlink()
        except OSError:
            pass

    def __call__(self, event: Event) -> None:
        if not isinstance(event, self.TRIGGERS):
            return
        self.write()

    def write(self) -> None:
        doc = self.status.document()
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
        self._tmp.write_text(text, encoding="utf-8")
        os.replace(self._tmp, self.path)

    def close(self) -> None:
        # final rewrite so status.json reflects the terminal state even
        # when the last event was not a trigger
        try:
            self.write()
        except OSError:  # pragma: no cover - run dir vanished
            pass


def read_status(path: Union[str, Path]) -> Optional[dict[str, Any]]:
    """Parse a ``status.json`` if present and well-formed."""
    path = Path(path)
    if not path.exists():
        return None
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        return None
    return doc if isinstance(doc, dict) else None


__all__ = [
    "STATUS_SCHEMA",
    "RunStatus",
    "StatusWriter",
    "read_status",
]
