"""Run status: a thread-safe fold of the engine event stream.

:class:`RunStatus` folds one engine lifetime's events into a
JSON-ready run summary.  It has two feeds and one rule:

* live, ``GET /status`` on the ops HTTP server and the CLI's engine
  tallies — the engine calls :meth:`RunStatus.observe` inside
  ``_event()`` before sinks run, so /status is live even for callers
  that drive ``Engine.stream()`` directly and never install a sink;
* offline, :func:`fold_log` over a run directory's ``events.jsonl``,
  which ``python -m repro.ops attach RUN_DIR`` renders.

Both start ``checkpointed`` at the cells the run directory already
held when the engine attached it.  Worker health, the ETA, elapsed
time and ``updated_unix`` exist only in the live fold.  The fold is
observability-only: the engine never reads it back, so a wrong count
here could mislabel a dashboard but cannot change a fold byte (pinned
by ``tests/test_ops_plane.py::test_serve_preserves_fold_bytes``).

Wall-clock note: ``started_unix``/``updated_unix`` stamp when the host
observed events — operational provenance, never a simulation input —
and each read carries a simlint waiver naming its pinning test.
"""

from __future__ import annotations

import threading
import time
from typing import TYPE_CHECKING, Any, Mapping, Optional, Sequence

from repro.exec.events import (
    CellFinished,
    CellScheduled,
    CheckpointWritten,
    Event,
    Finished,
    Interrupted,
    PhaseStarted,
    event_from_json,
)
from repro.exec.progress import EtaTracker

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.exec.engine import Engine

#: bumped when the /status document shape changes incompatibly
STATUS_SCHEMA = 1


def _new_stage() -> dict[str, int]:
    return {"cells": 0, "done": 0, "ran": 0, "hit": 0, "resumed": 0}


class RunStatus:
    """Fold engine events into a JSON-ready run summary.

    Without an engine it is a fold of a run directory's log
    (:func:`fold_log`).
    """

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
        # Status timestamps are host-side provenance for dashboards;
        # no engine result reads them (pinned by
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
        """The /status JSON object."""
        with self._lock:
            engine = self.engine
            hint = engine.cells_hint if engine is not None else None
            expected = max(self.planned, hint or 0)
            remaining = max(0, expected - self.done)
            eta = self.eta.estimate(remaining)
            # fold lag measures checkpoint backlog; an engine without a
            # run directory checkpoints nothing and its lag is vacuously
            # zero, while a log fold always read one
            journalling = engine is None or engine.run_dir is not None
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


def fold_log(records: Sequence[Mapping[str, Any]]) -> RunStatus:
    """Fold a run directory's log records as its last engine saw them.

    The fold covers the last engine lifetime (from the last
    ``phase_started(plan)`` with ``seq`` 0) and starts ``checkpointed``
    at the distinct keys checkpointed before it, as the engine seeds
    its resume set from ``RunDir.completed_keys()``.  Raises
    ``ValueError`` on a record that is not an engine event.
    """
    start = max(
        (
            index
            for index, record in enumerate(records)
            if record.get("kind") == PhaseStarted.kind
            and record.get("phase") == "plan"
            and record.get("seq") == 0
        ),
        default=0,
    )
    status = RunStatus()
    status.checkpointed = len({
        str(record.get("key"))
        for record in records[:start]
        if record.get("kind") == CheckpointWritten.kind
    })
    for record in records[start:]:
        status.observe(event_from_json(record))
    return status


__all__ = [
    "STATUS_SCHEMA",
    "RunStatus",
    "fold_log",
]
