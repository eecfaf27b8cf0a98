"""Engine metrics fold: the /metrics endpoint's data source.

:class:`EngineMetricsSink` folds the typed event stream into a private
:class:`~repro.telemetry.registry.TelemetryRegistry` and renders it
through the existing Prometheus exposition
(:func:`repro.telemetry.exposition.prometheus_text`), so the ops plane
reuses the registry/exposition machinery instead of growing a second
metrics path.  Simulation telemetry (virtual-clock registries inside
cells) stays separate: these are *engine* metrics — cells planned,
outcomes, queue depth, worker liveness — about the host-side run.

Every instrument carries ``# HELP`` text (satellite 2's exposition
extension); metric names come out as ``repro_engine_*`` after the
exposition prefix.  The fold is an ordinary event sink behind the
:class:`~repro.ops.stream.FanOutSink`: it observes, it never steers
(pinned by ``tests/test_ops_plane.py::test_serve_preserves_fold_bytes``).
"""

from __future__ import annotations

import threading
import time
from typing import Optional

from repro.exec.events import (
    CellFinished,
    CellScheduled,
    CheckpointWritten,
    Event,
    Finished,
    Interrupted,
    PHASE_ORDER,
    PhaseStarted,
)
from repro.exec.queue import WorkerHealth
from repro.telemetry.exposition import prometheus_text
from repro.telemetry.registry import TelemetryRegistry

#: phase name -> ordinal for the engine_phase gauge (0=plan … 3=fold)
PHASE_INDEX = {phase: index for index, phase in enumerate(PHASE_ORDER)}

#: wall-seconds bucket bounds for per-cell durations (engine cells run
#: milliseconds to minutes — unlike the ns-scale simulation defaults)
CELL_SECONDS_BUCKETS = (0.01, 0.1, 0.5, 1.0, 5.0, 30.0, 120.0)


class EngineMetricsSink:
    """Fold engine events into Prometheus-exposable instruments."""

    def __init__(
        self,
        registry: Optional[TelemetryRegistry] = None,
        health: Optional[WorkerHealth] = None,
    ) -> None:
        self.registry = registry if registry is not None else (
            TelemetryRegistry()
        )
        self.health = health
        self._lock = threading.Lock()
        self._scheduled = 0
        self._ran_done = 0

    # ------------------------------------------------------------------
    def __call__(self, event: Event) -> None:
        with self._lock:
            registry = self.registry
            registry.counter(
                "engine_events",
                help="Engine events observed, by kind.",
                kind=event.kind,
            ).inc()
            if isinstance(event, PhaseStarted):
                registry.gauge(
                    "engine_phase",
                    help="Current engine phase (0=plan 1=probe "
                         "2=execute 3=fold).",
                ).set(float(PHASE_INDEX.get(event.phase, -1)))
                if event.phase == "plan":
                    registry.gauge(
                        "engine_cells_planned",
                        help="Cells planned across all sweeps so far.",
                    ).add(float(event.cells))
            elif isinstance(event, CellScheduled):
                self._scheduled += 1
                registry.gauge(
                    "engine_queue_depth",
                    help="Cells handed to the work queue but not yet "
                         "finished.",
                ).set(float(self._scheduled - self._ran_done))
            elif isinstance(event, CellFinished):
                registry.counter(
                    "engine_cells",
                    help="Cells finished, by outcome "
                         "(ran/hit/resumed).",
                    outcome=event.outcome,
                ).inc()
                if event.stage:
                    registry.counter(
                        "engine_stage_cells",
                        help="Cells finished per stage, by outcome.",
                        stage=event.stage,
                        outcome=event.outcome,
                    ).inc()
                registry.gauge(
                    "engine_cells_done",
                    help="Cells finished across all sweeps so far.",
                ).add(1.0)
                if event.outcome != "ran":
                    registry.gauge(
                        "engine_cells_cached",
                        help="Cells satisfied without executing "
                             "(cache hits + resumed replays).",
                    ).add(1.0)
                else:
                    self._ran_done += 1
                    registry.gauge(
                        "engine_queue_depth",
                        help="Cells handed to the work queue but not "
                             "yet finished.",
                    ).set(float(max(0, self._scheduled - self._ran_done)))
                    registry.histogram(
                        "engine_cell_seconds",
                        bounds=CELL_SECONDS_BUCKETS,
                        help="Wall-clock seconds per executed cell.",
                    ).observe(event.seconds)
                    registry.counter(
                        "engine_cell_utime_seconds",
                        help="Cumulative user-mode CPU seconds across "
                             "executed cells.",
                    ).inc(event.utime_s)
                    registry.counter(
                        "engine_cell_stime_seconds",
                        help="Cumulative kernel-mode CPU seconds "
                             "across executed cells.",
                    ).inc(event.stime_s)
                    rss = registry.gauge(
                        "engine_cell_max_rss_kb",
                        help="Largest peak RSS reported by any "
                             "executed cell (KiB).",
                    )
                    if event.max_rss_kb > rss.value:
                        rss.set(event.max_rss_kb)
            elif isinstance(event, CheckpointWritten):
                registry.gauge(
                    "engine_checkpointed",
                    help="Cells durably journalled to the run "
                         "directory.",
                ).set(float(event.completed))
                fold_lag = registry.gauge(
                    "engine_fold_lag",
                    help="Finished cells not yet journalled.",
                )
                done = registry.gauge("engine_cells_done").value
                fold_lag.set(float(max(0.0, done - event.completed)))
            elif isinstance(event, Interrupted):
                registry.counter(
                    "engine_interrupts",
                    help="Sweeps stopped early, by reason.",
                    reason=event.reason,
                ).inc()
            elif isinstance(event, Finished):
                registry.counter(
                    "engine_sweeps",
                    help="Sweeps folded to completion.",
                ).inc()

    # ------------------------------------------------------------------
    def refresh_worker_gauges(self) -> None:
        """Scrape-time refresh of the worker-liveness gauges."""
        if self.health is None:
            return
        snapshot = self.health.snapshot()
        # The scrape stamp feeds only the last-beat-age gauge — an ops
        # reading about the host, never an input to any engine result
        # (pinned by tests/test_ops_plane.py::
        # test_serve_preserves_fold_bytes).
        now = time.time()  # simlint: disable=SIM008
        with self._lock:
            registry = self.registry
            registry.gauge(
                "engine_workers_live",
                help="Pool workers currently believed alive.",
            ).set(float(snapshot["live"]))
            registry.gauge(
                "engine_workers_dead",
                help="Pool workers that exited abnormally.",
            ).set(float(snapshot["dead"]))
            newest: Optional[float] = None
            for entry in snapshot["workers"].values():
                beat = entry.get("last_beat_unix")
                if beat is not None and (newest is None or beat > newest):
                    newest = beat
            registry.gauge(
                "engine_worker_last_beat_age_seconds",
                help="Seconds since the most recent worker heartbeat "
                     "(-1 before the first beat).",
            ).set(max(0.0, now - newest) if newest is not None else -1.0)

    def render(self) -> str:
        """The Prometheus exposition text for a /metrics scrape."""
        self.refresh_worker_gauges()
        with self._lock:
            return prometheus_text(self.registry)


__all__ = [
    "CELL_SECONDS_BUCKETS",
    "EngineMetricsSink",
    "PHASE_INDEX",
]
