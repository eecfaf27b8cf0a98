"""``repro.exec`` — phased, resumable, streaming experiment execution.

The substrate for every sweep in :mod:`repro.experiments`: experiment
modules describe their work as independent
:class:`~repro.exec.cells.Cell` invocations and hand them to a
:class:`~repro.exec.runner.SweepRunner` (or the underlying
:class:`~repro.exec.engine.Engine` directly), which plans them into
explicit phases (plan → probe → execute → fold), fans them out through
a work-stealing worker pool, memoises results in a content-addressed
on-disk :class:`~repro.exec.cache.ResultCache`, and — when a run
directory is configured — checkpoints every completion durably in
the run's event log so a killed sweep resumes with only unfinished
cells re-executed.  The
whole run is narrated as a typed event stream
(:mod:`repro.exec.events`) consumed by pluggable sinks.

Guarantees (enforced by ``tests/test_exec_equivalence.py`` and
``tests/test_exec_crash_resume.py``):

* ``jobs=N`` and ``jobs=1`` produce identical results — simulations
  are seeded and deterministic, and nothing about process placement,
  work-stealing interleaving, or queue order leaks into a cell.
* A cache hit replays the byte-identical pickled payload the original
  run stored; editing any source file under ``repro`` changes the
  cache salt and invalidates every entry.
* A sweep killed mid-run (SIGKILL included) and resumed folds to the
  byte-identical result of an uninterrupted run, with no completed
  cell executed twice.
"""

from repro.exec.cache import CacheEntry, CacheStats, ResultCache
from repro.exec.cells import Cell, engine_cell, execute_cell
from repro.exec.checkpoint import (
    ENV_RUN_DIR,
    RunDir,
    RunDirError,
    RunManifest,
    derive_run_id,
    resolve_run_root,
)
from repro.exec.engine import ENV_KILL_AFTER, Engine
from repro.exec.events import (
    CellFinished,
    CellScheduled,
    CheckpointWritten,
    Event,
    EventSink,
    Finished,
    Interrupted,
    JsonlSink,
    PhaseStarted,
    read_event_log,
    validate_events,
)
from repro.exec.hashing import canonical, code_salt, fingerprint
from repro.exec.progress import EtaTracker, ProgressPrinter
from repro.exec.queue import (
    WorkerCrash,
    WorkerHealth,
    WorkStealingPool,
    profiled_call,
)
from repro.exec.runner import (
    ENV_JOBS,
    SweepRunner,
    aggregate_telemetry,
    resolve_jobs,
)

__all__ = [
    "Cell",
    "CellFinished",
    "CellScheduled",
    "CacheEntry",
    "CacheStats",
    "CheckpointWritten",
    "ENV_JOBS",
    "ENV_KILL_AFTER",
    "ENV_RUN_DIR",
    "Engine",
    "EtaTracker",
    "Event",
    "EventSink",
    "Finished",
    "Interrupted",
    "JsonlSink",
    "PhaseStarted",
    "ProgressPrinter",
    "ResultCache",
    "RunDir",
    "RunDirError",
    "RunManifest",
    "SweepRunner",
    "WorkStealingPool",
    "WorkerCrash",
    "WorkerHealth",
    "aggregate_telemetry",
    "canonical",
    "code_salt",
    "derive_run_id",
    "engine_cell",
    "execute_cell",
    "fingerprint",
    "profiled_call",
    "read_event_log",
    "resolve_jobs",
    "resolve_run_root",
    "validate_events",
]
