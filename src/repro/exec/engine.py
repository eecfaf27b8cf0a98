"""The long-lived experiment engine: phased, resumable, streaming.

:class:`Engine` replaces the one-shot batch sweep loop.  Each call to
:meth:`Engine.run` (one *sweep* — a flat figure sweep, one fleet
epoch, one fuzz batch) is planned into four explicit phases:

``plan``
    Compute every cell's content-addressed cache key and the sweep's
    plan fingerprint; open (or attach to) the run directory when
    checkpointing is configured.
``probe``
    Warm-path probe: satisfy cells from the run directory's
    checkpoints (``resumed``) or the result cache (``hit``) before any
    process is forked.
``execute``
    Fan the remaining cells out through the work-stealing queue
    (:mod:`repro.exec.queue`); store every completion and fsync its
    ``checkpoint_written`` record before any sink sees it.
``fold``
    Assemble results back into cell order and emit the terminal
    ``Finished`` event.

The engine *narrates* all of this as a typed event stream
(:mod:`repro.exec.events`) consumed by pluggable sinks — per-cell
progress lines, a JSONL event log, engine metrics.  The engine keeps
no tallies of its own: :attr:`Engine.status` (a
:class:`~repro.ops.status.RunStatus`) folds every event at the source,
and its ``ran``/``hit``/``resumed``/``sweeps_finished`` counts are the
run's totals, live even mid-sweep.  The run directory's
``events.jsonl`` is written at the source too, before any sink: it is
the checkpoint journal and the run's only status record (``python -m
repro.ops attach`` folds the same ``RunStatus`` over it).  A killed run
resumes from it with only unfinished cells re-executed; because run ids are
content-addressed, re-running the same sweep against the same run root
resumes automatically, and ``--resume <run-id>`` pins a directory
explicitly.

One engine may run many sweeps (the fleet's bulk-synchronous epoch
barrier is exactly a sequence of ``run()`` calls — each barrier is a
phase boundary): checkpoints are keyed by cache key, not by position,
so multi-sweep runs resume just as precisely.

Wall-clock note: this module reads no clock.  Per-cell wall timing
happens in ``repro.exec.queue`` (on simlint SIM008's wall-clock
allowlist); it is progress metadata, never an input to any result.
"""

from __future__ import annotations

import os
import signal
from pathlib import Path
from typing import Any, Callable, Iterator, Optional, Sequence, Union

from repro.exec.cache import ResultCache
from repro.exec.cells import Cell
from repro.exec.checkpoint import RunDir, resolve_run_root
from repro.exec.events import (
    CellFinished,
    CellScheduled,
    CheckpointWritten,
    Event,
    EventSink,
    Finished,
    Interrupted,
    PhaseStarted,
)
from repro.exec.hashing import code_salt, fingerprint
from repro.exec.queue import (
    Profile,
    Task,
    WorkerCrash,
    WorkerHealth,
    WorkStealingPool,
    fork_available,
    profiled_call,
)

ENV_JOBS = "REPRO_JOBS"
#: fault injection for the crash-consistency suite and the CI
#: engine-smoke job: SIGKILL the process after this many cells have
#: been checkpointed (cumulative over the engine lifetime)
ENV_KILL_AFTER = "REPRO_ENGINE_KILL_AFTER"


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Explicit argument > ``REPRO_JOBS`` > serial."""
    if jobs is None:
        # Worker-count selection: jobs=N ≡ jobs=1 is the engine's core
        # pinned guarantee (test_exec_equivalence), so parallelism is a
        # throughput knob with no reach into results.
        env = os.environ.get(ENV_JOBS, "").strip()  # simlint: disable=SIM008
        if env:
            try:
                jobs = int(env)
            except ValueError as exc:
                raise ValueError(
                    f"{ENV_JOBS} must be an integer, got {env!r}"
                ) from exc
    if jobs is None:
        return 1
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    return jobs


def _resolve_kill_after(kill_after: Optional[int]) -> Optional[int]:
    if kill_after is not None:
        return kill_after
    # Crash-injection knob for the resume tests: it kills the process
    # mid-run, it cannot change what a completed run computes (the
    # resumed fold is pinned byte-identical by test_exec_crash_resume).
    env = os.environ.get(ENV_KILL_AFTER, "").strip()  # simlint: disable=SIM008
    if not env:
        return None
    try:
        return int(env)
    except ValueError as exc:
        raise ValueError(
            f"{ENV_KILL_AFTER} must be an integer, got {env!r}"
        ) from exc


class Engine:
    """Run sweeps of :class:`Cell` through phases, durably, streaming."""

    def __init__(
        self,
        jobs: Optional[int] = None,
        cache: Optional[ResultCache] = None,
        salt: Optional[str] = None,
        run_root: Union[str, Path, None] = None,
        run_id: Optional[str] = None,
        sinks: Sequence[EventSink] = (),
        kill_after: Optional[int] = None,
        schedule: Optional[Sequence[int]] = None,
    ) -> None:
        self.jobs = resolve_jobs(jobs)
        self.cache = cache
        self._salt = salt
        #: run root from the argument or ``REPRO_RUN_DIR``; None means
        #: no checkpointing (and, explicit-resume aside, no keys when
        #: the cache is off too)
        self.run_root = resolve_run_root(run_root)
        self._requested_run_id = run_id
        if run_id is not None and self.run_root is None:
            raise ValueError(
                "resuming a run needs a run root (--run-dir or "
                "REPRO_RUN_DIR)"
            )
        self._sinks: list[EventSink] = list(sinks)
        self.kill_after = _resolve_kill_after(kill_after)
        #: optional queue-order permutation (tests exercise steal
        #: interleavings with it); results always fold by index
        self.schedule = list(schedule) if schedule is not None else None
        self.run_dir: Optional[RunDir] = None
        self._checkpointed: set[str] = set()
        self._seq = 0
        self._completed = 0
        self.last_results: list[Any] = []
        #: worker liveness ledger fed by queue heartbeats (read by the
        #: ops plane, never by the engine's own control flow)
        self.worker_health = WorkerHealth()
        #: fingerprint of the most recently planned sweep
        self.plan_fingerprint: Optional[str] = None
        #: whole-run cell-count hint from multi-sweep drivers (fleet
        #: epoch loops, fuzz campaigns) — see :meth:`expect_cells`
        self.cells_hint: Optional[int] = None
        #: cells already checkpointed when the run directory attached
        #: (the resume lineage /status reports)
        self.resumed_at_open = 0
        # Live status fold for /status and the CLI's engine tallies.
        # Imported lazily: repro.exec must keep no import-time
        # dependency on the ops layer above it.
        from repro.ops.status import RunStatus

        self.status = RunStatus(engine=self)

    # ------------------------------------------------------------------
    @property
    def salt(self) -> str:
        if self._salt is None:
            self._salt = code_salt()
        return self._salt

    def add_sink(self, sink: EventSink) -> None:
        self._sinks.append(sink)

    def expect_cells(self, total: Optional[int]) -> None:
        """Hint the whole-run cell total for /status ETAs.

        Multi-sweep drivers (the fleet's epoch loop) know roughly how
        many cells the *entire* run will take; without the hint the ops
        plane can only project over the cells planned so far.  Observability metadata only — nothing in execution
        reads it.
        """
        self.cells_hint = total

    def _event(self, cls: Callable[..., Event], **fields: Any) -> Event:
        event = cls(seq=self._seq, **fields)
        self._seq += 1
        # the run directory's log and the status fold see every event
        # at the source, so both hold even for callers that iterate
        # stream() directly; a checkpoint line is fsynced here, before
        # the fold or any sink can report it
        if self.run_dir is not None:
            self.run_dir.append(event)
        self.status.observe(event)
        return event

    # ------------------------------------------------------------------
    # run directory lifecycle
    # ------------------------------------------------------------------
    def _attach_run_dir(self, plan_fingerprint: str) -> None:
        """Open/attach the run directory on the first planned sweep."""
        if self.run_dir is not None or self.run_root is None:
            return
        self.run_dir = RunDir.open(
            self.run_root,
            salt=self.salt,
            plan_fingerprint=plan_fingerprint,
            run_id=self._requested_run_id,
        )
        self._checkpointed = set(self.run_dir.resumed_keys)
        self._completed = len(self._checkpointed)
        self.resumed_at_open = len(self._checkpointed)
        # the fold starts where the log stands, as attach's fold does
        self.status.checkpointed = self.resumed_at_open

    # ------------------------------------------------------------------
    # the phases, as an event generator
    # ------------------------------------------------------------------
    def stream(
        self, cells: Sequence[Cell], stage: str = ""
    ) -> Iterator[Event]:
        """Execute one sweep, yielding the typed event narration.

        ``self.last_results`` holds the folded results (cell order)
        once the generator is exhausted.  :meth:`run` is the plain
        call-and-collect wrapper.
        """
        cells = list(cells)
        total = len(cells)

        # ---- plan --------------------------------------------------
        # key computation and run-dir attach happen *before* the plan
        # event is emitted, so the run directory's own event log opens
        # with the full narration (including this first event)
        need_keys = self.cache is not None or self.run_root is not None
        keys: list[Optional[str]] = [
            cell.cache_key(self.salt) if need_keys else None
            for cell in cells
        ]
        if need_keys:
            self.plan_fingerprint = fingerprint(keys)
        if self.run_root is not None:
            assert self.plan_fingerprint is not None
            self._attach_run_dir(self.plan_fingerprint)
        yield self._event(
            PhaseStarted, phase="plan", stage=stage, cells=total
        )

        # ---- probe -------------------------------------------------
        yield self._event(
            PhaseStarted, phase="probe", stage=stage, cells=total
        )
        results: list[Any] = [None] * total
        counts = {"ran": 0, "hit": 0, "resumed": 0}
        pending: list[tuple[int, Cell, Optional[str]]] = []
        for index, (cell, key) in enumerate(zip(cells, keys)):
            outcome = None
            checkpointed = False
            if key is not None and self.run_dir is not None and (
                key in self._checkpointed
            ):
                entry = self.run_dir.results.get(key)
                if entry.hit:
                    results[index] = entry.value
                    outcome = "resumed"
            if outcome is None and key is not None and self.cache is not None:
                entry = self.cache.get(key)
                if entry.hit:
                    results[index] = entry.value
                    outcome = "hit"
                    # fold the hit into the run directory too, so a
                    # later resume is whole without the shared cache
                    if self.run_dir is not None and (
                        key not in self._checkpointed
                    ):
                        self._checkpoint(key, entry.value)
                        checkpointed = True
            if outcome is None:
                pending.append((index, cell, key))
                continue
            counts[outcome] += 1
            yield self._event(
                CellFinished,
                index=index,
                total=total,
                label=cell.display,
                outcome=outcome,
                seconds=0.0,
                key=key,
                stage=stage,
            )
            if checkpointed:
                assert key is not None
                yield self._event(
                    CheckpointWritten,
                    key=key,
                    completed=self._completed,
                    total=total,
                    stage=stage,
                )

        # ---- execute ----------------------------------------------
        yield self._event(
            PhaseStarted, phase="execute", stage=stage, cells=len(pending)
        )
        if self.schedule is not None and pending:
            # a queue-order permutation over positions in the pending
            # list; anything the schedule leaves out keeps natural
            # order at the tail (results still fold by cell index)
            picked = [
                i for i in self.schedule if 0 <= i < len(pending)
            ]
            picked_set = set(picked)
            rest = [
                i for i in range(len(pending)) if i not in picked_set
            ]
            queue_order = [pending[i] for i in dict.fromkeys(picked)]
            queue_order.extend(pending[i] for i in rest)
        else:
            queue_order = list(pending)
        for index, cell, key in queue_order:
            yield self._event(
                CellScheduled,
                index=index,
                label=cell.display,
                key=key,
                stage=stage,
            )
        by_index = {index: (cell, key) for index, cell, key in pending}
        workers = self._effective_jobs(len(pending))
        try:
            for index, value, seconds, profile in self._completions(
                queue_order, workers
            ):
                cell, key = by_index[index]
                if key is not None and self.cache is not None:
                    self.cache.put(key, value)
                results[index] = value
                counts["ran"] += 1
                profile = profile or {}
                yield self._event(
                    CellFinished,
                    index=index,
                    total=total,
                    label=cell.display,
                    outcome="ran",
                    seconds=seconds,
                    key=key,
                    stage=stage,
                    utime_s=profile.get("utime_s", 0.0),
                    stime_s=profile.get("stime_s", 0.0),
                    max_rss_kb=profile.get("max_rss_kb", 0.0),
                )
                if key is not None and self.run_dir is not None:
                    self._checkpoint(key, value)
                    yield self._event(
                        CheckpointWritten,
                        key=key,
                        completed=self._completed,
                        total=total,
                        stage=stage,
                    )
                    # fault injection: the yield above has been
                    # dispatched to every sink by the time we resume,
                    # so the kill lands exactly on a cell boundary
                    # with the checkpoint durable
                    self._maybe_kill()
        except KeyboardInterrupt:
            self._flush_for_interrupt()
            yield self._event(
                Interrupted,
                completed=self._completed,
                total=total,
                reason="keyboard-interrupt",
                stage=stage,
            )
            raise
        except WorkerCrash:
            self._flush_for_interrupt()
            yield self._event(
                Interrupted,
                completed=self._completed,
                total=total,
                reason="worker-crash",
                stage=stage,
            )
            raise

        # ---- fold --------------------------------------------------
        yield self._event(
            PhaseStarted, phase="fold", stage=stage, cells=total
        )
        self.last_results = results
        yield self._event(
            Finished,
            cells=total,
            ran=counts["ran"],
            hits=counts["hit"],
            resumed=counts["resumed"],
            stage=stage,
        )

    # ------------------------------------------------------------------
    def run(self, cells: Sequence[Cell], stage: str = "") -> list[Any]:
        """Execute a sweep, dispatching events to every sink."""
        for event in self.stream(cells, stage=stage):
            for sink in self._sinks:
                sink(event)
        return self.last_results

    # ------------------------------------------------------------------
    # execution sources
    # ------------------------------------------------------------------
    def _effective_jobs(self, pending: int) -> int:
        if self.jobs <= 1 or pending <= 1 or not fork_available():
            return 1
        return min(self.jobs, pending)

    def _completions(
        self,
        queue_order: Sequence[tuple[int, Cell, Optional[str]]],
        workers: int,
    ) -> Iterator[tuple[int, Any, float, Optional[Profile]]]:
        tasks: list[Task] = [
            (index, cell.fn, dict(cell.kwargs))
            for index, cell, _key in queue_order
        ]
        if workers <= 1:
            for index, fn, kwargs in tasks:
                value, seconds, profile = profiled_call(fn, kwargs)
                yield index, value, seconds, profile
            return
        pool = WorkStealingPool(workers, health=self.worker_health)
        yield from pool.iter_results(tasks)

    # ------------------------------------------------------------------
    # durability
    # ------------------------------------------------------------------
    def _checkpoint(self, key: str, value: Any) -> None:
        """Store the result; the caller then emits its checkpoint.

        The value lands in the run directory's result store *before*
        the ``checkpoint_written`` line that declares it complete
        (written and fsynced by :meth:`_event`), so a crash between
        the two leaves an unreferenced store entry (harmless) rather
        than a checkpointed cell with no result (which a resume would
        have to re-execute anyway, via the store-miss fallback).
        """
        assert self.run_dir is not None
        self.run_dir.results.put(key, value)
        self._checkpointed.add(key)
        self._completed += 1

    def _flush_for_interrupt(self) -> None:
        """Interrupt hygiene: log durable, no stranded temp files."""
        if self.run_dir is not None:
            self.run_dir.log.sync()
            self.run_dir.results.sweep_temps()
        if self.cache is not None:
            self.cache.sweep_temps()

    def _maybe_kill(self) -> None:
        if self.kill_after is not None and self._completed >= self.kill_after:
            os.kill(os.getpid(), signal.SIGKILL)

    def close(self) -> None:
        if self.run_dir is not None:
            self.run_dir.close()
        for sink in self._sinks:
            closer = getattr(sink, "close", None)
            if callable(closer):
                closer()

    def __repr__(self) -> str:
        cached = "on" if self.cache is not None else "off"
        run_id = self.run_dir.run_id if self.run_dir is not None else None
        return (
            f"<Engine jobs={self.jobs} cache={cached} run={run_id}>"
        )


__all__ = [
    "ENV_JOBS",
    "ENV_KILL_AFTER",
    "Engine",
    "resolve_jobs",
]
