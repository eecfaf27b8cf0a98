"""The work-stealing worker pool behind the engine's execute phase.

Earlier revisions fanned cells out through a ``ProcessPoolExecutor``
whose up-front submission amounted to a static split; fleet and fuzz
sweeps have wildly uneven cell costs (a consolidation epoch on a
packed host vs. an idle one), which left cores cold behind the long
tail.  This pool keeps a single shared ``multiprocessing`` task queue:
every forked worker pulls its next cell the moment it finishes the
last one — work-stealing by construction, with no partitioning to get
wrong.  Results carry their cell index, so the fold order (and
therefore every downstream byte) is independent of which worker ran
what and in which interleaving — the Hypothesis property in
``tests/test_exec_engine.py`` pins exactly that.

This module is the **only sanctioned process-pool entry point** in the
tree: simlint's SIM007 flags any other ``multiprocessing`` /
``ProcessPoolExecutor`` use, so ad-hoc pools cannot bypass the
engine's checkpointing and event stream.

Wall-clock note: per-cell ``perf_counter`` timing, the ``os.times`` /
``resource.getrusage`` resource profiles and the heartbeat wall stamps
here are progress/ops metadata only (simlint's SIM008 wall-clock
allowlist names ``repro.exec.queue``); none of it ever feeds a result.
"""

from __future__ import annotations

import copy
import multiprocessing
import os
import pickle
import queue as stdlib_queue
import resource
import threading
import time
from multiprocessing.process import BaseProcess
from typing import Any, Callable, Iterator, Mapping, Optional, Sequence

#: one unit of queued work: (cell index, function, kwargs)
Task = tuple[int, Callable[..., Any], dict[str, Any]]

#: per-cell resource profile: utime_s / stime_s / max_rss_kb — progress
#: and ops-plane metadata, never an input to any result
Profile = dict[str, float]

#: callback fired in the parent as each result arrives (completion
#: order, not index order): (index, value, seconds)
ResultCallback = Callable[[int, Any, float], None]


class WorkerCrash(RuntimeError):
    """A pool worker died without delivering its result."""


def fork_available() -> bool:
    return "fork" in multiprocessing.get_all_start_methods()


def timed_call(
    fn: Callable[..., Any], kwargs: Mapping[str, Any]
) -> tuple[Any, float]:
    """Run one cell on a private copy of its kwargs, timing it.

    The deepcopy mirrors the isolation a forked worker gets for free:
    a policy object mutated by ``setup()`` never leaks back into the
    caller's cell, whose pristine state the cache key was computed
    from.  Module-level so it pickles across the fork.
    """
    start = time.perf_counter()
    value = fn(**copy.deepcopy(dict(kwargs)))
    return value, time.perf_counter() - start


def profiled_call(
    fn: Callable[..., Any], kwargs: Mapping[str, Any]
) -> tuple[Any, float, Profile]:
    """:func:`timed_call` plus a per-cell resource profile.

    utime/stime come from ``os.times()`` deltas around the call and
    peak RSS from ``resource.getrusage`` — observability metadata for
    ``CellFinished`` events, the checkpoint journal and the slowest-
    cells tables, exactly like the wall duration (the event-stream
    golden test normalises all of it to zero).  ``ru_maxrss`` is the
    process-lifetime peak, so on a reused worker it is an upper bound
    per cell, not an exact per-cell delta.
    """
    before = os.times()
    start = time.perf_counter()
    value = fn(**copy.deepcopy(dict(kwargs)))
    seconds = time.perf_counter() - start
    after = os.times()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    profile: Profile = {
        "utime_s": max(0.0, after.user - before.user),
        "stime_s": max(0.0, after.system - before.system),
        "max_rss_kb": float(usage.ru_maxrss),
    }
    return value, seconds, profile


class WorkerHealth:
    """Parent-side worker liveness ledger, fed by queue heartbeats.

    Purely observational: the engine's control flow never reads it — it
    exists so the ops plane (``/metrics`` worker gauges, ``/status``)
    can report which workers are alive, what each is chewing on, and
    when it was last heard from.  Heartbeats ride the existing result
    queue (one at task pickup, one after each completion), so there is
    no extra channel and no polling thread.  Thread-safe because the
    engine thread writes while ops HTTP threads snapshot.
    """

    __slots__ = ("_lock", "_workers")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._workers: dict[int, dict[str, Any]] = {}

    def _entry(self, worker_id: int) -> dict[str, Any]:
        return self._workers.setdefault(
            worker_id,
            {
                "pid": None,
                "last_beat_unix": None,
                "busy_index": None,
                "beats": 0,
                "alive": True,
                "exitcode": None,
            },
        )

    def started(self, worker_id: int, pid: Optional[int]) -> None:
        with self._lock:
            entry = self._entry(worker_id)
            entry["pid"] = pid
            entry["alive"] = True
            entry["exitcode"] = None

    def beat(
        self,
        worker_id: int,
        pid: int,
        wall_ts: float,
        busy_index: Optional[int],
    ) -> None:
        """One heartbeat: ``busy_index`` is the cell being executed, or
        ``None`` when the worker just went idle."""
        with self._lock:
            entry = self._entry(worker_id)
            entry["pid"] = pid
            entry["last_beat_unix"] = wall_ts
            entry["busy_index"] = busy_index
            entry["beats"] = int(entry["beats"]) + 1

    def mark_dead(self, worker_id: int, exitcode: Optional[int]) -> None:
        with self._lock:
            entry = self._entry(worker_id)
            entry["alive"] = False
            entry["exitcode"] = exitcode
            entry["busy_index"] = None

    def snapshot(self) -> dict[str, Any]:
        """A picklable copy for ``/status`` and ``/metrics``."""
        with self._lock:
            workers = {
                str(worker_id): dict(entry)
                for worker_id, entry in sorted(self._workers.items())
            }
        live = sum(1 for entry in workers.values() if entry["alive"])
        return {
            "workers": workers,
            "known": len(workers),
            "live": live,
            "dead": len(workers) - live,
        }


def _worker(
    worker_id: int,
    task_queue: "multiprocessing.queues.Queue[Optional[Task]]",
    result_queue: "multiprocessing.queues.Queue[tuple[Any, ...]]",
) -> None:
    """Worker loop: steal, execute, report; ``None`` is the stop token.

    Besides ``("ok"|"error", index, payload, seconds, profile)`` result
    tuples, the worker emits ``("hb", worker_id, pid, wall_ts, index)``
    heartbeats — one when it picks a task up (``index`` set) and one
    after it reports the result (``index=None`` — idle).  The parent
    folds those into :class:`WorkerHealth` without counting them
    against outstanding work.
    """
    pid = os.getpid()
    while True:
        try:
            item = task_queue.get()
        except KeyboardInterrupt:  # Ctrl-C fan-out while idle: die quietly
            return
        if item is None:
            return
        index, fn, kwargs = item
        result_queue.put(("hb", worker_id, pid, time.time(), index))
        # BaseException on purpose: a cell raising KeyboardInterrupt must
        # be *reported*, not swallowed — a worker that exits cleanly with
        # an outstanding cell would leave the parent polling forever.
        # No simulation runs in this frame beyond the cell itself.
        try:
            value, seconds, profile = profiled_call(fn, kwargs)
        except BaseException as exc:  # simlint: disable=SIM006
            payload: Any = exc
            try:  # the queue pickles in a feeder thread; probe up front
                pickle.dumps(exc)
            # pickling a caught exception cannot raise SimulationError;
            # any failure must degrade to the repr, never propagate
            except Exception:  # simlint: disable=SIM006
                payload = repr(exc)  # unpicklable: degrade to its repr
            result_queue.put(("error", index, payload, 0.0, None))
            if isinstance(exc, KeyboardInterrupt):
                return  # a real Ctrl-C is process-wide: stop stealing
            continue
        result_queue.put(("ok", index, value, seconds, profile))
        result_queue.put(("hb", worker_id, pid, time.time(), None))


class WorkStealingPool:
    """Fork ``workers`` processes over one shared task queue."""

    def __init__(
        self, workers: int, health: Optional[WorkerHealth] = None
    ) -> None:
        if workers < 1:
            raise ValueError(f"need at least one worker, got {workers}")
        if not fork_available():
            raise RuntimeError(
                "work-stealing pool needs the fork start method"
            )
        self.workers = workers
        #: optional liveness ledger the parent folds heartbeats into
        self.health = health

    def iter_results(
        self, tasks: Sequence[Task]
    ) -> Iterator[tuple[int, Any, float, Optional[Profile]]]:
        """Execute every task, yielding results in completion order.

        Tasks are enqueued in the given order (the engine may permute
        it — results are index-addressed, so any steal interleaving
        folds identically).  A cell exception or a dead worker tears
        the pool down and re-raises in the parent; a
        ``KeyboardInterrupt`` (or an abandoned generator) terminates
        the workers before propagating, so Ctrl-C never leaves orphan
        processes behind.  Heartbeat tuples are folded into
        :attr:`health` as they drain and never count as completions.
        """
        context = multiprocessing.get_context("fork")
        task_queue: Any = context.Queue()
        result_queue: Any = context.Queue()
        for task in tasks:
            task_queue.put(task)
        for _ in range(self.workers):
            task_queue.put(None)  # stop token per worker

        processes: list[BaseProcess] = [
            context.Process(
                target=_worker,
                args=(worker_id, task_queue, result_queue),
                daemon=True,
            )
            for worker_id in range(min(self.workers, max(1, len(tasks))))
        ]
        for process in processes:
            process.start()
        if self.health is not None:
            for worker_id, process in enumerate(processes):
                self.health.started(worker_id, process.pid)
        outstanding = len(tasks)
        clean = False
        try:
            while outstanding:
                try:
                    item = result_queue.get(timeout=0.2)
                except stdlib_queue.Empty:
                    dead = [
                        p for p in processes
                        if p.exitcode not in (None, 0)
                    ]
                    if dead:
                        if self.health is not None:
                            for worker_id, process in enumerate(processes):
                                if process.exitcode not in (None, 0):
                                    self.health.mark_dead(
                                        worker_id, process.exitcode
                                    )
                        raise WorkerCrash(
                            f"{len(dead)} worker(s) died with exit codes "
                            f"{sorted(p.exitcode for p in dead)} while "
                            f"{outstanding} cell(s) were outstanding"
                        ) from None
                    continue
                status = item[0]
                if status == "hb":
                    _, worker_id, pid, wall_ts, busy_index = item
                    if self.health is not None:
                        self.health.beat(worker_id, pid, wall_ts, busy_index)
                    continue
                _, index, value, seconds, profile = item
                outstanding -= 1
                if status == "error":
                    if isinstance(value, BaseException):
                        raise value
                    raise WorkerCrash(f"cell {index} failed: {value}")
                yield index, value, seconds, profile
            clean = True
        finally:
            if not clean:
                for process in processes:
                    if process.is_alive():
                        process.terminate()
            for process in processes:
                process.join(timeout=2.0)

    def run(self, tasks: Sequence[Task], on_result: ResultCallback) -> None:
        """Callback flavour of :meth:`iter_results` (profile dropped)."""
        for index, value, seconds, _profile in self.iter_results(tasks):
            on_result(index, value, seconds)


__all__ = [
    "Profile",
    "ResultCallback",
    "Task",
    "WorkStealingPool",
    "WorkerCrash",
    "WorkerHealth",
    "fork_available",
    "profiled_call",
    "timed_call",
]
