"""The sweep runner facade over the long-lived engine.

:class:`SweepRunner` keeps the API every experiment family programs
against (``run(cells)`` → results in cell order, ``jobs``/``cache``/
``salt``) while delegating execution to the phased
:class:`~repro.exec.engine.Engine`: cells fan out through the
work-stealing queue, completions journal to the run directory when one
is configured, and the engine's event stream feeds the ``sinks`` —
per-cell progress lines are one of them
(:class:`~repro.exec.progress.ProgressPrinter`).  Because every
simulation is seeded and deterministic (DESIGN.md §5/§7), serial,
parallel, cache-replayed and *resumed* execution produce identical
results — the equivalence tests in ``tests/test_exec_equivalence.py``
enforce all four legs.

Worker-count resolution: an explicit ``jobs`` argument wins, then the
``REPRO_JOBS`` environment variable, then 1 (serial).  ``jobs=1`` and
platforms without the ``fork`` start method always take the in-process
serial path; workers are forked, so they inherit the parent's imports
and hash seed and cost no re-import time.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Optional, Sequence, Union

from repro.exec.cache import ResultCache
from repro.exec.cells import Cell
from repro.exec.engine import ENV_JOBS, ENV_KILL_AFTER, Engine, resolve_jobs
from repro.exec.events import EventSink

__all__ = [
    "SweepRunner",
    "aggregate_telemetry",
    "resolve_jobs",
    "ENV_JOBS",
    "ENV_KILL_AFTER",
]


def aggregate_telemetry(results: Sequence[Any]) -> dict[str, float]:
    """Merge per-run telemetry summaries out of sweep results.

    Any result exposing a non-empty ``telemetry_summary`` mapping (a
    :class:`~repro.experiments.runner.ScenarioRun` run with
    ``telemetry=True``) contributes; other results are skipped.  Values
    are summed per qualified instrument name, ``telemetry_runs`` counts
    the contributing results, and keys come back sorted — the aggregate
    is a pure fold over per-cell values, so it is identical for serial,
    parallel, cache-replayed and resumed sweeps.  Empty when nothing
    contributed.
    """
    totals: dict[str, float] = {}
    contributing = 0
    for result in results:
        summary = getattr(result, "telemetry_summary", None)
        if not summary:
            continue
        contributing += 1
        for key, value in summary.items():
            totals[key] = totals.get(key, 0.0) + float(value)
    if not contributing:
        return {}
    aggregate = {key: totals[key] for key in sorted(totals)}
    aggregate["telemetry_runs"] = float(contributing)
    return aggregate


class SweepRunner:
    """Run independent sweep cells: parallel, cached, resumable."""

    def __init__(
        self,
        jobs: Optional[int] = None,
        cache: Optional[ResultCache] = None,
        salt: Optional[str] = None,
        run_root: Union[str, Path, None] = None,
        run_id: Optional[str] = None,
        sinks: Sequence[EventSink] = (),
    ):
        self.engine = Engine(
            jobs=jobs,
            cache=cache,
            salt=salt,
            run_root=run_root,
            run_id=run_id,
            sinks=sinks,
        )

    # -- the facade surface the experiment families program against ----
    @property
    def jobs(self) -> int:
        return self.engine.jobs

    @property
    def cache(self) -> Optional[ResultCache]:
        return self.engine.cache

    @property
    def salt(self) -> str:
        return self.engine.salt

    def run(self, cells: Sequence[Cell], stage: str = "") -> list[Any]:
        """Execute every cell; results come back in cell order.

        ``stage`` labels nested sweeps (a fleet epoch) in every event.
        """
        return self.engine.run(cells, stage=stage)

    def __repr__(self) -> str:
        cached = "on" if self.cache is not None else "off"
        return f"<SweepRunner jobs={self.jobs} cache={cached}>"
