"""SIM001 — wall-clock reads inside simulation code.

A single ``time.time()`` (or friend) on a decision path makes a run a
function of the host machine's load instead of the seed: serial and
parallel sweeps diverge, cache replay stops being byte-identical, and
the queue≡sorted-list-reference differential suite loses its
meaning.  Simulation code must read the virtual clock
(``Simulator.now``) exclusively.

Allowlist — every entry measures *real* wall time on purpose and is
therefore outside the deterministic core:

``repro.perf``
    The profiling subsystem.  Capturing wall-clock cost of the
    simulator is its entire job; it never runs inside a simulation.
``benchmarks``
    The benchmark harness (``benchmarks/run_bench.py`` and the
    pytest-benchmark scenarios).  It times the simulator from the
    outside to maintain ``BENCH_sim.json``; the simulated work it
    drives stays on the virtual clock.
``repro.exec.queue``
    The engine's work-stealing pool stamps each cell with its wall
    duration (``timed_call``), its CPU/RSS resource profile
    (``profiled_call``: ``os.times`` / ``resource.getrusage``) and
    worker heartbeat timestamps — progress reporting, event-stream
    metadata and the ops plane's liveness ledger.  None of it ever
    feeds back into any result — the event-stream golden test
    normalises all of it to zero precisely because it is
    presentation-only.
``repro.experiments.overhead``
    Reproduces the paper's overhead table, whose whole point is
    comparing *real* recognition cost against the oracle — the one
    experiment where wall time is the measured quantity.
``repro.experiments.__main__``
    CLI progress output ("[fig5 took 12.3s]"); presentation only.
``repro.telemetry.exposition``
    The telemetry *export* layer stamps artifacts (Prometheus text,
    JSONL) with the wall-clock moment they were written — host-side
    provenance, recorded after the simulation finished, never an input
    to it.  The recording layers (``repro.telemetry.registry``/
    ``spans``/``audit``) stay on the virtual clock and remain fully
    audited; the fixture ``sim001_telemetry_flagged.py`` proves an
    unguarded wall-clock read there still fails.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterable

from repro.analysis.core import Violation
from repro.analysis.rules.base import Rule

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.analysis.core import ModuleContext

#: Canonical dotted names of wall-clock reads (import aliases are
#: resolved before matching, so ``from time import time; time()`` and
#: ``np_time()`` under ``as`` renames are all caught).
WALL_CLOCK_NAMES = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
        "os.times",
        "resource.getrusage",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)


class WallClockRule(Rule):
    rule_id = "SIM001"
    description = (
        "wall-clock read in simulation code; use the virtual clock "
        "(Simulator.now) — wall timing belongs in repro.perf/benchmarks"
    )
    interests = (ast.Call,)
    allowlist = (
        "repro.perf",
        "benchmarks",
        "repro.exec.queue",
        "repro.experiments.overhead",
        "repro.experiments.__main__",
        "repro.telemetry.exposition",
    )

    def visit(self, node: ast.AST, ctx: "ModuleContext") -> Iterable[Violation]:
        assert isinstance(node, ast.Call)
        resolved = ctx.resolve(node.func)
        if resolved in WALL_CLOCK_NAMES:
            yield self.violation(
                ctx,
                node,
                f"wall-clock read {resolved}() makes the run depend on host "
                "load, not the seed; read the simulator clock instead",
            )


__all__ = ["WALL_CLOCK_NAMES", "WallClockRule"]
