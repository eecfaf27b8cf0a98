"""SIM008 — determinism: direct reads and interprocedural taint.

A single ``time.time()`` (or friend) on a decision path makes a run a
function of the host machine's load instead of the seed; a draw from
a global or entropy-seeded RNG entangles streams so that any
reordering silently changes every number downstream.  Serial and
parallel sweeps then diverge, cache replay stops being byte-identical,
and the queue ≡ sorted-list reference suite loses its meaning.  SIM008
is the one rule for these sources, whether code reads them in place
or through any chain of helpers.

The lattice is deliberately binary: a function is *tainted* when it can
reach a determinism source (wall-clock read, nondeterministic RNG,
host-ordering primitive) through any chain of statically-resolved
calls, and *clean* otherwise.  Propagation is a breadth-first fixpoint
over the reversed call graph, seeded at every unsuppressed source, so
each tainted function records a **shortest witness path** down to a
concrete primitive — that path is what the violation message summarises
and ``--explain SIM008`` prints edge-by-edge.

Flagging policy — zero hops (the read itself, in a function body, a
class body or at module level):

* a wall-clock read is flagged in every module except
  :data:`WALL_CLOCK_ALLOWLIST`;
* nondeterministic randomness is flagged in every module, with no
  allowlist;
* an ordering source (``os.environ`` and friends) is flagged in the
  sink domains below.

One or more hops: a call site is flagged when its resolved callee is
tainted and the caller is a sink — a function in
:data:`SINK_DOMAINS` outside :data:`WALL_CLOCK_ALLOWLIST`.  The
allowlist is *lifted to the sink*: ``repro.perf`` may read the clock,
but it still seeds taint into any sim-domain caller, which is exactly
the laundering a per-module check cannot see.

``# simlint: disable=SIM008`` on a **source** line both silences its
zero-hop finding and kills the taint at the root (the suppressed
source contributes nothing anywhere — the Hypothesis property in
``tests/test_analysis_interproc.py`` pins this); on a **call site**
line it silences that one finding only.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional

from repro.analysis.core import Violation
from repro.analysis.rules.base import SIM_DOMAINS, module_in
from repro.analysis.interproc.callgraph import ProjectIndex, TaintSource

RULE_ID = "SIM008"

#: Modules that measure *real* wall time on purpose and are therefore
#: outside the deterministic core: their clock reads are not flagged and
#: they are not sinks.  They still seed taint into their callers.
#:
#: ``repro.perf``
#:     The profiling subsystem.  Capturing wall-clock cost of the
#:     simulator is its entire job; it never runs inside a simulation.
#: ``benchmarks``
#:     The benchmark harness.  It times the simulator from the outside;
#:     the simulated work it drives stays on the virtual clock.
#: ``repro.exec.queue``
#:     The engine's work-stealing pool stamps each cell with its wall
#:     duration and CPU/RSS resource profile (``profiled_call``:
#:     ``perf_counter``, ``os.times`` / ``resource.getrusage``), and
#:     worker heartbeats with a timestamp — progress reporting, event-stream
#:     metadata and the ops plane's liveness ledger.  None of it ever
#:     feeds back into any result; the event-stream golden test
#:     normalises all of it to zero because it is presentation-only.
#: ``repro.experiments.overhead``
#:     Reproduces the paper's overhead table, whose whole point is
#:     comparing *real* recognition cost against the oracle — the one
#:     experiment where wall time is the measured quantity.
#: ``repro.experiments.__main__``
#:     CLI progress output ("[fig5 took 12.3s]"); presentation only.
#: ``repro.telemetry.exposition``
#:     The telemetry *export* layer stamps artifacts (Prometheus text,
#:     JSONL) with the wall-clock moment they were written — host-side
#:     provenance, recorded after the simulation finished, never an
#:     input to it.  The recording layers (``repro.telemetry.registry``
#:     / ``spans`` / ``audit``) stay on the virtual clock and remain
#:     fully audited; the fixture ``sim001_telemetry_flagged.py`` proves
#:     an unguarded wall-clock read there still fails, and
#:     ``sim002_exposition_flagged.py`` that exposition's RNG draws do.
WALL_CLOCK_ALLOWLIST: tuple[str, ...] = (
    "repro.perf",
    "benchmarks",
    "repro.exec.queue",
    "repro.experiments.overhead",
    "repro.experiments.__main__",
    "repro.telemetry.exposition",
)

#: Domains whose functions count as SIM008 sinks.  ``repro.ops`` is a
#: sink on top of the sim domains: the observation plane must stay a
#: pure *reader* of host facts, so an unwaived clock read reachable
#: from ops code is flagged interprocedurally (the fixture
#: ``tests/analysis_fixtures/interproc/sim008_ops_unwaived.py`` proves
#: it still fires there).
SINK_DOMAINS: tuple[str, ...] = (*SIM_DOMAINS, "repro.ops")


@dataclass(frozen=True, slots=True)
class TaintInfo:
    """Why a function is tainted: the primitive plus the witness chain."""

    source: TaintSource
    #: Module where the primitive source lives.
    source_module: str
    #: Function refs from this function (exclusive) down to the function
    #: containing the primitive (inclusive), shortest-path order.
    chain: tuple[str, ...]

    def describe(self) -> str:
        hops = " -> ".join((*self.chain, f"{self.source.call}()"))
        return f"{self.source.label} [path: {hops}]"


class TaintAnalysis:
    """Fixpoint taint over a :class:`ProjectIndex`."""

    def __init__(self, index: ProjectIndex) -> None:
        self.index = index
        #: function ref → taint witness (absent = proven-clean under the
        #: resolution envelope).
        self.tainted: dict[str, TaintInfo] = {}
        self._propagate()

    # ------------------------------------------------------------------
    def _propagate(self) -> None:
        # reverse edges: callee ref → caller refs (deterministic order)
        callers: dict[str, list[str]] = {}
        for ref, (summary, fn) in self.index.iter_functions():
            for call in fn.calls:
                callee_ref, entries = self.index.resolve_callable(call.target)
                if entries and callee_ref != ref:
                    callers.setdefault(callee_ref, []).append(ref)

        queue: deque[str] = deque()
        # seed: functions containing an unsuppressed source
        for ref, (summary, fn) in self.index.iter_functions():
            if ref in self.tainted:
                continue
            source = next((s for s in fn.sources if not s.suppressed), None)
            if source is not None:
                self.tainted[ref] = TaintInfo(
                    source=source, source_module=summary.module, chain=(ref,)
                )
                queue.append(ref)

        while queue:
            callee_ref = queue.popleft()
            info = self.tainted[callee_ref]
            for caller_ref in callers.get(callee_ref, ()):  # BFS = shortest
                if caller_ref in self.tainted:
                    continue
                self.tainted[caller_ref] = TaintInfo(
                    source=info.source,
                    source_module=info.source_module,
                    chain=(caller_ref, *info.chain),
                )
                queue.append(caller_ref)

    # ------------------------------------------------------------------
    def taint_of(self, ref: str) -> Optional[TaintInfo]:
        return self.tainted.get(ref)

    def callee_taint(self, target: str) -> Optional[tuple[str, TaintInfo]]:
        """Taint of a call target, resolving aliases; None when clean."""
        callee_ref, entries = self.index.resolve_callable(target)
        if not entries:
            return None
        info = self.tainted.get(callee_ref)
        if info is None:
            return None
        return callee_ref, info


def _is_sink(module: str) -> bool:
    return module_in(module, SINK_DOMAINS) and not module_in(
        module, WALL_CLOCK_ALLOWLIST
    )


def _flags_read(source: TaintSource, module: str) -> bool:
    """Zero-hop scope: is reading ``source`` in ``module`` a finding?"""
    if source.suppressed:
        return False
    if source.kind == "rng":
        return True
    if source.kind == "wall-clock":
        return not module_in(module, WALL_CLOCK_ALLOWLIST)
    return _is_sink(module)


def _read_violation(
    index: ProjectIndex,
    path: str,
    chain: tuple[str, ...],
    source: TaintSource,
) -> Violation:
    return Violation(
        rule_id=RULE_ID,
        path=path,
        line=source.line,
        col=source.col,
        message=source.reason,
        trace=render_trace(index, chain, source),
    )


def render_trace(
    index: ProjectIndex, chain: tuple[str, ...], source: TaintSource
) -> tuple[str, ...]:
    """One rendered hop per line for ``--explain`` / SARIF."""
    hops: list[str] = []
    for ref in chain:
        _, entries = index.resolve_callable(ref)
        if entries:
            summary, fn = entries[0]
            hops.append(f"{ref} ({summary.path}:{fn.line})")
        else:
            hops.append(ref)
    hops.append(f"{source.call}() at line {source.line} [{source.kind}]")
    return tuple(hops)


def taint_violations(
    index: ProjectIndex, taint: TaintAnalysis
) -> list[Violation]:
    """SIM008 findings: direct source reads, and sinks that reach one."""
    found: list[Violation] = []
    for summary in index.summaries:
        found.extend(
            _read_violation(index, summary.path, (), source)
            for source in summary.module_sources
            if _flags_read(source, summary.module)
        )
    for ref, (summary, fn) in index.iter_functions():
        found.extend(
            _read_violation(index, summary.path, (ref,), source)
            for source in fn.sources
            if _flags_read(source, summary.module)
        )
        if not _is_sink(summary.module):
            continue
        # calls into tainted callees, wherever the source lives
        for call in fn.calls:
            if summary.suppressed_at(call.line, RULE_ID):
                continue
            hit = taint.callee_taint(call.target)
            if hit is None:
                continue
            callee_ref, info = hit
            found.append(
                Violation(
                    rule_id=RULE_ID,
                    path=summary.path,
                    line=call.line,
                    col=call.col,
                    message=(
                        f"call to {callee_ref} reaches {info.describe()}; "
                        "sim-domain code must be a pure function of the seed"
                    ),
                    trace=render_trace(
                        index, (ref, *info.chain), info.source
                    ),
                )
            )
    found.sort(key=lambda v: (v.path, v.line, v.col))
    return found


__all__ = [
    "RULE_ID",
    "render_trace",
    "SINK_DOMAINS",
    "TaintAnalysis",
    "TaintInfo",
    "WALL_CLOCK_ALLOWLIST",
    "taint_violations",
]
