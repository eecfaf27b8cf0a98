"""Per-layer instruments, all started from the benchmark's own files.

* :class:`EventCounter` counts simulated events through the public
  ``Machine.run`` entry point and ``Simulator.events_fired`` state.
* :class:`PhaseClock` is an engine sink: it times the plan, probe,
  execute and fold phases from the arrival of ``PhaseStarted`` and
  ``Finished`` events, and tallies cell outcomes and CPU time from
  ``CellFinished``.
* :func:`rollup` reduces a ``cProfile`` capture to self-time shares per
  defining ``repro`` module plus call counts of named functions.
"""

from __future__ import annotations

import pstats
import time
from pathlib import Path
from typing import Any, Optional

import repro
from repro.exec import CellFinished, Finished, PhaseStarted
from repro.hypervisor.machine import Machine

REPRO_DIR = Path(repro.__file__).resolve().parent

#: the layers a self-time share is reported for: a ``repro`` module or
#: package; the longest matching name wins (so ``exec`` is the engine
#: package minus the three modules listed after it).  Self time
#: elsewhere in ``repro`` is ``repro.other``, outside it ``python``, so
#: the shares of one capture sum to 1.
LAYERS = (
    "hardware.cache",
    "hardware.pmu",
    "hardware.ple",
    "sim.engine",
    "hypervisor.machine",
    "hypervisor.credit",
    "hypervisor.event_channel",
    "guest",
    "workloads",
    "core",
    "telemetry",
    "exec",
    "exec.checkpoint",
    "exec.events",
    "exec.queue",
    "dynamics",
    "fuzz",
)
OTHER = "repro.other"
PYTHON = "python"

#: call-count metrics: name -> (defining module, function name)
CALLS = {
    "hardware.cache.integrate_calls": ("hardware.cache", "integrate_duration"),
    "hypervisor.credit.pick_next_calls": ("hypervisor.credit", "pick_next"),
    "core.vtrs.sample_all_calls": ("core.vtrs", "sample_all"),
    "core.aql.decide_calls": ("core.aql", "decide"),
    "hypervisor.machine.pool_plans_applied": (
        "hypervisor.machine", "apply_pool_plan"
    ),
}


class EventCounter:
    """Sum ``events_fired`` deltas over every ``Machine.run`` call.

    Wraps the class attribute for the duration of the ``with`` block.
    Only calls made in this process are seen, so workloads that simulate
    run their cells in-process.
    """

    def __init__(self) -> None:
        self.events = 0
        self._original: Any = None

    def __enter__(self) -> "EventCounter":
        original = self._original = Machine.run
        counter = self

        def run(machine: Machine, duration_ns: int) -> None:
            before = machine.sim.events_fired
            try:
                original(machine, duration_ns)
            finally:
                counter.events += machine.sim.events_fired - before

        Machine.run = run  # type: ignore[method-assign]
        return self

    def __exit__(self, *exc: object) -> None:
        Machine.run = self._original  # type: ignore[method-assign]


class PhaseClock:
    """Engine sink timing phases by event arrival; tallies outcomes."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.seconds = {"plan": 0.0, "probe": 0.0, "execute": 0.0,
                        "fold": 0.0}
        self.outcomes = {"ran": 0, "hit": 0, "resumed": 0}
        self.cell_cpu_s = 0.0
        self.cells = 0
        self._phase: Optional[str] = None
        self._since = 0.0

    def start(self) -> None:
        """Mark the call into the engine: the plan phase runs from here,
        so key hashing and run-directory attach (done before the plan
        event is emitted) count as plan time."""
        self._phase, self._since = "plan", time.perf_counter()

    def _lap(self, next_phase: Optional[str]) -> None:
        now = time.perf_counter()
        if self._phase is not None:
            self.seconds[self._phase] += now - self._since
        self._phase, self._since = next_phase, now

    def __call__(self, event: Any) -> None:
        if isinstance(event, PhaseStarted):
            if event.phase != "plan" or self._phase is None:
                self._lap(event.phase)
        elif isinstance(event, Finished):
            self._lap(None)
            self.outcomes["ran"] += event.ran
            self.outcomes["hit"] += event.hits
            self.outcomes["resumed"] += event.resumed
        elif isinstance(event, CellFinished):
            self.cells += 1
            self.cell_cpu_s += event.utime_s + event.stime_s


def module_of(filename: str) -> Optional[str]:
    """``<src>/repro/hardware/cache.py`` -> ``hardware.cache``; None
    for code outside the ``repro`` package."""
    path = Path(filename).resolve()
    if path.suffix != ".py" or REPRO_DIR not in path.parents:
        return None
    names = list(path.relative_to(REPRO_DIR).with_suffix("").parts)
    if names[-1] == "__init__":
        names.pop()
    return ".".join(names)


def layer_of(module: Optional[str]) -> str:
    if module is None:
        return PYTHON
    best = OTHER
    for layer in LAYERS:
        if module == layer or module.startswith(layer + "."):
            if best == OTHER or len(layer) > len(best):
                best = layer
    return best


def rollup(stats: pstats.Stats) -> dict[str, float]:
    """Self-time shares per layer, call counts, and check_invariants time."""
    raw = stats.stats  # type: ignore[attr-defined]
    self_time = {layer: 0.0 for layer in (*LAYERS, OTHER, PYTHON)}
    calls = {name: 0.0 for name in CALLS}
    integrate_s = invariant_s = 0.0
    for (filename, _line, func), (_cc, nc, tt, ct, _callers) in raw.items():
        module = module_of(filename)
        self_time[layer_of(module)] += tt
        for name, target in CALLS.items():
            if (module, func) == target:
                calls[name] += nc
        if (module, func) == ("hardware.cache", "integrate_duration"):
            integrate_s += ct
        if (module, func) == ("fuzz.invariants", "check_invariants"):
            invariant_s += ct
    total = sum(self_time.values()) or 1.0
    metrics = {f"{layer}.self_share": t / total
               for layer, t in self_time.items()}
    metrics.update(calls)
    integrates = calls["hardware.cache.integrate_calls"]
    metrics["hardware.cache.us_per_integrate"] = (
        integrate_s / integrates * 1e6 if integrates else 0.0
    )
    metrics["fuzz.invariant_s"] = invariant_s
    return metrics


__all__ = ["CALLS", "EventCounter", "LAYERS", "PhaseClock", "layer_of",
           "module_of", "rollup"]
