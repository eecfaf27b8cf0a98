"""Run a scenario under a policy and collect per-app performance.

The protocol mirrors the paper's evaluation: build the colocation,
apply the scheduling policy, warm up (enough for vTRS to converge and
caches to settle), open the measurement window, and report each
application's metric.  Results are normalised against a run of the
same scenario under native Xen by the per-figure experiment modules.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.baselines.base import Policy
from repro.core.types import VCpuType
from repro.experiments.scenarios import BuiltScenario, Scenario, build_scenario
from repro.sim.units import SEC
from repro.telemetry import Telemetry
from repro.workloads.base import PerfResult


@dataclass
class ScenarioRun:
    """Everything one scenario x policy run produced."""

    scenario: str
    policy: str
    results: dict[str, PerfResult] = field(default_factory=dict)
    #: mean result per placement key (CPU placements span several unit
    #: VMs named "key.N"; this folds them back together)
    by_placement: dict[str, float] = field(default_factory=dict)
    detected_types: dict[int, VCpuType] = field(default_factory=dict)
    pool_layout: list[tuple[str, int, int, int]] = field(default_factory=list)
    #: flat ``qualified-name -> value`` aggregate from the machine's
    #: telemetry (empty unless run with ``telemetry=True``); plain
    #: floats keyed by sorted strings, so it pickles through sweep
    #: workers and the result cache without touching equivalence
    telemetry_summary: dict[str, float] = field(default_factory=dict)
    #: the live machine when run with ``keep_built=True``; never
    #: serialized — a built scenario holds the whole simulator graph
    #: (RNG state, event queue, guest threads), which neither pickles
    #: nor belongs in a result cache
    built: Optional[BuiltScenario] = None

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["built"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)


def _placement_key(result_name: str) -> str:
    """bzip2.3 -> bzip2; specweb2009 -> specweb2009."""
    head, _, tail = result_name.rpartition(".")
    if head and tail.isdigit():
        return head
    return result_name


def placement_means(values: dict[str, float]) -> dict[str, float]:
    """Per-workload values -> mean per placement key."""
    groups: dict[str, list[float]] = {}
    for name, value in values.items():
        groups.setdefault(_placement_key(name), []).append(value)
    return {key: sum(vs) / len(vs) for key, vs in groups.items()}


def run_scenario(
    scenario: Scenario,
    policy: Policy,
    warmup_ns: int = 2 * SEC,
    measure_ns: int = 4 * SEC,
    seed: int = 0,
    keep_built: bool = False,
    telemetry: bool = False,
) -> ScenarioRun:
    """Build, configure, warm up, measure.

    With ``telemetry=True`` the machine records counters, spans and the
    vTRS/AQL decision audit; the run's flat aggregate lands in
    ``ScenarioRun.telemetry_summary`` and the full recorder stays
    reachable via ``run.built.machine.telemetry`` when ``keep_built``.
    Telemetry is a pure function of the virtual clock, so enabling it
    never changes results — only records them.
    """
    recorder = Telemetry(enabled=True) if telemetry else None
    built = build_scenario(scenario, seed=seed, telemetry=recorder)
    policy.setup(built.machine, built.ctx)
    built.machine.run(warmup_ns)
    for workload in built.workloads.values():
        workload.begin_measurement()
    built.machine.run(measure_ns)
    built.machine.sync()

    run = ScenarioRun(scenario=scenario.name, policy=policy.name)
    for name, workload in built.workloads.items():
        run.results[name] = workload.result()

    run.by_placement = placement_means(
        {name: result.value for name, result in run.results.items()}
    )

    manager = getattr(policy, "manager", None)
    if manager is not None:
        run.detected_types = dict(manager.last_types)
    run.pool_layout = [
        (pool.name, pool.quantum_ns, len(pool.pcpus), len(pool.vcpus))
        for pool in built.machine.pools
    ]
    if recorder is not None:
        recorder.tracer.close_all(built.machine.sim.now)
        run.telemetry_summary = recorder.summary()
    if keep_built:
        run.built = built
    return run


__all__ = ["ScenarioRun", "run_scenario", "_placement_key"]
