"""Fig. 6 + Table 5: AQL_Sched effectiveness.

Left: the five single-socket colocation scenarios (Table 4) under
native Xen vs AQL_Sched, per-application normalised performance and
the clusters AQL formed (Table 5).

Right: the multi-socket Fig. 3 population on the 4-socket machine;
besides the per-type aggregate we report the per-unit spread so the
paper's C90-without-disturbers vs C90-with-disturbers vs C30 ordering
of LLCF performance is visible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional, Sequence

from repro.baselines import AqlPolicy, XenCredit
from repro.exec import Cell
from repro.experiments.runner import (
    ScenarioRun,
    _placement_key,
    run_scenario,
)
from repro.experiments.scenarios import FIG3_POPULATION, SCENARIOS, Scenario
from repro.metrics.tables import ResultTable
from repro.sim.units import MS


@dataclass
class ScenarioComparison:
    scenario: str
    #: placement -> normalised perf of AQL vs Xen (lower = AQL better)
    normalized: dict[str, float] = field(default_factory=dict)
    #: per-unit normalised values (for the multi-socket spread)
    per_unit: dict[str, float] = field(default_factory=dict)
    aql_pools: list[tuple[str, int, int, int]] = field(default_factory=list)
    detected_types: dict[int, str] = field(default_factory=dict)


@dataclass
class Fig6Result:
    single_socket: dict[str, ScenarioComparison] = field(default_factory=dict)
    multi_socket: Optional[ScenarioComparison] = None


def _comparison_from_runs(
    scenario: Scenario, xen: ScenarioRun, aql: ScenarioRun
) -> ScenarioComparison:
    comparison = ScenarioComparison(scenario=scenario.name)
    for key, xen_value in xen.by_placement.items():
        comparison.normalized[key] = aql.by_placement[key] / xen_value
    for name, xen_result in xen.results.items():
        comparison.per_unit[name] = (
            aql.results[name].value / xen_result.value
        )
    comparison.aql_pools = aql.pool_layout
    comparison.detected_types = {
        vid: t.value for vid, t in aql.detected_types.items()
    }
    return comparison


#: the five Table 4 colocations on the single-socket machine
SINGLE_SOCKET: tuple[Scenario, ...] = tuple(
    SCENARIOS[name] for name in ("S1", "S2", "S3", "S4", "S5")
)
#: both panels: the single-socket scenarios, then the Fig. 3 population
FIG6_SCENARIOS = SINGLE_SOCKET + (FIG3_POPULATION,)


def plan_fig6(
    warmup_ns: int, measure_ns: int, seed: int = 1,
    scenarios: Sequence[Scenario] = FIG6_SCENARIOS,
) -> list[Cell]:
    """Xen + AQL cells for each scenario, interleaved per scenario."""
    timing = dict(warmup_ns=warmup_ns, measure_ns=measure_ns, seed=seed)
    return [
        Cell(run_scenario, dict(scenario=scenario, policy=policy, **timing),
             label=f"fig6:{scenario.name}:{policy.name}")
        for scenario in scenarios
        for policy in (XenCredit(), AqlPolicy())
    ]


def fold_fig6(
    results: list[ScenarioRun], scenarios: Sequence[Scenario] = FIG6_SCENARIOS,
    **_params: Any,
) -> Fig6Result:
    """Per-scenario comparisons; the Fig. 3 population is the right panel."""
    comparisons = {
        scenario.name: _comparison_from_runs(
            scenario, results[2 * i], results[2 * i + 1]
        )
        for i, scenario in enumerate(scenarios)
    }
    multi = comparisons.pop(FIG3_POPULATION.name, None)
    return Fig6Result(single_socket=comparisons, multi_socket=multi)


def render_fig6(result: Fig6Result) -> str:
    sections = []
    table = ResultTable(
        "Fig. 6 (left) — AQL_Sched vs native Xen, scenarios S1-S5"
        " (normalised, < 1 means AQL wins)",
        ["scenario", "application", "normalised"],
    )
    for name, comparison in result.single_socket.items():
        for key, value in comparison.normalized.items():
            table.add_row(name, key, value)
    sections.append(table.render())

    pools = ResultTable(
        "Table 5 — clusters AQL formed per scenario",
        ["scenario", "cluster", "quantum", "pCPUs", "vCPUs"],
    )
    for name, comparison in result.single_socket.items():
        for pool_name, quantum_ns, npcpus, nvcpus in comparison.aql_pools:
            pools.add_row(
                name, pool_name, f"{quantum_ns // MS}ms", npcpus, nvcpus
            )
    sections.append(pools.render())

    if result.multi_socket is not None:
        multi = ResultTable(
            "Fig. 6 (right) — multi-socket population (per-type aggregate"
            " and per-unit min/max)",
            ["type", "normalised", "best unit", "worst unit"],
        )
        grouped: dict[str, list[float]] = {}
        for unit, value in result.multi_socket.per_unit.items():
            grouped.setdefault(_placement_key(unit), []).append(value)
        for key, values in grouped.items():
            multi.add_row(
                key,
                sum(values) / len(values),
                min(values),
                max(values),
            )
        sections.append(multi.render())
    return "\n\n".join(sections)


__all__ = [
    "ScenarioComparison",
    "Fig6Result",
    "render_fig6",
]
