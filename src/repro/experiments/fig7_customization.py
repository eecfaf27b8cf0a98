"""Fig. 7: the benefit of quantum-length customisation.

The Fig. 3 population runs with AQL's clustering active but the
per-cluster quantum customisation *discarded* — every pool forced to a
uniform small (1 ms), medium (30 ms) or large (90 ms) quantum.  Values
are normalised over the full AQL run (clustering + customisation), so
a bar above 1.0 means customisation helped that application class
(the paper's reading: true for almost all types; the small quantum
comes close except for LLCF).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.baselines import AqlPolicy
from repro.exec import Cell
from repro.experiments.runner import ScenarioRun, run_scenario
from repro.experiments.scenarios import FIG3_POPULATION
from repro.metrics.tables import ResultTable
from repro.sim.units import MS

UNIFORM_QUANTA_MS = {"small": 1, "medium": 30, "large": 90}


@dataclass
class Fig7Result:
    #: variant -> placement -> value normalised over full AQL
    normalized: dict[str, dict[str, float]] = field(default_factory=dict)


def plan_fig7(warmup_ns: int, measure_ns: int, seed: int = 1) -> list[Cell]:
    """Full AQL, then AQL forced to each uniform quantum."""
    policies = [AqlPolicy()] + [
        AqlPolicy(uniform_quantum_ns=quantum_ms * MS)
        for quantum_ms in UNIFORM_QUANTA_MS.values()
    ]
    timing = dict(warmup_ns=warmup_ns, measure_ns=measure_ns, seed=seed)
    return [
        Cell(run_scenario, dict(scenario=FIG3_POPULATION, policy=policy,
                                **timing), label=f"fig7:{policy.name}")
        for policy in policies
    ]


def fold_fig7(results: list[ScenarioRun], **_params: Any) -> Fig7Result:
    full, uniforms = results[0], results[1:]
    result = Fig7Result()
    for label, uniform in zip(UNIFORM_QUANTA_MS, uniforms):
        result.normalized[label] = {
            key: uniform.by_placement[key] / full.by_placement[key]
            for key in full.by_placement
        }
    return result


def render_fig7(result: Fig7Result) -> str:
    placements = sorted(
        {key for values in result.normalized.values() for key in values}
    )
    table = ResultTable(
        "Fig. 7 — clustering-only with uniform quantum, normalised over"
        " full AQL (> 1 means customisation helped)",
        ["type"] + [f"{label} ({q}ms)" for label, q in UNIFORM_QUANTA_MS.items()],
    )
    for key in placements:
        table.add_row(
            key,
            *(
                result.normalized[label].get(key, float("nan"))
                for label in UNIFORM_QUANTA_MS
            ),
        )
    return table.render()


__all__ = ["Fig7Result", "render_fig7", "UNIFORM_QUANTA_MS"]
