"""Fig. 8: AQL_Sched vs vTurbo, vSlicer and Microsliced on scenario S5.

All values normalised over native Xen.  The paper's reading: each
comparator helps only its niche (vTurbo/vSlicer the IO VMs, Microsliced
IO + spin at the cost of LLCF), while AQL_Sched matches the best
comparator on every application type.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.baselines import AqlPolicy, Microsliced, VSlicer, VTurbo, XenCredit
from repro.exec import Cell
from repro.experiments.runner import ScenarioRun, run_scenario
from repro.experiments.scenarios import SCENARIOS
from repro.metrics.tables import ResultTable


@dataclass
class Fig8Result:
    #: policy -> placement -> normalised perf vs Xen
    normalized: dict[str, dict[str, float]] = field(default_factory=dict)


def _policies():
    return [XenCredit(), VTurbo(), Microsliced(), VSlicer(), AqlPolicy()]


def plan_fig8(warmup_ns: int, measure_ns: int, seed: int = 1) -> list[Cell]:
    """S5 under Xen, then under each comparator and AQL."""
    timing = dict(warmup_ns=warmup_ns, measure_ns=measure_ns, seed=seed)
    return [
        Cell(run_scenario, dict(scenario=SCENARIOS["S5"], policy=policy,
                                **timing), label=f"fig8:{policy.name}")
        for policy in _policies()
    ]


def fold_fig8(results: list[ScenarioRun], **_params: Any) -> Fig8Result:
    xen = results[0]
    result = Fig8Result()
    for policy, other in zip(_policies()[1:], results[1:]):
        result.normalized[policy.name] = {
            key: other.by_placement[key] / xen.by_placement[key]
            for key in xen.by_placement
        }
    return result


def render_fig8(result: Fig8Result) -> str:
    policies = list(result.normalized)
    placements = sorted(
        {key for values in result.normalized.values() for key in values}
    )
    table = ResultTable(
        "Fig. 8 — comparison with vTurbo / Microsliced / vSlicer on S5"
        " (normalised over Xen, lower is better)",
        ["application"] + policies,
    )
    for key in placements:
        table.add_row(
            key, *(result.normalized[p].get(key, float("nan")) for p in policies)
        )
    return table.render()


__all__ = ["Fig8Result", "render_fig8"]
