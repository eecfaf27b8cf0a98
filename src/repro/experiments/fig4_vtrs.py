"""Fig. 4: the online vTRS in action.

Five representative applications (one per type: SPECweb2009 -> IOInt,
astar -> LLCF, libquantum -> LLCO, gobmk -> LoLCF, fluidanimate ->
ConSpin) run consolidated at 4 vCPUs/pCPU (the Table 3 setup) while
the vTRS records 50 monitoring periods of cursor values.  The paper's
claim: each application's own cursor sits above the others most of
the time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.core.types import VCpuType
from repro.exec import Cell
from repro.experiments.table3_recognition import observe_app
from repro.hardware.specs import MachineSpec, i7_3770
from repro.metrics.tables import ResultTable
from repro.sim.units import MS
from repro.workloads.suites import APP_CATALOG

#: the paper's five representative programs
REPRESENTATIVES = (
    "specweb2009",
    "astar",
    "libquantum",
    "gobmk",
    "fluidanimate",
)


@dataclass
class Fig4Result:
    #: monitoring periods each application ran for
    periods: int
    #: app -> list of (time, cursors dict) samples
    histories: dict[str, list] = field(default_factory=dict)
    #: app -> final detected type
    detected: dict[str, Optional[VCpuType]] = field(default_factory=dict)
    #: app -> fraction of decided periods where the expected cursor won
    dominance: dict[str, float] = field(default_factory=dict)


def fig4_app(
    name: str, spec: MachineSpec, periods: int, seed: int
) -> tuple[list, Optional[VCpuType], float]:
    """The engine cell: (history, detected type, dominance) of ``name``."""
    machine, vtrs, vm = observe_app(
        name, spec, seed, "fig4", record_history=True
    )
    machine.run(periods * vtrs.period_ns + 10 * MS)
    expected = APP_CATALOG[name].expected_type
    vcpu = vm.vcpus[0]
    history = vtrs.history_of(vcpu)
    dominance = 0.0
    if history:
        wins = sum(
            1
            for _, cursors in history
            if max(cursors, key=lambda t: cursors[t]) == expected
            or cursors[expected] >= max(cursors.values())
        )
        dominance = wins / len(history)
    return history, vtrs.type_of(vcpu), dominance


def plan_fig4(
    periods: int, spec: Optional[MachineSpec] = None, seed: int = 5
) -> list[Cell]:
    spec = spec or i7_3770()
    return [
        Cell(
            fig4_app,
            dict(name=name, spec=spec, periods=periods, seed=seed),
            label=f"fig4:{name}",
        )
        for name in REPRESENTATIVES
    ]


def fold_fig4(results: list, periods: int, **_params: Any) -> Fig4Result:
    result = Fig4Result(periods=periods)
    for name, (history, detected, dominance) in zip(REPRESENTATIVES, results):
        result.histories[name] = history
        result.detected[name] = detected
        result.dominance[name] = dominance
    return result


def render_fig4(result: Fig4Result) -> str:
    table = ResultTable(
        f"Fig. 4 — online vTRS over {result.periods} monitoring periods",
        ["application", "expected", "detected", "cursor dominance"],
    )
    for name in REPRESENTATIVES:
        expected = APP_CATALOG[name].expected_type
        detected = result.detected.get(name)
        table.add_row(
            name,
            expected.value,
            detected.value if detected else "-",
            f"{result.dominance.get(name, 0.0) * 100:.0f}%",
        )
    return table.render()


__all__ = ["Fig4Result", "render_fig4", "REPRESENTATIVES"]
