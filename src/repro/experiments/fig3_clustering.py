"""Fig. 3: the two-level clustering worked example.

A four-socket machine (one socket reserved for dom0), 48 vCPUs:
12 IOInt+, 7 ConSpin-, 17 LLCF, 12 LLCO.  The paper's expected layout:

* socket 1 — one 1 ms cluster (trashers: 12 LLCO + 4 IOInt+);
* socket 2 — a 1 ms cluster (8 IOInt+) and a 90 ms cluster (8 LLCF);
* socket 3 — a 90 ms cluster (8 LLCF), a 1 ms cluster (4 ConSpin-) and
  a default 30 ms cluster with the 1 LLCF + 3 ConSpin- spill-over —
  six clusters in total.

This experiment runs the clustering *statically* on oracle types (the
algorithm is deterministic), which is exactly the paper's Fig. 3.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.core.calibration import PAPER_BEST_QUANTA
from repro.core.clustering import TypedVCpu, build_pool_plan
from repro.core.types import VCpuType
from repro.exec import Cell
from repro.experiments.scenarios import FIG3_POPULATION, build_scenario
from repro.metrics.tables import ResultTable
from repro.sim.units import MS


@dataclass
class Fig3Result:
    #: (pool label, quantum_ms, #pcpus, type -> count)
    clusters: list[tuple[str, int, int, dict[str, int]]]


def fig3_clusters(seed: int) -> list[tuple[str, int, int, dict[str, int]]]:
    """The engine cell: cluster the population, summarise the plan."""
    built = build_scenario(FIG3_POPULATION, seed=seed)
    machine = built.machine
    typed = []
    for vcpu in machine.all_vcpus:
        vtype = built.ctx.oracle_types[vcpu.vcpu_id]
        # IOInt+ vCPUs have a dominant LLCO cursor (trashing CGI)
        llco_cur = 80.0 if (
            vtype == VCpuType.IOINT
            and vcpu.vm.name.startswith("IOInt+")
        ) else 0.0
        typed.append(TypedVCpu(vcpu, vtype, llco_cur_avg=llco_cur))
    assert built.ctx.sockets is not None
    # "paper" filler policy: this experiment renders the paper's exact
    # Fig. 3 layout from oracle types (the online manager defaults to
    # the "safe" policy; see repro.core.clustering)
    plan = build_pool_plan(
        machine.topology,
        typed,
        PAPER_BEST_QUANTA,
        default_quantum_ns=30 * MS,
        sockets=built.ctx.sockets,
        filler_policy="paper",
    )
    type_by_vcpu = {tv.vcpu: tv.vtype for tv in typed}
    clusters = []
    for name, pcpus, quantum_ns, vcpus in plan.entries:
        counts: dict[str, int] = {}
        for vcpu in vcpus:
            label = type_by_vcpu[vcpu].value
            counts[label] = counts.get(label, 0) + 1
        clusters.append((name, quantum_ns // MS, len(pcpus), counts))
    return clusters


def plan_fig3(seed: int = 0) -> list[Cell]:
    return [Cell(fig3_clusters, dict(seed=seed), label="fig3:clusters")]


def fold_fig3(results: list, **_params: Any) -> Fig3Result:
    return Fig3Result(clusters=results[0])


def render_fig3(result: Fig3Result) -> str:
    table = ResultTable(
        "Fig. 3 — 2-level clustering of 48 vCPUs on 3 usable sockets",
        ["cluster", "quantum", "pCPUs", "members"],
    )
    for name, quantum_ms, npcpus, counts in result.clusters:
        members = ", ".join(f"{n}x{t}" for t, n in sorted(counts.items()))
        table.add_row(name, f"{quantum_ms}ms", npcpus, members or "-")
    return table.render()


__all__ = ["Fig3Result", "render_fig3"]
