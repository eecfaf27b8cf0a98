"""Generalisation study: AQL_Sched on random colocation mixes.

The paper evaluates five hand-picked scenarios (Table 4).  A scheduler
that only wins on curated mixes would be a weak result, so this
experiment draws random colocations from the application catalog
(respecting the 16-vCPUs-on-4-pCPUs consolidation), runs each under
native Xen and AQL_Sched, and reports per-class and overall normalised
performance.  Expectation: AQL never loses on average, and the
latency/spin classes win wherever they appear.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.baselines import AqlPolicy, XenCredit
from repro.core.types import VCpuType
from repro.exec import Cell
from repro.experiments.runner import ScenarioRun, run_scenario
from repro.experiments.scenarios import AppPlacement, Scenario
from repro.metrics.tables import ResultTable
from repro.sim.units import SEC

if TYPE_CHECKING:
    import numpy as np

#: draw pool: one representative per class, plus alternates
_CLASS_APPS: dict[VCpuType, tuple[str, ...]] = {
    VCpuType.IOINT: ("specweb2009", "specmail2009"),
    VCpuType.CONSPIN: ("facesim", "fluidanimate", "bodytrack"),
    VCpuType.LLCF: ("bzip2", "astar", "omnetpp"),
    VCpuType.LLCO: ("libquantum", "mcf"),
    VCpuType.LOLCF: ("hmmer", "sjeng", "gobmk"),
}


def draw_mix(rng: np.random.Generator, total_vcpus: int = 16) -> Scenario:
    """A random colocation filling ``total_vcpus`` vCPU slots.

    Multi-threaded classes (IO, spin) take 4-vCPU blocks; CPU classes
    take 1-4 single-vCPU VMs per draw.  At most one trashing (LLCO)
    block is allowed per mix — a streaming-dominated socket has no
    cache left to manage (see DESIGN.md on concurrent trashing).
    """
    placements: list[AppPlacement] = []
    remaining = total_vcpus
    llco_drawn = False
    index = 0
    while remaining > 0:
        choices = [t for t in VCpuType if not (t == VCpuType.LLCO and llco_drawn)]
        vtype = choices[int(rng.integers(len(choices)))]
        apps = _CLASS_APPS[vtype]
        app = apps[int(rng.integers(len(apps)))]
        if vtype in (VCpuType.IOINT, VCpuType.CONSPIN):
            size = 4
        else:
            size = int(rng.integers(1, 5))
        size = min(size, remaining)
        if vtype in (VCpuType.IOINT, VCpuType.CONSPIN) and size < 2:
            vtype = VCpuType.LOLCF
            app = _CLASS_APPS[vtype][0]
        if vtype == VCpuType.LLCO:
            llco_drawn = True
        placements.append(AppPlacement(app, size, label=f"{app}#{index}"))
        index += 1
        remaining -= size
    return Scenario("random", tuple(placements), pcpus=4)


@dataclass
class RandomMixResult:
    #: per mix: placement label -> normalised perf (AQL / Xen)
    per_mix: list[dict[str, float]] = field(default_factory=list)
    #: class -> list of normalised values across every mix
    by_class: dict[VCpuType, list[float]] = field(default_factory=dict)

    @property
    def overall_mean(self) -> float:
        values = [v for values in self.by_class.values() for v in values]
        return sum(values) / len(values)


def _draw_mixes(mixes: int, seed: int) -> list[Scenario]:
    # drawing is cheap and sequential (each draw advances the rng);
    # only the simulations fan out
    from numpy.random import default_rng

    rng = default_rng(seed)
    return [draw_mix(rng) for _ in range(mixes)]


def plan_random(
    mixes: int, measure_ns: int, warmup_ns: int = 2 * SEC, seed: int = 17
) -> list[Cell]:
    """Xen + AQL cells for each drawn mix, interleaved per mix."""
    return [
        Cell(run_scenario, dict(
            scenario=scenario, policy=policy, warmup_ns=warmup_ns,
            measure_ns=measure_ns, seed=seed + mix_index,
        ), label=f"random:mix{mix_index}:{policy.name}")
        for mix_index, scenario in enumerate(_draw_mixes(mixes, seed))
        for policy in (XenCredit(), AqlPolicy())
    ]


def fold_random(
    results: list[ScenarioRun], mixes: int, seed: int = 17, **_params: Any
) -> RandomMixResult:
    result = RandomMixResult()
    for mix_index, scenario in enumerate(_draw_mixes(mixes, seed)):
        xen, aql = results[2 * mix_index], results[2 * mix_index + 1]
        normalized = {
            key: aql.by_placement[key] / xen.by_placement[key]
            for key in xen.by_placement
        }
        result.per_mix.append(normalized)
        for placement in scenario.placements:
            value = normalized[placement.key]
            result.by_class.setdefault(placement.expected_type, []).append(
                value
            )
    return result


def render_random_mixes(result: RandomMixResult) -> str:
    table = ResultTable(
        f"Random colocation mixes ({len(result.per_mix)} draws) — AQL vs"
        " Xen per class (lower is better)",
        ["class", "mean", "min", "max", "samples"],
    )
    for vtype in VCpuType:
        values = result.by_class.get(vtype, [])
        if not values:
            continue
        table.add_row(
            vtype.value,
            sum(values) / len(values),
            min(values),
            max(values),
            len(values),
        )
    footer = f"\noverall mean: {result.overall_mean:.3f}"
    return table.render() + footer


__all__ = [
    "RandomMixResult",
    "draw_mix",
    "render_random_mixes",
]
