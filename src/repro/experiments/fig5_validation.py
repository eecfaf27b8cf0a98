"""Fig. 5: calibration robustness over the full benchmark set.

Every application of the evaluation (8 SPEC CPU2006 programs, the 12
PARSEC programs, SPECweb2009 and SPECmail2009) runs consolidated at
4 vCPUs/pCPU under each quantum length; values are normalised over the
default 30 ms run.  The paper's claim: each application reaches its
best performance at the quantum calibrated for its vTRS type.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional, Sequence

from repro.core.calibration import PAPER_BEST_QUANTA
from repro.core.types import VCpuType
from repro.exec import Cell
from repro.hardware.specs import MachineSpec, i7_3770
from repro.hypervisor.machine import Machine
from repro.metrics.tables import ResultTable, format_quantum
from repro.sim.units import MS
from repro.workloads.cpu import CpuBurnWorkload
from repro.workloads.profiles import llco_profile, lolcf_profile
from repro.workloads.suites import APP_CATALOG, make_app

#: the programs shown in Fig. 5 (paper's x-axis)
FIG5_APPS: tuple[str, ...] = (
    "hmmer",
    "sjeng",
    "bzip2",
    "h264ref",
    "mcf",
    "omnetpp",
    "astar",
    "libquantum",
    "bodytrack",
    "blackscholes",
    "canneal",
    "dedup",
    "facesim",
    "ferret",
    "fluidanimate",
    "freqmine",
    "raytrace",
    "streamcluster",
    "vips",
    "x264",
    "specweb2009",
    "specmail2009",
)

QUANTA_MS = (1, 10, 30, 60, 90)


@dataclass
class Fig5Result:
    #: (app, quantum_ms) -> normalised perf (30 ms = 1.0)
    normalized: dict[tuple[str, int], float] = field(default_factory=dict)
    #: app -> quantum_ms with the best (lowest) value
    best: dict[str, int] = field(default_factory=dict)

    def matches_calibration(self, app: str, tolerance: float = 0.05) -> bool:
        """Did the app's best quantum match its type's calibrated one?

        Quantum-agnostic types match by definition; for the others the
        best measured value must be within ``tolerance`` of the value
        at the calibrated quantum (ties across a flat region count as
        matching).
        """
        expected = PAPER_BEST_QUANTA[APP_CATALOG[app].expected_type]
        if expected is None:
            return True
        expected_ms = expected // MS
        at_expected = self.normalized[(app, expected_ms)]
        best_value = self.normalized[(app, self.best[app])]
        return at_expected <= best_value * (1.0 + tolerance)


def _measure_app(
    app: str, quantum_ms: int, spec: MachineSpec,
    warmup_ns: int, measure_ns: int, seed: int,
) -> float:
    app_spec = APP_CATALOG[app]
    machine = Machine(spec, seed=seed, default_quantum_ns=quantum_ms * MS)
    nv = 4 if app_spec.expected_type == VCpuType.CONSPIN else 1
    # the paper's consolidation: 4 vCPUs share each pCPU, so a 4-thread
    # ConSpin VM runs over two pCPUs (like the §3.4 calibration cell)
    pcpu_count = 2 if nv == 4 else 1
    pcpus = machine.topology.pcpus[:pcpu_count]
    pool = machine.create_pool("fig5", pcpus, quantum_ms * MS)
    vm = machine.new_vm(app, nv, weight=256 * nv, pool=pool)
    workload = make_app(app, spec, vcpus=nv)
    workload.install(machine, vm)
    # fill to 4 vCPUs per pCPU with a half-trashing, half-quiet mix
    need = 4 * len(pcpus) - nv
    for i in range(need):
        dvm = machine.new_vm(f"d{i}", 1, pool=pool)
        profile = llco_profile(spec) if i % 2 == 0 else lolcf_profile(spec)
        CpuBurnWorkload(f"d{i}", profile).install(machine, dvm)
    machine.run(warmup_ns)
    workload.begin_measurement()
    machine.run(measure_ns)
    machine.sync()
    return workload.result().value


def plan_fig5(
    apps: Optional[Sequence[str]], warmup_ns: int, measure_ns: int,
    spec: Optional[MachineSpec] = None, seed: int = 7,
) -> list[Cell]:
    """One cell per (app, quantum); ``apps=None`` runs all of FIG5_APPS."""
    spec = spec or i7_3770()
    return [
        Cell(
            _measure_app,
            dict(
                app=app, quantum_ms=quantum_ms, spec=spec,
                warmup_ns=warmup_ns, measure_ns=measure_ns, seed=seed,
            ),
            label=f"fig5:{app}:{quantum_ms}ms",
        )
        for app in apps or FIG5_APPS
        for quantum_ms in QUANTA_MS
    ]


def fold_fig5(
    results: list[float], apps: Optional[Sequence[str]], **_params: Any
) -> Fig5Result:
    grid = [(app, q) for app in apps or FIG5_APPS for q in QUANTA_MS]
    raw_by_app: dict[str, dict[int, float]] = {}
    for (app, quantum_ms), value in zip(grid, results):
        raw_by_app.setdefault(app, {})[quantum_ms] = value
    result = Fig5Result()
    for app, raw in raw_by_app.items():
        reference = raw[30]
        for quantum_ms, value in raw.items():
            result.normalized[(app, quantum_ms)] = value / reference
        result.best[app] = min(raw, key=raw.get)
    return result


def render_fig5(result: Fig5Result) -> str:
    table = ResultTable(
        "Fig. 5 — normalised perf per app x quantum (30ms = 1.0);"
        " best should match the type's calibrated quantum",
        ["app", "type", "1ms", "10ms", "30ms", "60ms", "90ms", "best",
         "calibrated", "match"],
    )
    apps = sorted({app for app, _ in result.normalized})
    for app in apps:
        vtype = APP_CATALOG[app].expected_type
        calibrated = PAPER_BEST_QUANTA[vtype]
        table.add_row(
            app,
            vtype.value,
            *(result.normalized[(app, q)] for q in QUANTA_MS),
            f"{result.best[app]}ms",
            format_quantum(calibrated),
            "yes" if result.matches_calibration(app) else "NO",
        )
    return table.render()


__all__ = ["Fig5Result", "render_fig5", "FIG5_APPS", "QUANTA_MS"]
