"""Table 3: application types as recognised by vTRS.

Every catalog program runs consolidated at 4 vCPUs/pCPU with quiet
CPU-hog neighbours while the online vTRS watches; the detected type is
compared with the paper's Table 3 classification (which our catalog
encodes as each program's expected type).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional, Sequence

from repro.core.types import VCpuType
from repro.core.vtrs import VTRS
from repro.exec import Cell
from repro.hardware.specs import MachineSpec, i7_3770
from repro.hypervisor.machine import Machine
from repro.hypervisor.vm import VM
from repro.metrics.tables import ResultTable
from repro.sim.units import MS, SEC
from repro.workloads.cpu import CpuBurnWorkload
from repro.workloads.profiles import lolcf_profile
from repro.workloads.suites import APP_CATALOG, make_app


@dataclass
class Table3Result:
    detected: dict[str, Optional[VCpuType]] = field(default_factory=dict)
    expected: dict[str, VCpuType] = field(default_factory=dict)

    @property
    def accuracy(self) -> float:
        if not self.detected:
            return 0.0
        hits = sum(
            1
            for app, got in self.detected.items()
            if got == self.expected[app]
        )
        return hits / len(self.detected)


def observe_app(
    app: str, spec: MachineSpec, seed: int, pool_name: str,
    record_history: bool = False,
) -> tuple[Machine, VTRS, VM]:
    """``app`` at 4 vCPUs/pCPU with quiet CPU-hog neighbours, watched
    by a freshly attached vTRS (not yet run): (machine, vtrs, app VM)."""
    machine = Machine(spec, seed=seed)
    nv = 4 if APP_CATALOG[app].expected_type == VCpuType.CONSPIN else 1
    pcpus = machine.topology.pcpus[:max(1, nv)]
    pool = machine.create_pool(pool_name, pcpus, 30 * MS)
    vm = machine.new_vm(app, nv, weight=256 * nv, pool=pool)
    make_app(app, spec, vcpus=nv).install(machine, vm)
    for i in range(4 * len(pcpus) - nv):
        dvm = machine.new_vm(f"d{i}", 1, pool=pool)
        CpuBurnWorkload(f"d{i}", lolcf_profile(spec)).install(machine, dvm)
    return machine, VTRS(machine, record_history=record_history).attach(), vm


def recognize_app(
    app: str,
    spec: Optional[MachineSpec] = None,
    duration_ns: int = 2 * SEC,
    seed: int = 5,
) -> Optional[VCpuType]:
    """Run one program under vTRS observation; return the detected type."""
    machine, vtrs, vm = observe_app(app, spec or i7_3770(), seed, "t3")
    machine.run(duration_ns)
    types = {vtrs.type_of(vcpu) for vcpu in vm.vcpus}
    if len(types) == 1:
        return types.pop()
    # mixed verdicts across the VM's vCPUs: majority wins
    votes: dict[Optional[VCpuType], int] = {}
    for vcpu in vm.vcpus:
        verdict = vtrs.type_of(vcpu)
        votes[verdict] = votes.get(verdict, 0) + 1
    return max(votes, key=votes.get)


def plan_table3(
    apps: Optional[Sequence[str]], duration_ns: int,
    spec: Optional[MachineSpec] = None, seed: int = 5,
) -> list[Cell]:
    """One recognition cell per program; ``apps=None`` is the catalog."""
    return [
        Cell(
            recognize_app,
            dict(app=app, spec=spec, duration_ns=duration_ns, seed=seed),
            label=f"table3:{app}",
        )
        for app in apps or sorted(APP_CATALOG)
    ]


def fold_table3(
    results: list[Optional[VCpuType]], apps: Optional[Sequence[str]],
    **_params: Any,
) -> Table3Result:
    result = Table3Result()
    for app, detected in zip(apps or sorted(APP_CATALOG), results):
        result.expected[app] = APP_CATALOG[app].expected_type
        result.detected[app] = detected
    return result


def render_table3(result: Table3Result) -> str:
    table = ResultTable(
        f"Table 3 — vTRS type recognition"
        f" (accuracy {result.accuracy * 100:.0f}%)",
        ["application", "paper type", "vTRS verdict", "match"],
    )
    for app in sorted(result.detected):
        got = result.detected[app]
        expected = result.expected[app]
        table.add_row(
            app,
            expected.value,
            got.value if got else "-",
            "yes" if got == expected else "NO",
        )
    return table.render()


__all__ = ["Table3Result", "recognize_app", "render_table3"]
