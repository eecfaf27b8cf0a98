"""Colocation scenarios: Table 4 (S1-S5) and the Fig. 3 population.

A :class:`Scenario` lists application placements; building it creates
one VM per placement (multi-vCPU for ConSpin/IO apps, 1-vCPU VMs per
unit for CPU apps — consolidated clouds colocate many small VMs), all
confined to a machine sized exactly like the paper's experiment:
16 vCPUs on 4 pCPUs for S1-S5, 48 vCPUs on three 4-core sockets (one
socket reserved for dom0) for the multi-socket case.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.baselines.base import PolicyContext
from repro.core.types import VCpuType
from repro.hardware.specs import MachineSpec
from repro.hypervisor.hostspec import HostSpec
from repro.hypervisor.machine import Machine
from repro.telemetry import Telemetry
from repro.workloads.base import Workload
from repro.workloads.io_workload import IoWorkload
from repro.workloads.profiles import llco_profile
from repro.workloads.spin import SpinWorkload
from repro.workloads.suites import APP_CATALOG, make_app


@dataclass(frozen=True)
class AppPlacement:
    """One application in a scenario."""

    app: str  # catalog name
    vcpus: int  # how many vCPUs this app occupies
    label: str = ""  # display key (defaults to the app name)
    #: IOInt+ flavour: give the IO app a trashing CGI working set so its
    #: LLCO cursor exceeds 50% (the multi-socket experiment's disturbers)
    trashing_io: bool = False
    #: ConSpin micro-benchmark flavour (no global barrier): the
    #: multi-socket experiment uses per-vCPU micro-benchmarks, so the
    #: spin workers share a lock but not a barrier and tolerate being
    #: split across clusters
    loose_spin: bool = False

    @property
    def key(self) -> str:
        return self.label or self.app

    @property
    def expected_type(self) -> VCpuType:
        return APP_CATALOG[self.app].expected_type


@dataclass(frozen=True)
class Scenario:
    """A named colocation experiment."""

    name: str
    placements: tuple[AppPlacement, ...]
    pcpus: int  # usable pCPUs (excludes any dom0 reservation)
    sockets: int = 1
    reserved_sockets: int = 0  # leading sockets kept for dom0

    @property
    def total_vcpus(self) -> int:
        return sum(p.vcpus for p in self.placements)

    def host_spec(self) -> HostSpec:
        """The frozen machine recipe with exactly this scenario's cores."""
        if self.sockets == 1:
            return HostSpec(model="i7_3770", pcpus=self.pcpus, sockets=1)
        total_sockets = self.sockets + self.reserved_sockets
        per_socket = self.pcpus // self.sockets
        return HostSpec(
            model="xeon_e5_4603",
            pcpus=per_socket * total_sockets,
            sockets=total_sockets,
        )

    def machine_spec(self) -> MachineSpec:
        """A spec with exactly the scenario's core count per socket."""
        return self.host_spec().machine_spec()


#: Table 4: the five single-socket scenarios (16 vCPUs on 4 pCPUs).
SCENARIOS: dict[str, Scenario] = {
    "S1": Scenario(
        "S1",
        (
            AppPlacement("fluidanimate", 5),
            AppPlacement("bzip2", 5),
            AppPlacement("hmmer", 6),
        ),
        pcpus=4,
    ),
    "S2": Scenario(
        "S2",
        (
            AppPlacement("specweb2009", 5),
            AppPlacement("bzip2", 5),
            AppPlacement("libquantum", 6),
        ),
        pcpus=4,
    ),
    "S3": Scenario(
        "S3",
        (
            AppPlacement("bzip2", 5),
            AppPlacement("libquantum", 5),
            AppPlacement("hmmer", 6),
        ),
        pcpus=4,
    ),
    "S4": Scenario(
        "S4",
        (
            AppPlacement("specweb2009", 4),
            AppPlacement("facesim", 4),
            AppPlacement("bzip2", 4),
            AppPlacement("libquantum", 4),
        ),
        pcpus=4,
    ),
    "S5": Scenario(
        "S5",
        (
            AppPlacement("specweb2009", 4),
            AppPlacement("facesim", 4),
            AppPlacement("bzip2", 4),
            AppPlacement("libquantum", 2),
            AppPlacement("hmmer", 2),
        ),
        pcpus=4,
    ),
}

#: Fig. 3 / Fig. 6-right: 48 vCPUs (12 LLCO, 12 IOInt+, 17 LLCF,
#: 7 ConSpin-) on a 4-socket machine with one socket reserved for dom0.
#: LLCO VMs are created first so the trashing list starts with them,
#: reproducing the paper's socket layout exactly.
FIG3_POPULATION = Scenario(
    "fig3",
    (
        AppPlacement("libquantum", 12, label="LLCO"),
        AppPlacement("specweb2009", 12, label="IOInt+", trashing_io=True),
        AppPlacement("bzip2", 17, label="LLCF"),
        AppPlacement("facesim", 7, label="ConSpin-", loose_spin=True),
    ),
    pcpus=12,
    sockets=3,
    reserved_sockets=1,
)


@dataclass
class BuiltScenario:
    """A scenario instantiated on a machine, ready to run."""

    scenario: Scenario
    machine: Machine
    workloads: dict[str, Workload] = field(default_factory=dict)
    ctx: PolicyContext = field(default_factory=PolicyContext)


def _make_workload(
    placement: AppPlacement, spec: MachineSpec, vcpus: int
) -> Workload:
    if placement.trashing_io:
        app = IoWorkload.heterogeneous(placement.key, spec, vcpus=vcpus)
        # an overflowing working set (the LLCO cursor dominates) at a
        # moderate reference rate: an IO app with trashing memory
        # activity, not a full-rate streamer
        app.cgi_profile = llco_profile(spec, ref_rate=0.008)
        return app
    if placement.loose_spin:
        return SpinWorkload(
            placement.key,
            threads=vcpus,
            work_instructions=500_000.0,
            cs_instructions=30_000.0,
            use_barrier=False,
        )
    return make_app(placement.app, spec, vcpus=vcpus)


def build_scenario(
    scenario: Scenario,
    seed: int = 0,
    spec: Optional[MachineSpec] = None,
    telemetry: Optional[Telemetry] = None,
) -> BuiltScenario:
    """Instantiate VMs + workloads for a scenario.

    ConSpin and IO apps get one VM spanning their vCPUs (threads share
    memory / a service spans workers); CPU-burn apps get one 1-vCPU VM
    per unit, mirroring consolidated single-purpose cloud VMs.
    ``telemetry`` is handed to the machine unchanged (it defaults to a
    disabled recorder).
    """
    if spec is None:
        machine = scenario.host_spec().build(seed=seed, telemetry=telemetry)
    else:
        machine = Machine(spec, seed=seed, telemetry=telemetry)
    spec = machine.spec
    built = BuiltScenario(scenario=scenario, machine=machine)

    usable = [
        pcpu
        for socket in machine.topology.sockets[scenario.reserved_sockets:]
        for pcpu in socket.pcpus
    ]
    if len(usable) < scenario.pcpus:
        raise ValueError(
            f"{scenario.name}: needs {scenario.pcpus} pCPUs, "
            f"machine offers {len(usable)}"
        )
    pool = machine.create_pool("scenario", usable[:scenario.pcpus], 30_000_000)
    built.ctx.pool = pool
    if scenario.reserved_sockets:
        built.ctx.sockets = machine.topology.sockets[scenario.reserved_sockets:]

    for placement in scenario.placements:
        etype = placement.expected_type
        if etype in (VCpuType.CONSPIN, VCpuType.IOINT):
            # scale the VM weight with its size so every vCPU in the
            # scenario has equal weight ("4 vCPUs per pCPU for
            # fairness", Table 4)
            vm = machine.new_vm(
                placement.key, placement.vcpus, weight=256 * placement.vcpus
            )
            for vcpu in vm.vcpus:
                machine.default_pool.remove_vcpu(vcpu)
                pool.add_vcpu(vcpu)
                built.ctx.oracle_types[vcpu.vcpu_id] = etype
            workload = _make_workload(placement, spec, placement.vcpus)
            workload.install(machine, vm)
            built.workloads[placement.key] = workload
        else:
            for unit in range(placement.vcpus):
                vm = machine.new_vm(f"{placement.key}.{unit}", 1)
                vcpu = vm.vcpus[0]
                machine.default_pool.remove_vcpu(vcpu)
                pool.add_vcpu(vcpu)
                built.ctx.oracle_types[vcpu.vcpu_id] = etype
                workload = _make_workload(placement, spec, 1)
                workload.name = f"{placement.key}.{unit}"
                workload.install(machine, vm)
                built.workloads[workload.name] = workload
    return built


__all__ = [
    "AppPlacement",
    "Scenario",
    "SCENARIOS",
    "FIG3_POPULATION",
    "BuiltScenario",
    "build_scenario",
]
