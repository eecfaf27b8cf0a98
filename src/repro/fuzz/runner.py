"""Drive one :class:`FuzzScenario` through a full simulated run.

The runner mirrors the churn experiment's run recipe (confine the base
population to a ``scenario`` pool, set the policy up, warm up, arm the
timeline, run through the tail) with two fuzz-specific additions:

* telemetry is always on — the invariant library re-derives vTRS
  verdicts from the audit trail and walks the span forest, and the
  coverage tracker reads decisions and the pool ledger;
* a **credit watermark probe** samples every vCPU's credit each
  accounting period.  Several credit bugs (the ``skip_credit_refill``
  injection among them) are *intermittent*: the balance dives below
  the legal floor mid-run and recovers by the final accounting, so the
  end state alone would exonerate a broken scheduler.

The returned :class:`FuzzOutcome` carries the live object graph; the
invariant checks in :mod:`repro.fuzz.invariants` treat it as strictly
read-only (enforced by fingerprinting).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.baselines import (
    AqlPolicy,
    Microsliced,
    Policy,
    PolicyContext,
    VSlicer,
    VTurbo,
    XenCredit,
)
from repro.core.types import VCpuType
from repro.dynamics import ChurnEngine, SwitchableWorkload
from repro.fuzz.inject import apply_injection
from repro.fuzz.scenario import FuzzScenario, scenario_problems
from repro.hypervisor.machine import Machine
from repro.sim.units import MS
from repro.telemetry import Telemetry

#: ground-truth vCPU type per workload mode (feeds the manually
#: configured comparators' oracle, like the static experiments do)
MODE_TYPES = {
    "io": VCpuType.IOINT,
    "spin": VCpuType.CONSPIN,
    "llcf": VCpuType.LLCF,
    "llco": VCpuType.LLCO,
    "lolcf": VCpuType.LOLCF,
}


def _make_policy(name: str) -> Policy:
    if name == "xen":
        return XenCredit()
    if name == "microsliced":
        return Microsliced()
    if name == "vslicer":
        return VSlicer()
    if name == "vturbo":
        return VTurbo()
    if name == "aql":
        return AqlPolicy()
    raise ValueError(f"unknown policy {name!r}")


@dataclass
class FuzzOutcome:
    """Everything one fuzzed run produced, for invariant checking."""

    scenario: FuzzScenario
    machine: Machine
    workloads: dict[str, SwitchableWorkload]
    engine: ChurnEngine
    telemetry: Telemetry
    #: vcpu name -> lowest credit ever observed by the periodic probe
    credit_watermark: dict[str, float] = field(default_factory=dict)
    #: open spans force-closed at end of run (run finalisation)
    spans_closed: int = 0

    @property
    def end_ns(self) -> int:
        """The horizon the run stopped at."""
        return self.machine.sim.now


def run_scenario_fuzz(scenario: FuzzScenario) -> FuzzOutcome:
    """Build, run and finalise one scenario; raises on invalid input."""
    problems = scenario_problems(scenario)
    if problems:
        raise ValueError(
            f"scenario is not runnable: {'; '.join(problems)}"
        )
    telemetry = Telemetry(enabled=True)
    machine = scenario.host_spec.build(seed=scenario.seed, telemetry=telemetry)
    pool = machine.create_pool("scenario", machine.topology.pcpus, 30 * MS)
    oracle: dict[int, VCpuType] = {}
    workloads: dict[str, SwitchableWorkload] = {}
    for name, mode in scenario.base:
        vm = machine.new_vm(name, 1)
        vcpu = vm.vcpus[0]
        machine.default_pool.remove_vcpu(vcpu)
        pool.add_vcpu(vcpu)
        oracle[vcpu.vcpu_id] = MODE_TYPES[mode]
        workload = SwitchableWorkload(
            name, mode=mode, clients=scenario.clients
        )
        workload.install(machine, vm)
        workloads[name] = workload

    ctx = PolicyContext(oracle_types=oracle, pool=pool)
    policy = _make_policy(scenario.policy)
    policy.setup(machine, ctx)
    if scenario.inject is not None:
        apply_injection(machine, scenario.inject)

    outcome = FuzzOutcome(
        scenario=scenario,
        machine=machine,
        workloads=workloads,
        engine=None,  # type: ignore[arg-type]  # set below
        telemetry=telemetry,
    )

    def probe() -> None:
        machine.sync()
        for vcpu in machine.all_vcpus:
            floor = outcome.credit_watermark.get(vcpu.name)
            if floor is None or vcpu.credit < floor:
                outcome.credit_watermark[vcpu.name] = vcpu.credit

    # armed before run/start, so at a shared timestamp the probe fires
    # before the accounting refill and sees the period's true floor
    machine.every(machine.params.accounting_ns, probe, "fuzz:credit-probe")

    machine.run(scenario.warmup_ns)
    for workload in workloads.values():
        workload.begin_measurement()
    engine = ChurnEngine(
        machine,
        scenario.timeline,
        workloads=workloads,
        allowed_pcpus=pool.pcpus,
        clients=scenario.clients,
    )
    outcome.engine = engine
    engine.arm()
    machine.run(scenario.measure_ns)
    machine.sync()
    # run finalisation: close control-plane spans still open at the
    # horizon so the span forest is complete for the nesting invariant
    outcome.spans_closed = telemetry.tracer.close_all(machine.sim.now)
    return outcome


__all__ = ["MODE_TYPES", "FuzzOutcome", "run_scenario_fuzz"]
