"""AQL_Sched: the online adaptive-quantum-length manager.

Wires the pieces together exactly as §3.1 describes: the vTRS samples
every monitoring period (30 ms); every ``n = 4`` periods the manager
re-types all vCPUs, reruns the two-level clustering, and — only when
the resulting layout differs from the installed one — applies the new
pool plan (quantum reconfiguration + vCPU migrations).

Following the paper's implementation trick (§4.3: shared scheduler
data structure across pools), applying a plan costs nothing in virtual
time; vCPU migrations are pointer moves plus the natural cache-refill
penalty the LLC model already charges.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping, Optional, Sequence

from repro.core.calibration import PAPER_BEST_QUANTA
from repro.core.clustering import TypedVCpu, build_pool_plan
from repro.core.cursors import CursorLimits
from repro.core.types import VCpuType
from repro.core.vtrs import VTRS
from repro.hypervisor.pools import PoolPlan
from repro.sim.units import MS
from repro.telemetry import ClusterDecision

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.hardware.topology import Socket
    from repro.hypervisor.machine import Machine
    from repro.hypervisor.vm import VCpu


def _plan_signature(plan: PoolPlan) -> tuple:
    """A canonical form for change detection."""
    entries = []
    for name, pcpus, quantum_ns, vcpus in plan.entries:
        entries.append(
            (
                tuple(sorted(p.cpu_id for p in pcpus)),
                quantum_ns,
                tuple(sorted(v.vcpu_id for v in vcpus)),
            )
        )
    return tuple(sorted(entries))


class AqlScheduler:
    """The adaptable-quantum-length scheduler manager."""

    def __init__(
        self,
        machine: "Machine",
        best_quanta: Optional[Mapping[VCpuType, Optional[int]]] = None,
        limits: Optional[CursorLimits] = None,
        window: int = 4,
        period_ns: int = 30 * MS,
        default_quantum_ns: int = 30 * MS,
        sockets: Optional[Sequence["Socket"]] = None,
        pcpus: Optional[Sequence] = None,
        record_history: bool = False,
        type_oracle: Optional[Mapping[int, VCpuType]] = None,
        uniform_quantum_ns: Optional[int] = None,
        initial_delay_windows: int = 2,
    ):
        self.machine = machine
        self.best_quanta = dict(best_quanta or PAPER_BEST_QUANTA)
        self.default_quantum_ns = default_quantum_ns
        self.sockets = list(sockets) if sockets is not None else None
        #: restrict clustering to these cores (a confined CPU pool);
        #: None manages the whole machine
        self.pcpus = list(pcpus) if pcpus is not None else None
        self.vtrs = VTRS(
            machine,
            limits=limits,
            window=window,
            period_ns=period_ns,
            record_history=record_history,
        )
        #: vcpu_id -> forced type; bypasses vTRS (used by the overhead
        #: ablation to compare online recognition against ground truth).
        self.type_oracle = dict(type_oracle) if type_oracle else None
        #: Fig. 7 ablation ("quantum length customisation discarded"):
        #: clustering still runs, but every pool is forced to this
        #: quantum instead of the calibrated one.
        self.uniform_quantum_ns = uniform_quantum_ns
        #: number of decision windows to sit out before the first
        #: re-clustering: cold caches make freshly-booted LLC-friendly
        #: vCPUs measure as trashing, and acting on that transient
        #: places them with real trashers where they can never re-warm.
        self.initial_delay_windows = initial_delay_windows
        self.decisions = 0
        self.reconfigurations = 0
        self.last_types: dict[int, VCpuType] = {}
        #: every decision ever taken, in order, skipped cold-start ones
        #: included (adaptation metrics slice this around churn events;
        #: with telemetry on, the audit holds these same instances)
        self.decision_log: list[ClusterDecision] = []
        self._last_signature: Optional[tuple] = None
        self._attached = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def attach(self) -> "AqlScheduler":
        """Start monitoring and periodic re-clustering."""
        if self._attached:
            return self
        self._attached = True
        self.vtrs.attach()
        decide_period = self.vtrs.window * self.vtrs.period_ns
        self.machine.every(decide_period, self.decide, "aql-decide")
        return self

    # ------------------------------------------------------------------
    # the decision step
    # ------------------------------------------------------------------
    def current_types(self) -> dict["VCpu", VCpuType]:
        """Type of every vCPU (oracle, else vTRS; LoLCF before data)."""
        types: dict["VCpu", VCpuType] = {}
        for vcpu in self.machine.all_vcpus:
            if self.type_oracle is not None:
                vtype: Optional[VCpuType] = self.type_oracle.get(vcpu.vcpu_id)
            else:
                vtype = self.vtrs.type_of(vcpu)
            if vtype is None:
                # no evidence yet: treat as quantum-agnostic filler
                vtype = VCpuType.LOLCF
            types[vcpu] = vtype
        return types

    def decide(self) -> None:
        """Re-type, re-cluster, apply the plan if the layout changed."""
        self.decisions += 1
        telemetry = self.machine.telemetry
        if self.decisions <= self.initial_delay_windows:
            # cold-start transient: counters not yet meaningful
            self._record(
                ClusterDecision(
                    time_ns=self.machine.sim.now,
                    decision_index=self.decisions,
                    input_types=(),
                    changed=False,
                    pools=(),
                    spills=(),
                    skipped=True,
                ),
            )
            return
        span = None
        if telemetry.enabled:
            span = telemetry.tracer.begin(
                self.machine.sim.now,
                "aql_decide",
                track="aql",
                category="aql",
                decision=self.decisions,
            )
        types = self.current_types()
        typed = [
            TypedVCpu(
                vcpu,
                vtype,
                llco_cur_avg=self.vtrs.cursor_averages(vcpu)[VCpuType.LLCO],
            )
            for vcpu, vtype in types.items()
        ]
        self.last_types = {vcpu.vcpu_id: t for vcpu, t in types.items()}
        plan = build_pool_plan(
            self.machine.topology,
            typed,
            self.best_quanta,
            self.default_quantum_ns,
            sockets=self.sockets,
            pcpus=self.pcpus,
            offline=self.machine.offline_pcpus,
        )
        if self.uniform_quantum_ns is not None:
            plan.entries = [
                (name, pcpus, self.uniform_quantum_ns, vcpus)
                for name, pcpus, _, vcpus in plan.entries
            ]
        signature = _plan_signature(plan)
        changed = signature != self._last_signature
        if changed:
            self.machine.apply_pool_plan(plan)
            self._last_signature = signature
            self.reconfigurations += 1
        self._record(
            ClusterDecision(
                time_ns=self.machine.sim.now,
                decision_index=self.decisions,
                input_types=tuple(
                    sorted(
                        (vid, t.name) for vid, t in self.last_types.items()
                    )
                ),
                changed=changed,
                pools=plan.describe(),
                spills=tuple(sorted(plan.spills)),
            ),
        )
        if telemetry.enabled:
            telemetry.registry.counter("aql_decisions").inc()
            if changed:
                telemetry.registry.counter("aql_reconfigurations").inc()
            if span is not None:
                telemetry.tracer.end(
                    self.machine.sim.now, span, changed=changed
                )

    def _record(self, decision: ClusterDecision) -> None:
        """Keep one record per decision; the audit shares the instance."""
        self.decision_log.append(decision)
        if self.machine.telemetry.enabled:
            self.machine.telemetry.audit.record_decision(decision)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<AqlScheduler decisions={self.decisions} "
            f"reconfigs={self.reconfigurations}>"
        )


__all__ = ["AqlScheduler"]
