"""Ablations of the design choices DESIGN.md calls out.

Three studies beyond the paper's own ablation (Fig. 7), the
``ablations`` registry family; ``parts=("boost",)`` (or ``"lock"``,
``"reuse"``) plans one study alone:

* **BOOST** (``boost``) — Credit's BOOST fast-path is
  the reason exclusive IO is quantum-agnostic (Fig. 2a); with BOOST
  disabled, exclusive-IO latency becomes quantum-bound.  This isolates
  the paper's §3.4 claim that BOOST works *only* for workloads that
  block before exhausting their quantum.
* **Lock handoff** (``lock``) — strict ticket
  (FIFO) handoff vs test-and-set barging under consolidation.  FIFO
  reproduces the lock-waiter-preemption convoys of [39]; the study
  shows how much worse ticket locks make large quanta.
* **Cache reuse curve** (``reuse``) — the concave
  hit-probability exponent governs how fast an LLC-friendly working
  set re-warms.  Uniform access (exponent 1.0) exaggerates the quantum
  effect; strong hot-subset reuse (0.3) dampens it.  The study reports
  the LLCF 1 ms / 90 ms performance ratio per exponent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.core.calibration import _build_calibration_machine
from repro.exec import Cell
from repro.hardware.specs import MachineSpec, i7_3770
from repro.hypervisor.machine import Machine
from repro.metrics.tables import ResultTable
from repro.sim.units import MS
from repro.workloads.cpu import CpuBurnWorkload
from repro.workloads.io_workload import IoWorkload
from repro.workloads.profiles import llcf_profile, llco_profile
from repro.workloads.spin import SpinWorkload


# ----------------------------------------------------------------------
# BOOST ablation
# ----------------------------------------------------------------------
@dataclass
class BoostAblation:
    #: (boost_enabled, quantum_ms) -> mean exclusive-IO latency (ns)
    latency: dict[tuple[bool, int], float] = field(default_factory=dict)


def _boost_cell(
    boost: bool, quantum_ms: int, spec: MachineSpec,
    warmup_ns: int, measure_ns: int, seed: int,
) -> float:
    machine = Machine(
        spec,
        seed=seed,
        default_quantum_ns=quantum_ms * MS,
        boost_enabled=boost,
    )
    pool = machine.create_pool(
        "p", machine.topology.pcpus[:1], quantum_ms * MS
    )
    vm = machine.new_vm("io", 1, pool=pool)
    workload = IoWorkload.exclusive("io").install(machine, vm)
    for i in range(3):
        dvm = machine.new_vm(f"hog{i}", 1, pool=pool)
        CpuBurnWorkload(f"h{i}", llco_profile(spec)).install(
            machine, dvm
        )
    machine.run(warmup_ns)
    workload.begin_measurement()
    machine.run(measure_ns)
    return workload.result().value


def render_boost_ablation(result: BoostAblation) -> str:
    quanta = sorted({q for _, q in result.latency})
    table = ResultTable(
        "BOOST ablation — exclusive-IO mean latency (ms)",
        ["quantum", "BOOST on", "BOOST off", "off/on"],
    )
    for quantum_ms in quanta:
        on = result.latency[(True, quantum_ms)]
        off = result.latency[(False, quantum_ms)]
        table.add_row(
            f"{quantum_ms}ms", on / 1e6, off / 1e6, off / max(on, 1e-9)
        )
    return table.render()


# ----------------------------------------------------------------------
# lock-handoff ablation
# ----------------------------------------------------------------------
@dataclass
class LockHandoffAblation:
    #: (handoff, quantum_ms) -> ns per job in the dense-lock workload
    ns_per_job: dict[tuple[str, int], float] = field(default_factory=dict)
    #: (handoff, quantum_ms) -> mean lock duration (ns)
    lock_duration: dict[tuple[str, int], float] = field(default_factory=dict)


def _lock_handoff_cell(
    handoff: str, quantum_ms: int, spec: MachineSpec,
    warmup_ns: int, measure_ns: int, seed: int,
) -> tuple[float, float]:
    machine = Machine(
        spec, seed=seed, default_quantum_ns=quantum_ms * MS
    )
    pool = machine.create_pool(
        "p", machine.topology.pcpus[:2], quantum_ms * MS
    )
    vm = machine.new_vm("spin", 4, weight=1024, pool=pool)
    workload = SpinWorkload(
        "dense",
        threads=4,
        work_instructions=150_000.0,
        cs_instructions=30_000.0,
        use_barrier=False,
        lock_handoff=handoff,
    ).install(machine, vm)
    for i in range(4):
        dvm = machine.new_vm(f"hog{i}", 1, pool=pool)
        CpuBurnWorkload(f"h{i}", llcf_profile(spec)).install(
            machine, dvm
        )
    machine.run(warmup_ns)
    workload.begin_measurement()
    machine.run(measure_ns)
    machine.sync()
    perf = workload.result()
    return perf.value, dict(perf.details)["mean_lock_duration_ns"]


def render_lock_handoff_ablation(result: LockHandoffAblation) -> str:
    quanta = sorted({q for _, q in result.ns_per_job})
    table = ResultTable(
        "Lock-handoff ablation — dense-lock workload, 4 threads + 4 hogs"
        " on 2 pCPUs",
        ["quantum", "hybrid ns/job", "fifo ns/job", "fifo/hybrid",
         "hybrid lock (us)", "fifo lock (us)"],
    )
    for quantum_ms in quanta:
        hybrid = result.ns_per_job[("hybrid", quantum_ms)]
        fifo = result.ns_per_job[("fifo", quantum_ms)]
        table.add_row(
            f"{quantum_ms}ms",
            hybrid,
            fifo,
            fifo / max(hybrid, 1e-9),
            result.lock_duration[("hybrid", quantum_ms)] / 1000.0,
            result.lock_duration[("fifo", quantum_ms)] / 1000.0,
        )
    return table.render()


# ----------------------------------------------------------------------
# cache reuse-curve ablation
# ----------------------------------------------------------------------
@dataclass
class ReuseAblation:
    #: exponent -> (llcf value at 1 ms) / (llcf value at 90 ms)
    quantum_sensitivity: dict[float, float] = field(default_factory=dict)


def _llcf_cell(
    spec: MachineSpec, exponent: float, quantum_ms: int,
    warmup_ns: int, measure_ns: int, seed: int,
) -> float:
    machine, baseline, _ = _build_calibration_machine(
        "llcf", quantum_ms, 4, spec, seed
    )
    for socket in machine.topology.sockets:
        socket.llc.reuse_exponent = exponent
    machine.run(warmup_ns)
    baseline.begin_measurement()
    machine.run(measure_ns)
    machine.sync()
    return baseline.result().value


def render_reuse_ablation(result: ReuseAblation) -> str:
    table = ResultTable(
        "Cache reuse-curve ablation — LLCF quantum sensitivity"
        " (perf at 1 ms / perf at 90 ms; > 1 means long quanta help)",
        ["reuse exponent", "1ms / 90ms ratio"],
    )
    for exponent, ratio in sorted(result.quantum_sensitivity.items()):
        table.add_row(f"{exponent:.1f}", ratio)
    return table.render()


# ----------------------------------------------------------------------
# the family: any subset of the three studies as one sweep
# ----------------------------------------------------------------------
ABLATION_PARTS = ("boost", "lock", "reuse")
QUANTA_MS = (1, 30, 90)
EXPONENTS = (0.3, 0.5, 1.0)
#: study -> (cell function, its grid axis, cell label format)
_STUDIES = {
    "boost": (_boost_cell, "boost", "ablation:boost={}:{}ms"),
    "lock": (_lock_handoff_cell, "handoff", "ablation:lock-{}:{}ms"),
    "reuse": (_llcf_cell, "exponent", "ablation:reuse={}:{}ms"),
}


def _grid(
    part: str, quanta_ms: tuple[int, ...], exponents: tuple[float, ...]
) -> list[tuple]:
    """The (axis value, quantum_ms) points of one study."""
    if part == "boost":
        return [(b, q) for b in (True, False) for q in quanta_ms]
    if part == "lock":
        return [(h, q) for h in ("hybrid", "fifo") for q in quanta_ms]
    return [(e, q) for e in exponents for q in (1, 90)]


@dataclass
class Ablations:
    """The studies a run planned (the others stay None)."""

    boost: Optional[BoostAblation] = None
    lock: Optional[LockHandoffAblation] = None
    reuse: Optional[ReuseAblation] = None


def plan_ablations(
    measure_ns: int, warmup_ns: int = 500 * MS, seed: int = 3,
    quanta_ms: tuple[int, ...] = QUANTA_MS,
    exponents: tuple[float, ...] = EXPONENTS,
    parts: tuple[str, ...] = ABLATION_PARTS,
) -> list[Cell]:
    spec = i7_3770()
    return [
        Cell(fn, {axis: value, "quantum_ms": quantum_ms, "spec": spec,
                  "warmup_ns": warmup_ns, "measure_ns": measure_ns,
                  "seed": seed}, label=label.format(value, quantum_ms))
        for part in parts
        for fn, axis, label in [_STUDIES[part]]
        for value, quantum_ms in _grid(part, quanta_ms, exponents)
    ]


def fold_ablations(
    results: list,
    quanta_ms: tuple[int, ...] = QUANTA_MS,
    exponents: tuple[float, ...] = EXPONENTS,
    parts: tuple[str, ...] = ABLATION_PARTS, **_params: Any,
) -> Ablations:
    values = iter(results)
    raw = {
        part: {point: next(values) for point in _grid(part, quanta_ms, exponents)}
        for part in parts
    }
    result = Ablations()
    if "boost" in raw:
        result.boost = BoostAblation(latency=raw["boost"])
    if "lock" in raw:
        result.lock = LockHandoffAblation(
            ns_per_job={k: v[0] for k, v in raw["lock"].items()},
            lock_duration={k: v[1] for k, v in raw["lock"].items()},
        )
    if "reuse" in raw:
        reuse = raw["reuse"]
        result.reuse = ReuseAblation(
            {e: reuse[(e, 1)] / reuse[(e, 90)] for e in exponents}
        )
    return result


def render_ablations(result: Ablations) -> str:
    return "\n\n".join(
        render(part)
        for render, part in (
            (render_boost_ablation, result.boost),
            (render_lock_handoff_ablation, result.lock),
            (render_reuse_ablation, result.reuse),
        )
        if part is not None
    )


__all__ = [
    "BoostAblation",
    "LockHandoffAblation",
    "ReuseAblation",
    "render_boost_ablation",
    "render_lock_handoff_ablation",
    "render_reuse_ablation",
]
