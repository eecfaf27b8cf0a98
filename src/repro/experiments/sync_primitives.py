"""Sync-primitive ablation: spin locks vs blocking semaphores.

§3.2 of the paper explains why ConSpin applications are hurt by long
quanta: spinning waiters burn CPU whenever a lock holder's vCPU is
descheduled, while semaphore waiters release the processor.  This
experiment runs the same synchronised loop with both primitives across
quantum lengths, on the same consolidated setup: the spin variant
should degrade with the quantum while the blocking variant remains
comparatively flat (its waiters never spin and BOOST covers wake-ups).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.exec import Cell
from repro.hardware.specs import i7_3770
from repro.hypervisor.machine import Machine
from repro.metrics.tables import ResultTable
from repro.sim.units import MS
from repro.workloads.blocking import BlockingSyncWorkload
from repro.workloads.cpu import CpuBurnWorkload
from repro.workloads.profiles import lolcf_profile
from repro.workloads.spin import SpinWorkload


@dataclass
class SyncPrimitiveResult:
    #: (primitive, quantum_ms) -> ns per job
    ns_per_job: dict[tuple[str, int], float] = field(default_factory=dict)
    #: (primitive, quantum_ms) -> mean lock/semaphore duration (ns)
    duration_ns: dict[tuple[str, int], float] = field(default_factory=dict)

    def degradation(self, primitive: str, low_ms: int = 1, high_ms: int = 90):
        """perf at the large quantum / perf at the small quantum."""
        return (
            self.ns_per_job[(primitive, high_ms)]
            / self.ns_per_job[(primitive, low_ms)]
        )


def _run_cell(
    primitive: str, quantum_ms: int, warmup_ns: int, measure_ns: int, seed: int
) -> tuple[float, float]:
    spec = i7_3770()
    machine = Machine(spec, seed=seed, default_quantum_ns=quantum_ms * MS)
    pool = machine.create_pool("p", machine.topology.pcpus[:2], quantum_ms * MS)
    vm = machine.new_vm("sync", 4, weight=1024, pool=pool)
    if primitive == "spin":
        workload = SpinWorkload(
            "spin",
            threads=4,
            work_instructions=150_000.0,
            cs_instructions=30_000.0,
            use_barrier=False,
        )
        stats = lambda: workload.lock.stats.mean_duration_ns  # noqa: E731
    elif primitive == "semaphore":
        workload = BlockingSyncWorkload(
            "blocking",
            threads=4,
            work_instructions=150_000.0,
            cs_instructions=30_000.0,
        )
        stats = lambda: workload.semaphore.stats.mean_duration_ns  # noqa: E731
    else:
        raise ValueError(f"unknown primitive {primitive!r}")
    workload.install(machine, vm)
    for i in range(4):
        dvm = machine.new_vm(f"hog{i}", 1, pool=pool)
        CpuBurnWorkload(f"h{i}", lolcf_profile(spec)).install(machine, dvm)
    machine.run(warmup_ns)
    workload.begin_measurement()
    machine.run(measure_ns)
    machine.sync()
    return workload.result().value, stats()


#: quantum lengths the ablation sweeps
SYNC_QUANTA_MS = (1, 30, 90)
PRIMITIVES = ("spin", "semaphore")


def plan_sync(
    measure_ns: int, quanta_ms: tuple[int, ...] = SYNC_QUANTA_MS,
    warmup_ns: int = 500 * MS, seed: int = 3,
) -> list[Cell]:
    timing = dict(warmup_ns=warmup_ns, measure_ns=measure_ns, seed=seed)
    return [
        Cell(_run_cell, dict(primitive=p, quantum_ms=q, **timing),
             label=f"sync:{p}:{q}ms")
        for p in PRIMITIVES for q in quanta_ms
    ]


def fold_sync(
    results: list[tuple[float, float]],
    quanta_ms: tuple[int, ...] = SYNC_QUANTA_MS, **_params: Any,
) -> SyncPrimitiveResult:
    result = SyncPrimitiveResult()
    grid = [(p, q) for p in PRIMITIVES for q in quanta_ms]
    for key, (value, duration) in zip(grid, results):
        result.ns_per_job[key] = value
        result.duration_ns[key] = duration
    return result


def render_sync_primitives(result: SyncPrimitiveResult) -> str:
    quanta = sorted({q for _, q in result.ns_per_job})
    table = ResultTable(
        "Sync-primitive ablation — 4 synchronised workers + 4 hogs on"
        " 2 pCPUs (ns per job)",
        ["quantum", "spin", "semaphore", "spin dur (us)", "sem dur (us)"],
    )
    for quantum_ms in quanta:
        table.add_row(
            f"{quantum_ms}ms",
            result.ns_per_job[("spin", quantum_ms)],
            result.ns_per_job[("semaphore", quantum_ms)],
            result.duration_ns[("spin", quantum_ms)] / 1000.0,
            result.duration_ns[("semaphore", quantum_ms)] / 1000.0,
        )
    return table.render()


__all__ = [
    "SyncPrimitiveResult",
    "render_sync_primitives",
]
