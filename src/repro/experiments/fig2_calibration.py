"""Fig. 2: the quantum-length calibration panels (a)-(f) + lock inset.

Reproduces §3.4: for each of the six calibrated kinds, normalised
performance across quantum lengths {1, 10, 30, 60, 90} ms and
consolidation ratios {2, 4}, plus the mean-lock-duration-vs-quantum
inset and the derived best quantum per type.

Shape targets (see EXPERIMENTS.md): exclusive IO / LoLCF / LLCO flat;
heterogeneous IO and ConSpin best at 1 ms; LLCF best at 90 ms; lock
duration monotonically increasing with the quantum.
"""

from __future__ import annotations

from typing import Optional

from repro.core.calibration import (
    CALIBRATION_QUANTA_MS,
    CalibrationResult,
    fold_calibration,
    plan_calibration,
)
from repro.exec import Cell
from repro.hardware.specs import MachineSpec
from repro.metrics.tables import ResultTable, format_quantum

PANELS = (
    ("io_exclusive", "(a) Excl. IOInt"),
    ("io_hetero", "(b) Hetero. IOInt"),
    ("conspin", "(c) ConSpin"),
    ("llcf", "(d) LLCF"),
    ("lolcf", "(e) LoLCF"),
    ("llco", "(f) LLCO"),
)


def plan_fig2(
    warmup_ns: int, measure_ns: int, spec: Optional[MachineSpec] = None,
    seed: int = 3,
) -> list[Cell]:
    return plan_calibration(
        spec=spec, warmup_ns=warmup_ns, measure_ns=measure_ns, seed=seed
    )


fold_fig2 = fold_calibration


def render_fig2(result: CalibrationResult) -> str:
    """The same series the paper plots, as text tables."""
    sections = []
    for kind, title in PANELS:
        table = ResultTable(
            f"Fig. 2 {title} — normalised perf (lower is better, 30ms = 1.0)",
            ["quantum"] + [f"{k} vCPUs/pCPU" for k in (2, 4)],
        )
        for quantum_ms in CALIBRATION_QUANTA_MS:
            table.add_row(
                f"{quantum_ms}ms",
                result.normalized[(kind, quantum_ms, 2)],
                result.normalized[(kind, quantum_ms, 4)],
            )
        sections.append(table.render())

    inset = ResultTable(
        "Fig. 2 (rightmost) — mean lock duration vs quantum",
        ["quantum", "lock duration (us)"],
    )
    for quantum_ms in sorted(result.lock_duration_ns):
        inset.add_row(
            f"{quantum_ms}ms", result.lock_duration_ns[quantum_ms] / 1000.0
        )
    sections.append(inset.render())

    best = ResultTable(
        "Derived best quantum per type (paper: IOInt/ConSpin 1ms, LLCF 90ms,"
        " LoLCF/LLCO agnostic)",
        ["type", "best quantum"],
    )
    for vtype, quantum in result.best_quanta.items():
        best.add_row(vtype.value, format_quantum(quantum))
    sections.append(best.render())
    return "\n\n".join(sections)


__all__ = ["render_fig2", "PANELS"]
