"""§4.3 + Table 6: AQL_Sched overhead and the feature matrix.

Overhead is measured two ways, mirroring the paper's argument:

* **end-to-end** — scenario S5 under full online AQL vs AQL driven by
  a ground-truth type oracle.  The delta bundles every cost of the
  online machinery (monitoring, misclassification transients, extra
  migrations); the paper claims < 1 % degradation overall;
* **mechanism accounting** — decisions taken, pool reconfigurations
  applied and vCPU migrations performed by the online run.

Table 6's qualitative feature matrix is rendered verbatim.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.baselines import AqlPolicy
from repro.exec import Cell
from repro.experiments.runner import run_scenario
from repro.experiments.scenarios import SCENARIOS
from repro.metrics.tables import ResultTable


@dataclass
class OverheadResult:
    #: placement -> online AQL / oracle AQL (1.0 = no overhead)
    relative: dict[str, float] = field(default_factory=dict)
    decisions: int = 0
    reconfigurations: int = 0
    total_migrations: int = 0

    @property
    def mean_overhead(self) -> float:
        """Mean performance cost of online recognition (0.01 = 1 %)."""
        if not self.relative:
            return 0.0
        return sum(self.relative.values()) / len(self.relative) - 1.0


def overhead_cell(oracle: bool, warmup_ns: int, measure_ns: int, seed: int) -> dict:
    """The engine cell: S5 under AQL (online or oracle-typed), reduced
    to plain data — per-placement perf plus the mechanism counters."""
    policy = AqlPolicy(oracle=oracle)
    run = run_scenario(
        SCENARIOS["S5"], policy, warmup_ns=warmup_ns,
        measure_ns=measure_ns, seed=seed, keep_built=True,
    )
    assert policy.manager is not None and run.built is not None
    return {
        "by_placement": run.by_placement,
        "decisions": policy.manager.decisions,
        "reconfigurations": policy.manager.reconfigurations,
        "migrations": sum(
            vcpu.migrations for vcpu in run.built.machine.all_vcpus
        ),
    }


def plan_overhead(warmup_ns: int, measure_ns: int, seed: int = 1) -> list[Cell]:
    """The oracle run, then the online run."""
    timing = dict(warmup_ns=warmup_ns, measure_ns=measure_ns, seed=seed)
    return [
        Cell(overhead_cell, dict(oracle=oracle, **timing), label=f"overhead:{kind}")
        for oracle, kind in ((True, "oracle"), (False, "online"))
    ]


def fold_overhead(results: list[dict], **_params: Any) -> OverheadResult:
    oracle, online = results
    return OverheadResult(
        relative={
            key: online["by_placement"][key] / value
            for key, value in oracle["by_placement"].items()
        },
        decisions=online["decisions"],
        reconfigurations=online["reconfigurations"],
        total_migrations=online["migrations"],
    )


def render_overhead(result: OverheadResult) -> str:
    table = ResultTable(
        "AQL_Sched overhead — online vTRS vs ground-truth oracle"
        " (1.0 = free; paper claims < 1% degradation)",
        ["application", "online / oracle"],
    )
    for key, value in result.relative.items():
        table.add_row(key, value)
    summary = ResultTable(
        "Mechanism accounting",
        ["metric", "value"],
    )
    summary.add_row("mean overhead", f"{result.mean_overhead * 100:+.1f}%")
    summary.add_row("vTRS decisions", result.decisions)
    summary.add_row("pool reconfigurations", result.reconfigurations)
    summary.add_row("vCPU migrations", result.total_migrations)
    return table.render() + "\n\n" + summary.render()


#: Table 6, rendered verbatim from the paper.
TABLE6_FEATURES: tuple[tuple[str, str, str, str, str], ...] = (
    ("vTurbo", "not supported", "IO", "no overhead", "no"),
    ("vSlicer", "not supported", "IO", "no overhead", "no"),
    (
        "Microsliced",
        "not supported",
        "IO, spin-lock",
        "overhead for CPU burn",
        "yes",
    ),
    ("Xen BOOST", "supported", "IO", "no overhead", "no"),
    (
        "AQL_Sched",
        "supported",
        "IO, spin-lock, CPU burn",
        "no overhead",
        "no",
    ),
)


def render_table6() -> str:
    table = ResultTable(
        "Table 6 — feature comparison",
        [
            "solution",
            "dynamic type recognition",
            "handled types",
            "overhead",
            "hardware modification",
        ],
    )
    for row in TABLE6_FEATURES:
        table.add_row(*row)
    return table.render()


def render_overhead_and_table6(result: OverheadResult) -> str:
    """The CLI family's output: the overhead tables, then Table 6."""
    return render_overhead(result) + "\n\n" + render_table6()


__all__ = [
    "OverheadResult",
    "render_overhead",
    "render_table6",
    "TABLE6_FEATURES",
]
