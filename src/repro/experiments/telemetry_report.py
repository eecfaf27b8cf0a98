"""The ``telemetry`` report: why the scheduler did what it did.

Runs one fig6 cell (a Table-4 scenario under AQL_Sched) with the full
telemetry stack on — counter registry, span tracer, decision audit —
and renders the audit as operator-facing tables:

* the per-vCPU **"why" table**: every vTRS type flip with the window
  averages the argmax ran over, so each verdict is justified by the
  numbers that produced it;
* the **decision log**: every Algorithm 1/2 run with its input type
  census, the planned clusters, and any spill-to-default reasons;
* the **pool-change ledger**: every pool-layout mutation with its
  migration cost;
* the aggregate counter summary.

The same run backs the CLI's ``--telemetry-out`` (JSONL exposition);
``--trace-out`` writes the family's traced run (S2 under AQL: the
pCPU timeline and the span tracks).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.baselines import AqlPolicy
from repro.exec import Cell, SweepRunner
from repro.experiments import registry
from repro.experiments.runner import run_scenario
from repro.experiments.scenarios import SCENARIOS
from repro.metrics.tables import ResultTable
from repro.sim.units import MS
from repro.telemetry import Telemetry

#: the fig6 cell the report runs (S2: IO server + CPU burners + LLC
#: streamer — every cursor family shows up in the flip table)
DEFAULT_SCENARIO = "S2"

#: counters worth surfacing in the aggregate table (prefix match)
SUMMARY_PREFIXES = (
    "audit_",
    "aql_",
    "type_flips",
    "dispatches",
    "preempts",
    "migrations_total",
    "pool_plans_applied",
    "spans_recorded",
)


@dataclass
class TelemetryReport:
    """One instrumented scenario run: the full telemetry record (plain
    data — it pickles through sweep workers and the result cache)."""

    scenario: str
    policy: str
    end_time_ns: int
    telemetry: Telemetry
    summary: dict[str, float] = field(default_factory=dict)


def telemetry_cell(
    scenario_name: str, warmup_ns: int, measure_ns: int, seed: int
) -> TelemetryReport:
    """The engine cell: the fig6 cell under AQL with telemetry on, and
    the whole recorder handed back (the report reads the full audit)."""
    policy = AqlPolicy()
    run = run_scenario(
        SCENARIOS[scenario_name], policy, warmup_ns=warmup_ns,
        measure_ns=measure_ns, seed=seed, keep_built=True, telemetry=True,
    )
    assert run.built is not None
    machine = run.built.machine
    return TelemetryReport(
        scenario=run.scenario,
        policy=run.policy,
        end_time_ns=machine.sim.now,
        telemetry=machine.telemetry,
        summary=run.telemetry_summary,
    )


def plan_telemetry(
    warmup_ns: int, measure_ns: int, scenario_name: str = DEFAULT_SCENARIO,
    seed: int = 1,
) -> list[Cell]:
    kwargs = dict(scenario_name=scenario_name, warmup_ns=warmup_ns,
                  measure_ns=measure_ns, seed=seed)
    return [Cell(telemetry_cell, kwargs, label=f"telemetry:{scenario_name}:aql")]


def fold_telemetry(results: list[TelemetryReport], **_: Any) -> TelemetryReport:
    return results[0]


def run_telemetry_report(
    runner: Optional[SweepRunner] = None, **params: Any
) -> TelemetryReport:
    return registry.run(registry.REGISTRY["telemetry"], params, runner)


def _type_census(input_types) -> str:
    """(vcpu, type) pairs -> 'CONSPIN:5 IOINT:4 ...' (sorted by count)."""
    counts: dict[str, int] = {}
    for _vcpu_id, type_name in input_types:
        counts[type_name] = counts.get(type_name, 0) + 1
    return " ".join(
        f"{name}:{count}"
        for name, count in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    )


def render_telemetry_report(report: TelemetryReport) -> str:
    audit = report.telemetry.audit
    sections = []

    cursor_names = sorted(
        {name for flip in audit.flips for name, _ in flip.averages}
    )
    why = ResultTable(
        f"vTRS type flips — {report.scenario} under {report.policy} "
        "(window averages the argmax ran over; * marks the winner)",
        ["t(ms)", "vCPU", "flip"] + cursor_names,
    )
    for flip in audit.flips:
        averages = dict(flip.averages)
        cells: list[object] = [
            flip.time_ns // MS,
            flip.vcpu_name,
            f"{flip.old_type or '-'}>{flip.new_type}",
        ]
        for name in cursor_names:
            value = averages.get(name, 0.0)
            mark = "*" if name == flip.new_type else " "
            cells.append(f"{value:.3f}{mark}")
        why.add_row(*cells)
    sections.append(why.render())

    decisions = ResultTable(
        "AQL decision log — Algorithm 1/2 runs "
        "(census = input types, clusters = planned pools)",
        ["t(ms)", "#", "census", "clusters", "spills", "changed"],
    )
    for decision in audit.decisions:
        if decision.skipped:
            decisions.add_row(
                decision.time_ns // MS, decision.decision_index,
                "(cold-start delay)", "-", 0, "no",
            )
            continue
        clusters = " ".join(
            f"{name}(q={quantum_ns // MS}ms,{len(pcpus)}p,{len(vcpus)}v)"
            for name, quantum_ns, pcpus, vcpus in decision.pools
        )
        decisions.add_row(
            decision.time_ns // MS,
            decision.decision_index,
            _type_census(decision.input_types),
            clusters or "-",
            len(decision.spills),
            "yes" if decision.changed else "no",
        )
    sections.append(decisions.render())

    spill_reasons = sorted(
        {reason for d in audit.decisions for _vid, reason in d.spills}
    )
    if spill_reasons:
        sections.append(
            "spill-to-default reasons:\n" + "\n".join(
                f"  - {reason}" for reason in spill_reasons
            )
        )

    ledger = ResultTable(
        "Pool-change ledger (migrations = machine total after the change)",
        ["t(ms)", "kind", "detail", "migrations"],
    )
    for change in audit.ledger:
        ledger.add_row(
            change.time_ns // MS, change.kind, change.detail,
            change.migrations_total,
        )
    sections.append(ledger.render())

    aggregate = ResultTable(
        "Aggregate telemetry (selected counters)", ["counter", "value"]
    )
    for key, value in sorted(report.summary.items()):
        if key.startswith(SUMMARY_PREFIXES):
            aggregate.add_row(key, f"{value:g}")
    sections.append(aggregate.render())
    return "\n\n".join(sections)


def report_jsonable(report: TelemetryReport) -> dict:
    """The report as a plain-JSON dict (the golden snapshot's shape).

    Floats round to 6 places — far inside the simulator's determinism,
    wide enough that a re-run on any platform reproduces the file
    byte-for-byte.
    """
    audit = report.telemetry.audit
    return {
        "scenario": report.scenario,
        "policy": report.policy,
        "flips": [
            {
                "time_ms": flip.time_ns // MS,
                "vcpu": flip.vcpu_name,
                "old": flip.old_type,
                "new": flip.new_type,
                "averages": {
                    name: round(value, 6) for name, value in flip.averages
                },
            }
            for flip in audit.flips
        ],
        "decisions": [
            {
                "time_ms": decision.time_ns // MS,
                "index": decision.decision_index,
                "census": _type_census(decision.input_types),
                "clusters": [
                    [name, quantum_ns // MS, len(pcpus), len(vcpus)]
                    for name, quantum_ns, pcpus, vcpus in decision.pools
                ],
                "spills": len(decision.spills),
                "changed": decision.changed,
                "skipped": decision.skipped,
            }
            for decision in audit.decisions
        ],
        "ledger": [
            {
                "time_ms": change.time_ns // MS,
                "kind": change.kind,
                "migrations": change.migrations_total,
            }
            for change in audit.ledger
        ],
        "summary": {
            key: round(value, 6)
            for key, value in sorted(report.summary.items())
            if key.startswith(("audit_", "aql_", "type_flips"))
        },
    }


__all__ = [
    "DEFAULT_SCENARIO",
    "TelemetryReport",
    "render_telemetry_report",
    "report_jsonable",
    "run_telemetry_report",
]
