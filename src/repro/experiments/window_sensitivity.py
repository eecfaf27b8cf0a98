"""vTRS window-size sensitivity (§3.3.1).

The paper: "a small value of n (e.g. 1) allows taking quickly into
account sporadic vCPU type variations.  However ... frequent type
variations imply frequent vCPU migrations between pCPUs, which is
known to be negative for the performance of applications.  We have
experimentally seen that setting n to 4 is acceptable."

This experiment re-runs scenario S5 under AQL with ``n`` in
{1, 2, 4, 8} and reports (a) scheduler churn — pool reconfigurations
and vCPU migrations — and (b) per-class performance normalised over
native Xen.  The expectation: churn decreases with n; n = 4 performs
at least as well as n = 1 while migrating far less.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.baselines import AqlPolicy, Policy, XenCredit
from repro.exec import Cell, SweepRunner
from repro.experiments import registry
from repro.experiments.scenarios import SCENARIOS
from repro.metrics.tables import ResultTable
from repro.sim.units import MS

WINDOWS = (1, 2, 4, 8)


@dataclass
class WindowSensitivityResult:
    #: n -> placement -> normalised perf vs Xen
    normalized: dict[int, dict[str, float]] = field(default_factory=dict)
    #: n -> pool reconfigurations applied
    reconfigurations: dict[int, int] = field(default_factory=dict)
    #: n -> total vCPU migrations
    migrations: dict[int, int] = field(default_factory=dict)

    def mean_normalized(self, n: int) -> float:
        values = self.normalized[n]
        return sum(values.values()) / len(values)


def _window_cell(
    policy: Policy, warmup_ns: int, measure_ns: int, seed: int
) -> dict:
    """S5 plus one phase-shifting VM (the type-flapping stressor).

    The shifter starts in llco and a churn timeline cycles it through
    llco -> lolcf -> io every 400 ms for the whole run.  Returns plain
    data (perf + churn counters) so the cell can cross a process
    boundary and live in the result cache.
    """
    from repro.dynamics import (
        ChurnEngine,
        ChurnTimeline,
        PhaseChange,
        SwitchableWorkload,
    )
    from repro.experiments.runner import placement_means
    from repro.experiments.scenarios import build_scenario

    built = build_scenario(SCENARIOS["S5"], seed=seed)
    machine = built.machine
    pool = built.ctx.pool
    assert pool is not None
    shifter_vm = machine.new_vm("shifter", 1, pool=pool)
    modes = ("llco", "lolcf", "io")
    period = 400 * MS
    shifter = SwitchableWorkload("shifter", mode=modes[0])
    shifter.install(machine, shifter_vm)
    timeline = ChurnTimeline(tuple(
        PhaseChange(
            at_ns, name="shifter", mode=modes[at_ns // period % len(modes)]
        )
        for at_ns in range(period, warmup_ns + measure_ns + 1, period)
    ))
    ChurnEngine(machine, timeline, {"shifter": shifter}).arm()
    policy.setup(machine, built.ctx)
    machine.run(warmup_ns)
    for workload in built.workloads.values():
        workload.begin_measurement()
    machine.run(measure_ns)
    machine.sync()
    manager = getattr(policy, "manager", None)
    return {
        "by_placement": placement_means(
            {name: w.result().value for name, w in built.workloads.items()}
        ),
        "reconfigurations": (
            manager.reconfigurations if manager is not None else 0
        ),
        "migrations": sum(
            vcpu.migrations for vcpu in machine.all_vcpus
        ),
    }


def plan_window(
    warmup_ns: int, measure_ns: int, windows: tuple[int, ...] = WINDOWS,
    seed: int = 1,
) -> list[Cell]:
    """Xen, then AQL at every window size ``n``."""
    policies: list[Policy] = [XenCredit()]
    policies += [AqlPolicy(window=n) for n in windows]
    labels = ["window:xen"] + [f"window:n={n}" for n in windows]
    timing = dict(warmup_ns=warmup_ns, measure_ns=measure_ns, seed=seed)
    return [
        Cell(_window_cell, dict(policy=policy, **timing), label=label)
        for policy, label in zip(policies, labels)
    ]


def fold_window(
    results: list[dict], windows: tuple[int, ...] = WINDOWS, **_params: Any
) -> WindowSensitivityResult:
    xen = results[0]["by_placement"]
    result = WindowSensitivityResult()
    for n, outcome in zip(windows, results[1:]):
        by_placement = outcome["by_placement"]
        result.normalized[n] = {
            key: by_placement[key] / xen[key] for key in xen
        }
        result.reconfigurations[n] = outcome["reconfigurations"]
        result.migrations[n] = outcome["migrations"]
    return result


def run_window_sensitivity(
    runner: Optional[SweepRunner] = None, **params: Any
) -> WindowSensitivityResult:
    return registry.run(registry.REGISTRY["window"], params, runner)


def render_window_sensitivity(result: WindowSensitivityResult) -> str:
    placements = sorted(next(iter(result.normalized.values())))
    table = ResultTable(
        "vTRS window sensitivity on S5 (normalised over Xen; churn in"
        " reconfigurations/migrations)",
        ["n"] + placements + ["mean", "reconfigs", "migrations"],
    )
    for n in sorted(result.normalized):
        table.add_row(
            str(n),
            *(result.normalized[n][key] for key in placements),
            result.mean_normalized(n),
            result.reconfigurations[n],
            result.migrations.get(n, 0),
        )
    return table.render()


__all__ = [
    "WINDOWS",
    "WindowSensitivityResult",
    "run_window_sensitivity",
    "render_window_sensitivity",
]
