"""The fleet experiment family: placement policies at datacenter scale.

Runs every diurnal story under every placement policy on the same
fleet and compares them — the paper's per-host scheduling insight
(each vTRS type wants its own quantum, hence its own cpupool)
re-applied one level up as a placement signal: an AQL-aware placer
that co-locates VMs by detected type against first-fit/best-fit
bin packers that ignore behaviour entirely.

``REPRO_FLEET_STORY`` (env) restricts the sweep to one story — the CI
smoke job uses it to keep the tiny run tiny.  Everything else follows
the family conventions: results go through the shared
:class:`~repro.exec.SweepRunner`, stdout is byte-identical across
serial/parallel/cached runs, and ``--telemetry-out`` exports the
fleet-level control-plane record.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Iterator

from repro.exec import Cell, SweepRunner
from repro.fleet import (
    STORIES,
    FleetRun,
    FleetSimulation,
    FleetSpec,
    make_placer,
)
from repro.metrics.tables import ResultTable
from repro.sim.units import MS
from repro.telemetry import Telemetry

#: placement policies the family compares, in report order
FLEET_PLACERS = ("first_fit", "best_fit", "aql_aware")

#: environment variable restricting the sweep to one story (CI smoke)
ENV_STORY = "REPRO_FLEET_STORY"


def fleet_spec(fast: bool = False) -> FleetSpec:
    """The family's fleet shape: tiny for ``--fast``, datacenter else.

    The full spec is the acceptance configuration: 64 hosts x 8 slots
    = 512 VM slots, and the ``weekday`` story peaks at 99% of that —
    a >500-VM fleet at the top of the diurnal curve.
    """
    if fast:
        return FleetSpec(
            hosts=6,
            epochs=2,
            warmup_ns=80 * MS,
            epoch_ns=200 * MS,
            migration_lag_ns=30 * MS,
            migration_budget=4,
        )
    return FleetSpec(
        hosts=64,
        epochs=3,
        warmup_ns=120 * MS,
        epoch_ns=320 * MS,
        migration_lag_ns=40 * MS,
        migration_budget=16,
    )


@dataclass
class FleetReport:
    """The family's result plus its exportable telemetry record."""

    #: story -> placer -> folded run
    runs: dict[str, dict[str, FleetRun]]
    telemetry: Telemetry
    end_time_ns: int


def _simulations(
    fast: bool, seed: int, **kwargs: Any
) -> Iterator[tuple[str, str, FleetSimulation]]:
    """(story, placer, simulation) for every pair the family compares."""
    only = os.environ.get(ENV_STORY, "").strip()
    names = [n for n in sorted(STORIES) if not only or n == only]
    if not names:
        raise ValueError(
            f"{ENV_STORY}={only!r} matches no story; "
            f"choose from {sorted(STORIES)}"
        )
    spec = fleet_spec(fast)
    for story_name in names:
        for placer_name in FLEET_PLACERS:
            yield story_name, placer_name, FleetSimulation(
                spec, STORIES[story_name], make_placer(placer_name),
                seed=seed, **kwargs,
            )


def plan_fleet(fast: bool, seed: int = 0) -> list[Cell]:
    """The first epoch's host cells of every (story, placer) pair:
    later epochs depend on where the placer put VMs and what their
    hosts detected, so only the first barrier plans ahead."""
    return [
        cell
        for *_, simulation in _simulations(fast, seed)
        for cell in simulation.first_cells()
    ]


def steer_fleet(runner: SweepRunner, fast: bool, seed: int = 0) -> FleetReport:
    """Every (story, placer) pair, one epoch sweep at a time."""
    telemetry = Telemetry(enabled=True)
    runs: dict[str, dict[str, FleetRun]] = {}
    for story, placer, simulation in _simulations(
        fast, seed, runner=runner, telemetry=telemetry
    ):
        runs.setdefault(story, {})[placer] = simulation.run()
    spec = fleet_spec(fast)
    return FleetReport(
        runs=runs,
        telemetry=telemetry,
        end_time_ns=spec.epochs * (spec.warmup_ns + spec.epoch_ns),
    )


def render_fleet(report: FleetReport) -> str:
    """Per-story epoch tables plus the placement comparison summary."""
    sections: list[str] = []
    for story_name in sorted(report.runs):
        table = ResultTable(
            f"fleet story {story_name!r} — per-epoch metrics by placer",
            [
                "placer",
                "epoch",
                "vms",
                "hosts",
                "arr",
                "dep",
                "migr",
                "p99_ms",
                "util",
                "spread",
            ],
        )
        for placer_name in FLEET_PLACERS:
            run = report.runs[story_name][placer_name]
            for metrics in run.epochs:
                table.add_row(
                    placer_name,
                    metrics.epoch,
                    metrics.vms,
                    metrics.active_hosts,
                    metrics.arrivals,
                    metrics.departures,
                    metrics.migrations,
                    metrics.p99_ms,
                    metrics.mean_util,
                    metrics.util_spread,
                )
        sections.append(table.render())

    summary = ResultTable(
        "fleet — placement policy comparison"
        " (p99 request latency; lower is better)",
        [
            "story",
            "placer",
            "peak_vms",
            "p99_ms",
            "consol",
            "migr",
            "churn",
            "units",
        ],
    )
    for story_name in sorted(report.runs):
        for placer_name in FLEET_PLACERS:
            run = report.runs[story_name][placer_name]
            summary.add_row(
                story_name,
                placer_name,
                run.peak_vms,
                run.p99_ms,
                run.consolidation,
                run.total_migrations,
                run.migration_churn,
                run.units,
            )
    sections.append(summary.render())
    return "\n\n".join(sections)


__all__ = [
    "ENV_STORY",
    "FLEET_PLACERS",
    "FleetReport",
    "fleet_spec",
    "render_fleet",
]
