"""The experiment registry: one declarative record per CLI family.

The CLI, the benchmarks and EXPERIMENTS.md all read a family's
parameters from its :class:`Experiment` in :data:`REGISTRY`, and
:func:`run` is every family's one execution path (an engine sweep:
parallel, cached, resumable): ``run(REGISTRY["fig5"], params,
runner)``.  Family modules have no entry point of their own and never
import this module back; they are imported on first use, so listing,
planning and flag validation load no family code.
See DESIGN.md §17.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import import_module
from typing import TYPE_CHECKING, Any, Callable, Mapping, Optional

from repro.sim.units import MS, SEC

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.exec import Cell, SweepRunner


def _lazy(module: str, name: str) -> Callable[..., Any]:
    """``repro.experiments.<module>.<name>``, imported on first call."""

    def call(*args: Any, **kwargs: Any) -> Any:
        family = import_module(f"repro.experiments.{module}")
        return getattr(family, name)(*args, **kwargs)

    call.__qualname__ = f"{module}.{name}"
    return call


@dataclass(frozen=True)
class TracedRun:
    """A family's ``--trace-out`` run: one short scenario x policy run
    with telemetry on, separate from the family's sweep (stdout is
    unchanged by it)."""

    scenario: str  # SCENARIOS key, or "fig3" for the multi-socket pop.
    policy: str  # a repro.baselines.make_policy name

    def __call__(self, path: str, fast: bool = False) -> tuple[int, int]:
        """Run the scenario, write its spans as a chrome trace to
        ``path``; returns (#events, #spans dropped)."""
        from repro.baselines import make_policy
        from repro.experiments.runner import run_scenario
        from repro.experiments.scenarios import FIG3_POPULATION, SCENARIOS
        from repro.metrics.chrome_trace import write_chrome_trace

        run = run_scenario(
            FIG3_POPULATION if self.scenario == "fig3"
            else SCENARIOS[self.scenario],
            make_policy(self.policy),
            warmup_ns=200 * MS if fast else 400 * MS,
            measure_ns=400 * MS if fast else 800 * MS,
            keep_built=True, telemetry=True,
        )
        assert run.built is not None
        machine = run.built.machine
        tracer = machine.telemetry.tracer
        count = write_chrome_trace(path, tracer, machine.sim.now)
        return count, tracer.dropped


@dataclass(frozen=True)
class Experiment:
    """One experiment family, declared once (fields: DESIGN.md §17)."""

    name: str
    description: str
    fast: Mapping[str, Any]  # same keys as ``full``
    full: Mapping[str, Any]  # benchmark scale, CLI and ``run`` default
    plan: Callable[..., list["Cell"]]  # plan(**params) -> cells
    fold: Optional[Callable[..., Any]]  # fold(results, **params) -> result
    render: Callable[[Any], str]  # render(result) -> tables
    #: traced(path, fast=...) -> (#events, #spans dropped)
    traced: Optional[Callable[..., tuple[int, int]]] = None
    telemetry: bool = False  # result has ``telemetry``, ``end_time_ns``
    #: steer(runner, **params) -> result replaces plan/fold for a family
    #: whose later cells depend on earlier results (the fleet's epochs)
    steer: Optional[Callable[..., Any]] = None


def run(
    exp: Experiment,
    params: Optional[Mapping[str, Any]] = None,
    runner: Optional["SweepRunner"] = None,
) -> Any:
    """Plan, execute and fold one family; ``params`` override ``full``."""
    from repro.exec import SweepRunner

    merged = {**exp.full, **(params or {})}
    runner = runner if runner is not None else SweepRunner()
    if exp.steer is not None:
        return exp.steer(runner, **merged)
    assert exp.fold is not None
    return exp.fold(runner.run(exp.plan(**merged), stage=exp.name), **merged)


def _family(
    name: str, description: str, module: str,
    fast: Mapping[str, Any], full: Mapping[str, Any], render: str = "",
    traced: Optional[Callable[..., tuple[int, int]]] = None,
    telemetry: bool = False,
    steer: bool = False,
) -> Experiment:
    """A record of ``repro.experiments.<module>``'s ``plan_<name>``,
    ``fold_<name>`` (or ``steer_<name>``), ``render_<name>``/``render``."""
    return Experiment(
        name, description, fast, full,
        plan=_lazy(module, f"plan_{name}"),
        fold=None if steer else _lazy(module, f"fold_{name}"),
        render=_lazy(module, render or f"render_{name}"),
        traced=traced, telemetry=telemetry,
        steer=_lazy(module, f"steer_{name}") if steer else None,
    )


#: the ``--fast`` subsets: the first six of FIG5_APPS, the first eight
#: catalog programs by name
_FIG5_FAST_APPS = ("hmmer", "sjeng", "bzip2", "h264ref", "mcf", "omnetpp")
_TABLE3_FAST_APPS = ("astar", "blackscholes", "bodytrack", "bzip2",
                     "canneal", "dedup", "facesim", "ferret")
#: the scenario families' windows (shared, never mutated)
_FAST = dict(warmup_ns=1 * SEC, measure_ns=2 * SEC)
_FULL = dict(warmup_ns=2 * SEC, measure_ns=4 * SEC)

#: CLI family name -> record, in ``list`` order
REGISTRY: dict[str, Experiment] = {exp.name: exp for exp in (
    _family("fig2", "Fig. 2 — quantum calibration panels + lock inset",
            "fig2_calibration",
            fast=dict(warmup_ns=500 * MS, measure_ns=1 * SEC),
            full=dict(warmup_ns=1 * SEC, measure_ns=3 * SEC),
            traced=TracedRun("S1", "xen")),
    _family("fig3", "Fig. 3 — two-level clustering worked example",
            "fig3_clustering", fast={}, full={},
            traced=TracedRun("fig3", "aql")),
    _family("fig4", "Fig. 4 — online vTRS in action", "fig4_vtrs",
            fast=dict(periods=20), full=dict(periods=50),
            traced=TracedRun("S2", "aql")),
    _family("fig5", "Fig. 5 — per-application robustness", "fig5_validation",
            fast=dict(apps=_FIG5_FAST_APPS, warmup_ns=500 * MS,
                      measure_ns=1 * SEC),
            full=dict(apps=None, warmup_ns=1 * SEC, measure_ns=2 * SEC),
            traced=TracedRun("S3", "aql")),
    _family("fig6", "Fig. 6 + Table 5 — AQL vs Xen (single & multi socket)",
            "fig6_effectiveness", fast=_FAST, full=_FULL,
            traced=TracedRun("S2", "aql")),
    _family("fig7", "Fig. 7 — quantum-customisation ablation",
            "fig7_customization", fast=_FAST, full=_FULL,
            traced=TracedRun("S4", "aql")),
    _family("fig8", "Fig. 8 — vs vTurbo/vSlicer/Microsliced",
            "fig8_comparison", fast=_FAST, full=_FULL,
            traced=TracedRun("S5", "aql")),
    _family("table3", "Table 3 — vTRS recognition over the catalog",
            "table3_recognition",
            fast=dict(apps=_TABLE3_FAST_APPS, duration_ns=1 * SEC),
            full=dict(apps=None, duration_ns=2 * SEC),
            traced=TracedRun("S1", "aql")),
    _family("overhead", "§4.3 + Table 6 — overhead & feature matrix",
            "overhead", fast=_FAST, full=_FULL,
            render="render_overhead_and_table6",
            traced=TracedRun("S2", "xen")),
    _family("ablations", "extra ablations: BOOST, lock handoff, reuse curve",
            "ablations",
            fast=dict(measure_ns=1 * SEC), full=dict(measure_ns=2 * SEC),
            traced=TracedRun("S4", "aql")),
    _family("sync", "§3.2 ablation: spin locks vs blocking semaphores",
            "sync_primitives",
            fast=dict(measure_ns=1 * SEC), full=dict(measure_ns=2 * SEC),
            render="render_sync_primitives", traced=TracedRun("S1", "aql")),
    _family("window", "§3.3.1: vTRS window-size sensitivity",
            "window_sensitivity", fast=_FAST, full=_FULL,
            render="render_window_sensitivity", traced=TracedRun("S3", "aql")),
    _family("random", "generalisation: AQL on random colocation mixes",
            "random_mixes",
            fast=dict(mixes=3, measure_ns=2 * SEC),
            full=dict(mixes=5, measure_ns=3 * SEC),
            render="render_random_mixes", traced=TracedRun("S5", "aql")),
    # story-driven trace: the "phases" story under AQL
    _family("churn", "dynamics: VM churn, phase changes & faults, AQL vs Xen",
            "churn", fast=dict(fast=True), full=dict(fast=False),
            traced=_lazy("churn", "export_churn_trace")),
    _family("fleet", "datacenter fleet: AQL-aware placement vs bin packing "
            "under diurnal traffic",
            "fleet", fast=dict(fast=True), full=dict(fast=False),
            telemetry=True, steer=True),
    _family("telemetry", "decision audit: per-vCPU type-flip 'why' table + "
            "pool-change ledger",
            "telemetry_report",
            fast=dict(warmup_ns=500 * MS, measure_ns=1 * SEC),
            full=dict(warmup_ns=1 * SEC, measure_ns=2 * SEC),
            render="render_telemetry_report", traced=TracedRun("S2", "aql"),
            telemetry=True),
)}


__all__ = ["Experiment", "REGISTRY", "TracedRun", "run"]
