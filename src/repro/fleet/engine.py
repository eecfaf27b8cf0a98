"""The fleet simulation: epochs, barriers, placement, sharding.

A :class:`FleetSimulation` drives one ``(story, placer)`` pair through
``spec.epochs`` bulk-synchronous epochs:

1. the :class:`~repro.fleet.traffic.TrafficGenerator` plans the
   epoch's arrivals/departures/phase changes (a pure function of the
   fleet seed);
2. at the barrier, the placer migrates type-minority residents
   (``rebalance``) and assigns arrivals (``place``);
3. every populated host becomes one
   :func:`~repro.fleet.model.run_host_epoch` cell, fanned out through
   the :class:`~repro.exec.SweepRunner` work-stealing pool — each
   epoch is one engine sweep, so the bulk-synchronous barrier is
   exactly an engine phase boundary (plan → probe → execute → fold) —
   migrants-in and arrivals enter through ``VmBoot`` events (migrants
   pay the migration lag), departures through ``VmShutdown``;
4. results are folded into :class:`~repro.fleet.metrics.EpochMetrics`
   and the detected vTRS types feed the next barrier's placement.

Host-epoch seeds derive from ``(fleet seed, story, epoch, host)``, and
every loop iterates hosts and VM names in sorted order, so the whole
run is a pure function of ``(spec, story, placer, seed)`` — running
the cells serially or across workers is byte-identical.  When the
runner carries a run directory, every host-epoch cell is journalled
under its content-addressed cache key, so a killed fleet run resumes
mid-story: completed epochs replay from the journal (the re-planned
cells hash to the same keys) and the interrupted epoch re-executes
only its unfinished hosts.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Generator, Optional

from repro.dynamics.events import (
    ChurnEvent,
    ChurnTimeline,
    PhaseChange,
    VmBoot,
    VmShutdown,
)
from repro.exec import Cell, SweepRunner
from repro.exec.runner import aggregate_telemetry
from repro.fleet.catalog import HOST_CATALOG, VMSpec, derive_seed
from repro.fleet.metrics import EpochMetrics, FleetRun, fold_epoch, fold_run
from repro.fleet.model import SCHEDULERS, HostEpochResult, run_host_epoch
from repro.fleet.placement import HostState, Migration, Placer, vm_type
from repro.fleet.traffic import DiurnalStory, TrafficGenerator, event_offset_ns
from repro.hypervisor.hostspec import HostSpec
from repro.sim.units import MS

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.telemetry import Telemetry


@dataclass(frozen=True)
class FleetSpec:
    """Shape and rhythm of a fleet simulation (frozen, picklable)."""

    hosts: int = 64
    host_class: str = "medium"
    #: vCPU:pCPU consolidation — VM slots per host = pcpus * ratio
    vcpu_ratio: int = 2
    scheduler: str = "aql"
    epochs: int = 3
    warmup_ns: int = 120 * MS
    epoch_ns: int = 320 * MS
    #: how late into the epoch a migrated VM boots on its new host
    migration_lag_ns: int = 40 * MS
    #: inter-host moves the placer may make per barrier
    migration_budget: int = 8
    #: closed-loop clients per io-mode VM
    clients: int = 4
    #: run per-host telemetry inside every cell (summed into the run)
    telemetry: bool = False

    def __post_init__(self) -> None:
        if self.hosts < 1:
            raise ValueError("need at least one host")
        if self.host_class not in HOST_CATALOG:
            raise ValueError(
                f"unknown host class {self.host_class!r}; "
                f"choose from {sorted(HOST_CATALOG)}"
            )
        if self.vcpu_ratio < 1:
            raise ValueError("vcpu_ratio must be >= 1")
        if self.scheduler not in SCHEDULERS:
            raise ValueError(
                f"unknown scheduler {self.scheduler!r}; "
                f"choose from {SCHEDULERS}"
            )
        if self.epochs < 1:
            raise ValueError("need at least one epoch")
        if self.warmup_ns <= 0 or self.epoch_ns <= 0:
            raise ValueError("warmup and epoch durations must be positive")
        if not 0 < self.migration_lag_ns < self.epoch_ns:
            raise ValueError("migration lag must fall inside the epoch")
        if self.migration_budget < 0:
            raise ValueError("migration budget must be >= 0")
        if self.clients < 1:
            raise ValueError("need at least one client per io VM")

    @property
    def host_spec(self) -> HostSpec:
        return HOST_CATALOG[self.host_class]

    @property
    def slots_per_host(self) -> int:
        return self.host_spec.pcpus * self.vcpu_ratio

    @property
    def capacity(self) -> int:
        """Total VM slots across the fleet."""
        return self.hosts * self.slots_per_host


class FleetSimulation:
    """One ``(story, placer)`` fleet run over the epoch barrier loop."""

    def __init__(
        self,
        spec: FleetSpec,
        story: DiurnalStory,
        placer: Placer,
        seed: int = 0,
        runner: Optional[SweepRunner] = None,
        telemetry: Optional["Telemetry"] = None,
    ) -> None:
        self.spec = spec
        self.story = story
        self.placer = placer
        self.seed = seed
        #: the sweep runner (a default serial one is built by ``run``,
        #: so planning with :meth:`first_cells` starts no engine)
        self.runner = runner
        #: fleet-level control-plane telemetry (the cells' per-host
        #: telemetry is separate and controlled by ``spec.telemetry``)
        self.telemetry = telemetry
        self.host_ids = tuple(f"h{i:03d}" for i in range(spec.hosts))
        #: host id -> vm name -> spec (the steady residents)
        self.residents: dict[str, dict[str, VMSpec]] = {
            host_id: {} for host_id in self.host_ids
        }
        #: vm name -> detected vTRS type label (absent until the host's
        #: scheduler has classified the VM)
        self.detected: dict[str, str] = {}

    # ------------------------------------------------------------------
    # state views
    # ------------------------------------------------------------------
    def _alive(self) -> dict[str, VMSpec]:
        alive: dict[str, VMSpec] = {}
        for host_id in self.host_ids:
            for name in sorted(self.residents[host_id]):
                alive[name] = self.residents[host_id][name]
        return alive

    def _view(
        self, exclude: frozenset[str] = frozenset()
    ) -> tuple[HostState, ...]:
        """Placer's view; ``exclude`` hides this epoch's departures.

        A departing VM drains mid-epoch, so its slot is free again by
        the barrier's end state — hiding it lets arrivals overlap the
        drain (briefly double-occupied, like any real fleet) while the
        steady-state slot invariant still holds at every barrier.
        """
        return tuple(
            HostState(
                host_id=host_id,
                slots=self.spec.slots_per_host,
                vms=tuple(
                    name
                    for name in sorted(self.residents[host_id])
                    if name not in exclude
                ),
            )
            for host_id in self.host_ids
        )

    def _types(self, alive: dict[str, VMSpec]) -> dict[str, str]:
        return {
            name: vm_type(name, alive[name], self.detected)
            for name in sorted(alive)
        }

    def _host_of(self, name: str) -> str:
        for host_id in self.host_ids:
            if name in self.residents[host_id]:
                return host_id
        raise KeyError(f"no resident named {name!r}")

    # ------------------------------------------------------------------
    # the run
    # ------------------------------------------------------------------
    def run(self) -> FleetRun:
        # one simulation cell per host per epoch: hint the whole-run
        # total so the ops plane's /status ETA projects over the full
        # campaign instead of the epochs planned so far (observability
        # metadata only — execution never reads it)
        runner = self.runner if self.runner is not None else SweepRunner()
        runner.engine.expect_cells(self.spec.epochs * len(self.host_ids))
        epochs = self._epochs()
        cells, stage = next(epochs)
        while True:
            # one engine sweep per epoch: the bulk-synchronous barrier
            # is an engine phase boundary, and the stage label rides
            # the event stream into progress lines and event logs
            try:
                cells, stage = epochs.send(runner.run(cells, stage=stage))
            except StopIteration as done:
                return done.value

    def first_cells(self) -> list[Cell]:
        """The first epoch's host cells: the part of the run that can
        be planned before any cell has run (no simulation)."""
        return next(self._epochs())[0]

    def _epochs(
        self,
    ) -> Generator[tuple[list[Cell], str], list[HostEpochResult], FleetRun]:
        """The epoch loop: yields each epoch's (cells, stage) and is sent
        their results back."""
        spec = self.spec
        traffic = TrafficGenerator(
            self.story, capacity=spec.capacity, seed=self.seed
        )
        epochs: list[EpochMetrics] = []
        all_latencies: list[float] = []
        all_results: list[HostEpochResult] = []

        for epoch in range(spec.epochs):
            alive = self._alive()
            plan = traffic.epoch_plan(epoch, alive)
            departing = frozenset(plan.departures)

            migrations: list[Migration] = []
            if epoch > 0 and spec.migration_budget > 0:
                migrations = self.placer.rebalance(
                    self._view(exclude=departing),
                    self._types(alive),
                    spec.migration_budget,
                )
            # move migrants in the steady state right away — they
            # occupy a destination slot this epoch (they boot there at
            # the migration lag), and their source slot frees up
            migrants: dict[str, tuple[str, VMSpec]] = {}
            for move in migrations:
                vm_spec = self.residents[move.src].pop(move.vm)
                self.residents[move.dst][move.vm] = vm_spec
                migrants[move.vm] = (move.dst, vm_spec)

            assignment = self.placer.place(
                plan.arrivals, self._view(exclude=departing), self._types(alive)
            )

            # ---- per-host epoch timelines ------------------------------
            events: dict[str, list[ChurnEvent]] = {
                host_id: [] for host_id in self.host_ids
            }
            span = spec.epoch_ns // 2
            for name in sorted(migrants):
                dst, vm_spec = migrants[name]
                events[dst].append(
                    VmBoot(
                        spec.migration_lag_ns, name=name, mode=vm_spec.mode
                    )
                )
            for vm_spec in plan.arrivals:
                events[assignment[vm_spec.name]].append(
                    VmBoot(
                        event_offset_ns(self.seed, epoch, vm_spec.name, span),
                        name=vm_spec.name,
                        mode=vm_spec.mode,
                    )
                )
            for name in plan.departures:
                events[self._host_of(name)].append(
                    VmShutdown(
                        event_offset_ns(self.seed, epoch, name, span),
                        name=name,
                    )
                )
            for name, mode in plan.phase_changes:
                if name in migrants or name in departing:
                    continue  # in flight or leaving: let it be
                at_ns = min(
                    span + event_offset_ns(self.seed, epoch, name, span),
                    spec.epoch_ns - MS,
                )
                events[self._host_of(name)].append(
                    PhaseChange(at_ns, name=name, mode=mode)
                )

            # ---- shard the hosts over the pool -------------------------
            cells: list[Cell] = []
            cell_hosts: list[str] = []
            for host_id in self.host_ids:
                residents = tuple(
                    self.residents[host_id][name]
                    for name in sorted(self.residents[host_id])
                    if name not in migrants  # in flight: boots via event
                )
                host_events = sorted(
                    events[host_id],
                    key=lambda e: (e.at_ns, e.kind, getattr(e, "name", "")),
                )
                if not residents and not host_events:
                    continue
                cells.append(
                    Cell(
                        run_host_epoch,
                        dict(
                            host_id=host_id,
                            host=spec.host_spec,
                            residents=residents,
                            timeline=ChurnTimeline(tuple(host_events)),
                            warmup_ns=spec.warmup_ns,
                            measure_ns=spec.epoch_ns,
                            seed=derive_seed(
                                self.seed, self.story.name, epoch, host_id
                            ),
                            scheduler=spec.scheduler,
                            clients=spec.clients,
                            telemetry=spec.telemetry,
                        ),
                        label=(
                            f"fleet:{self.story.name}:{self.placer.name}"
                            f":e{epoch}:{host_id}"
                        ),
                    )
                )
                cell_hosts.append(host_id)

            stage = (
                f"{self.story.name}:{self.placer.name} "
                f"epoch {epoch + 1}/{spec.epochs}"
            )
            results = yield cells, stage
            by_host = dict(zip(cell_hosts, results))

            # ---- apply the epoch's churn to the steady state -----------
            for name in plan.departures:
                host_id = self._host_of(name)
                del self.residents[host_id][name]
                self.detected.pop(name, None)
            for vm_spec in plan.arrivals:
                self.residents[assignment[vm_spec.name]][vm_spec.name] = (
                    vm_spec
                )
            for name, mode in plan.phase_changes:
                if name in migrants or name in departing:
                    continue
                host_id = self._host_of(name)
                old = self.residents[host_id][name]
                self.residents[host_id][name] = replace(old, mode=mode)
                # the detected type described the old behaviour
                self.detected.pop(name, None)

            population = 0
            for host_id in self.host_ids:
                population += len(self.residents[host_id])
            for host_id in cell_hosts:
                result = by_host[host_id]
                all_latencies.extend(result.io_latencies_ns)
                all_results.append(result)
                for name in sorted(result.detected):
                    if name in self.residents[host_id]:
                        self.detected[name] = result.detected[name]
            epochs.append(
                fold_epoch(
                    epoch,
                    [by_host[host_id] for host_id in cell_hosts],
                    vms=population,
                    arrivals=len(plan.arrivals),
                    departures=len(plan.departures),
                    migrations=len(migrations),
                )
            )
            self._emit_epoch(epochs[-1])

        run = fold_run(
            self.story.name,
            self.placer.name,
            spec.hosts,
            epochs,
            all_latencies,
        )
        if spec.telemetry:
            run.telemetry_summary = aggregate_telemetry(all_results)
        return run

    # ------------------------------------------------------------------
    # fleet-level telemetry (control plane, virtual epoch clock)
    # ------------------------------------------------------------------
    def _emit_epoch(self, metrics: EpochMetrics) -> None:
        telemetry = self.telemetry
        if telemetry is None or not telemetry.enabled:
            return
        labels = dict(story=self.story.name, placer=self.placer.name)
        registry = telemetry.registry
        registry.counter("fleet_arrivals", **labels).inc(
            float(metrics.arrivals)
        )
        registry.counter("fleet_departures", **labels).inc(
            float(metrics.departures)
        )
        registry.counter("fleet_migrations", **labels).inc(
            float(metrics.migrations)
        )
        registry.counter("fleet_units", **labels).inc(float(metrics.units))
        registry.gauge("fleet_vms", **labels).set(float(metrics.vms))
        registry.gauge("fleet_active_hosts", **labels).set(
            float(metrics.active_hosts)
        )
        registry.gauge("fleet_util_spread", **labels).set(metrics.util_spread)
        registry.sample(
            (metrics.epoch + 1) * (self.spec.warmup_ns + self.spec.epoch_ns)
        )


def run_fleet_story(
    spec: FleetSpec,
    story: DiurnalStory,
    placer: Placer,
    seed: int = 0,
    runner: Optional[SweepRunner] = None,
    telemetry: Optional["Telemetry"] = None,
) -> FleetRun:
    """Convenience wrapper: build the simulation and run it."""
    return FleetSimulation(
        spec, story, placer, seed=seed, runner=runner, telemetry=telemetry
    ).run()


__all__ = ["FleetSimulation", "FleetSpec", "run_fleet_story"]
