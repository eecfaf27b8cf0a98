"""The four benchmark workloads, each driven through public entry points.

A workload turns the benchmark seed into program inputs, builds what a
pass needs (:meth:`setup`, timed as set-up), runs one pass (:meth:`run`,
the timed part) and reduces the pass to an :class:`Outcome`: one digest
per operation, the count of operations that failed on their own terms,
and the counts only the workload can read.

Operations are scenario cells (``paper_s4``), one simulated host
(``small_quantum``), engine cells (``engine_sweep``) and fuzz cases
(``fuzz_corpus``).  Digests cover simulated results only, never host
timings, so a change that only speeds the simulator up keeps them.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import random
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.baselines import AqlPolicy, XenCredit
from repro.exec import Cell, SweepRunner
from repro.experiments.runner import run_scenario
from repro.experiments.scenarios import SCENARIOS
from repro.fuzz.corpus import run_campaign
from repro.guest.phases import Compute
from repro.guest.thread import GuestThread
from repro.hypervisor.machine import Machine
from repro.sim.units import MS, SEC

#: where passes create their fresh run directories, relative to the
#: checkout root (listed in .gitignore, removed after every pass)
SCRATCH_DIR = ".perfbench"


def digest(value: Any) -> str:
    """Stable short hash of a JSON-able value (floats keep every digit)."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass
class Outcome:
    """What one pass produced, reduced to checkable facts."""

    #: one digest per operation, in operation order
    ops: list[str]
    #: digest of pass-wide results that no single operation owns
    summary: str
    #: operations that raised, failed a reference check or violated an
    #: invariant (pin mismatches are counted by the caller)
    failed: int = 0
    #: cells finished, on the workload that simulates nothing (the
    #: others count simulated events with :class:`layers.EventCounter`)
    cells: int = 0
    #: churn events the fuzz cases' timelines applied (public state)
    churn_events: int = 0


class Workload:
    """Base: one pass is ``run(setup())``; ``close`` releases set-up."""

    name = ""
    #: operations per pass (the failure denominator)
    ops_per_pass = 1
    #: whether ``events_per_ref_cpu_s`` counts simulated events (else cells)
    simulates = True

    def __init__(self, seed: int, root: Path, tiny: bool = False) -> None:
        self.seed = seed
        #: the checkout root, under which run directories are created
        self.root = root
        #: the workload sizes of the self-check instead of full ones
        self.tiny = tiny
        #: engine sinks for the next set-up
        self.sinks: tuple = ()
        #: run cells in this process even where users would fork workers
        self.in_process = False
        self._dirs = itertools.count()

    def setup(self) -> Any:
        raise NotImplementedError

    def run(self, state: Any) -> Outcome:
        raise NotImplementedError

    def close(self, state: Any) -> None:
        pass

    @property
    def pin_key(self) -> str:
        """The key of this workload's pinned digests in ``pins.json``."""
        return str(self.seed)

    def _fresh_run_root(self) -> Path:
        path = (self.root / SCRATCH_DIR /
                f"{self.name}-{os.getpid()}-{next(self._dirs)}")
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path


# ---------------------------------------------------------------------------
# paper_s4: Table 4 scenario S4 under native Xen and AQL_Sched
# ---------------------------------------------------------------------------
class PaperS4(Workload):
    """S4 at a quarter of fig6's ``--fast`` split (250 ms warm-up, 500 ms
    measured), one cell per policy, serial, no cache.

    The short split keeps a pass near 4 s, so a run holds several passes
    and its median is steady; the full split takes ~20 s, one pass a run.
    """

    name = "paper_s4"
    ops_per_pass = 2

    def setup(self) -> Any:
        warmup, measure = (
            (50 * MS, 100 * MS) if self.tiny else (250 * MS, 500 * MS)
        )
        cells = [
            Cell(
                run_scenario,
                dict(scenario=SCENARIOS["S4"], policy=policy,
                     warmup_ns=warmup, measure_ns=measure, seed=self.seed),
                label=f"S4:{policy.name}",
            )
            for policy in (XenCredit(), AqlPolicy())
        ]
        return SweepRunner(jobs=1, sinks=self.sinks), cells

    def run(self, state: Any) -> Outcome:
        runner, cells = state
        runs = runner.run(cells, stage=self.name)
        ops, failed = [], 0
        for run in runs:
            values = [result.value for result in run.results.values()]
            placed = sum(pool[3] for pool in run.pool_layout)
            if placed != 16 or not all(0 < v < math.inf for v in values):
                failed += 1
            ops.append(digest({
                "policy": run.policy,
                "results": {
                    name: [result.metric, result.value]
                    for name, result in run.results.items()
                },
                "pools": [list(pool) for pool in run.pool_layout],
                "types": {
                    str(vid): kind.value
                    for vid, kind in run.detected_types.items()
                },
            }))
        return Outcome(ops=ops, summary=digest(ops), failed=failed)


# ---------------------------------------------------------------------------
# small_quantum: CPU hogs at a 1 ms quantum (the scheduling-bound regime)
# ---------------------------------------------------------------------------
def _hog(thread: GuestThread):
    while True:
        yield Compute(5_000_000)


class SmallQuantum(Workload):
    """8 single-vCPU hogs, no cache profile, on 2 pCPUs at a 1 ms quantum.

    The seed draws the machine seed and each VM's Credit weight; every
    hog outlasts its quantum, so the event count barely moves with it.
    """

    name = "small_quantum"

    def setup(self) -> Any:
        rng = random.Random(self.seed)
        machine = Machine(seed=self.seed, default_quantum_ns=1 * MS)
        pool = machine.create_pool("p", machine.topology.pcpus[:2], 1 * MS)
        for i in range(8):
            weight = rng.choice((128, 256, 512))
            vm = machine.new_vm(f"cpu{i}", 1, weight=weight, pool=pool)
            vm.guest.add_thread(GuestThread(f"t{i}", _hog))
        return machine

    def run(self, machine: Machine) -> Outcome:
        machine.run((500 * MS) if self.tiny else (40 * SEC))
        machine.sync()
        vcpus = [vcpu for vm in machine.vms for vcpu in vm.vcpus]
        retired = [vcpu.pmu.instructions for vcpu in vcpus]
        events = machine.sim.events_fired
        failed = 0 if events > 0 and all(r > 0 for r in retired) else 1
        op = digest({"events": events, "instructions": retired})
        return Outcome(ops=[op], summary=op, failed=failed)


# ---------------------------------------------------------------------------
# engine_sweep: trivial cells, so the exec layer does all the work
# ---------------------------------------------------------------------------
def sweep_cell(index: int, salt: int) -> str:
    """A trivial pure cell: a hash of its arguments."""
    return hashlib.sha256(f"{index}:{salt}".encode()).hexdigest()[:12]


class EngineSweep(Workload):
    """Trivial cells through a fresh run directory, ``jobs`` = CPU count.

    A pass's CPU time swings by ~20 % with the file-system work around it
    (one open, replace and fsync per cell), whatever the pass's size, so
    passes of 500 cells (~1 s) give a run ~20 passes to take a median of.
    """

    name = "engine_sweep"
    simulates = False

    @property
    def ops_per_pass(self) -> int:
        return 40 if self.tiny else 500

    def setup(self) -> Any:
        rng = random.Random(self.seed)
        cells = [
            Cell(sweep_cell, dict(index=i, salt=rng.getrandbits(32)),
                 label=f"cell{i}")
            for i in range(self.ops_per_pass)
        ]
        run_root = self._fresh_run_root()
        jobs = 1 if self.in_process else (os.cpu_count() or 1)
        runner = SweepRunner(jobs=jobs, run_root=run_root, sinks=self.sinks)
        runner.salt  # hash the sources now: set-up, not pass, work
        return runner, cells, run_root

    def run(self, state: Any) -> Outcome:
        runner, cells, _ = state
        results = runner.run(cells, stage=self.name)
        failed = sum(
            result != sweep_cell(**cell.kwargs)
            for cell, result in zip(cells, results)
        )
        return Outcome(ops=[], summary=digest(results), failed=failed,
                       cells=len(results))

    def close(self, state: Any) -> None:
        runner, _, run_root = state
        runner.engine.close()
        shutil.rmtree(run_root, ignore_errors=True)


# ---------------------------------------------------------------------------
# fuzz_corpus: an 8-case campaign, churn and invariant checks included
# ---------------------------------------------------------------------------
class FuzzCorpus(Workload):
    """The fixed 8-case campaign (campaign seed 0) through a run directory.

    The corpus does not follow the benchmark seed: per-case cost varies
    thirtyfold, so corpora drawn per seed would spread the cost of a pass
    by 20-50 % across seeds and hide any regression.  Eight cases (~3.5 s)
    rather than 25 (~13 s) let a run hold several passes.
    """

    name = "fuzz_corpus"

    @property
    def ops_per_pass(self) -> int:
        return 1 if self.tiny else 8

    @property
    def pin_key(self) -> str:
        return "any"

    def setup(self) -> Any:
        run_root = self._fresh_run_root()
        runner = SweepRunner(jobs=1, run_root=run_root, sinks=self.sinks)
        runner.salt
        return runner, run_root

    def run(self, state: Any) -> Outcome:
        runner, _ = state
        campaign = run_campaign(
            self.ops_per_pass, seed=0, shrink_failures=False, runner=runner
        )
        ops = [
            digest({
                "seed": case.seed,
                "policy": case.scenario.policy,
                "timeline": len(case.scenario.timeline.events),
                "violations": [[v.invariant, str(v)] for v in case.violations],
                "new_coverage": case.new_coverage,
            })
            for case in campaign.cases
        ]
        churn = sum(len(case.scenario.timeline.events)
                    for case in campaign.cases)
        return Outcome(
            ops=ops,
            summary=digest(sorted(campaign.coverage.counts.items())),
            failed=len(campaign.failures),
            churn_events=churn,
        )

    def close(self, state: Any) -> None:
        runner, run_root = state
        runner.engine.close()
        shutil.rmtree(run_root, ignore_errors=True)


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (PaperS4, SmallQuantum, EngineSweep, FuzzCorpus)
}


__all__ = ["Outcome", "WORKLOADS", "Workload", "digest", "sweep_cell"]
