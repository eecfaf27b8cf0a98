"""What a sweep keeps once its cells return.

Two wastes of a long-lived sweep process are pinned here:

* every simulation leaves its whole ``Machine`` graph behind as cyclic
  garbage; :func:`repro.exec.queue.profiled_call` collects exactly the
  cell's garbage when the cell returns, so a serial sweep frees each
  simulation even with the automatic collector off — while a result
  that holds a live machine (``keep_built=True``) stays usable, and a
  cell that nests its own serial sweep folds to the same results;
* ``repro.ops`` keeps its HTTP server out of the package import, so a
  process that runs a sweep with a run directory but never serves
  loads no ``http.server``, ``ssl`` or ``email`` modules.
"""

import gc
import os
import subprocess
import sys
from pathlib import Path

from repro.baselines import XenCredit
from repro.exec import Cell, SweepRunner
from repro.experiments.runner import run_scenario
from repro.experiments.scenarios import SCENARIOS
from repro.hypervisor.machine import Machine
from repro.sim.units import MS

REPO_ROOT = Path(__file__).resolve().parent.parent

WARMUP_NS = 100 * MS
MEASURE_NS = 200 * MS


def s1_cells(seeds=range(3), keep_built=False):
    return [
        Cell(
            run_scenario,
            dict(
                scenario=SCENARIOS["S1"], policy=XenCredit(),
                warmup_ns=WARMUP_NS, measure_ns=MEASURE_NS, seed=seed,
                keep_built=keep_built,
            ),
            label=f"S1:xen:{seed}",
        )
        for seed in seeds
    ]


def live_machines() -> int:
    return sum(1 for obj in gc.get_objects() if type(obj) is Machine)


def nested_sweep(seeds):
    """A cell whose body is itself a serial sweep (a fleet-epoch shape)."""
    return SweepRunner(jobs=1).run(s1_cells(seeds))


def fingerprint(run):
    return (run.scenario, run.policy, run.by_placement, run.results)


class TestCellGarbage:
    def test_serial_sweep_frees_every_machine(self):
        was_enabled = gc.isenabled()
        gc.collect()  # earlier tests' garbage is not this sweep's
        before = live_machines()
        gc.disable()
        try:
            runs = SweepRunner(jobs=1).run(s1_cells())
            after = live_machines()
        finally:
            if was_enabled:
                gc.enable()
        assert len(runs) == 3
        assert all(run.built is None for run in runs)
        assert after == before
        assert gc.get_freeze_count() == 0

    def test_keep_built_result_keeps_a_live_machine(self):
        [run] = SweepRunner(jobs=1).run(s1_cells(seeds=[0], keep_built=True))
        machine = run.built.machine
        assert isinstance(machine, Machine)
        now = machine.sim.now
        machine.run(10 * MS)  # still a working simulator, not a husk
        assert machine.sim.now == now + 10 * MS
        assert gc.get_freeze_count() == 0

    def test_nested_serial_sweep_folds_identically(self):
        flat = SweepRunner(jobs=1).run(s1_cells(seeds=[0, 1]))
        [nested] = SweepRunner(jobs=1).run(
            [Cell(nested_sweep, {"seeds": [0, 1]}, label="nested")]
        )
        assert [fingerprint(r) for r in nested] == [
            fingerprint(r) for r in flat
        ]
        assert gc.get_freeze_count() == 0


SERVER_MODULES = ("http.server", "ssl", "email")

SWEEP_WITH_RUN_DIR = """
import sys, tempfile
from repro.exec import Cell, SweepRunner
with tempfile.TemporaryDirectory() as root:
    assert SweepRunner(jobs=1, run_root=root).run(
        [Cell(dict, dict(x=1))]
    ) == [dict(x=1)]
print(" ".join(m for m in {mods!r} if m in sys.modules))
"""


def _loaded(code: str) -> set[str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    env.pop("REPRO_SERVE", None)
    out = subprocess.run(
        [sys.executable, "-c", code], check=True, capture_output=True,
        text=True, env=env, cwd=REPO_ROOT, timeout=60,
    ).stdout
    return set(out.split())


class TestServerStaysUnloaded:
    def test_sweep_with_run_dir_loads_no_http_plane(self):
        code = SWEEP_WITH_RUN_DIR.format(mods=SERVER_MODULES)
        assert _loaded(code) == set()

    def test_importing_the_server_loads_it(self):
        code = (
            "import sys, repro.ops.server; "
            f"print(' '.join(m for m in {SERVER_MODULES!r} "
            "if m in sys.modules))"
        )
        assert _loaded(code) == set(SERVER_MODULES)
