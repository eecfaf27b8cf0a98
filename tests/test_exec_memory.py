"""What a sweep keeps once its cells return.

Two wastes of a long-lived sweep process are pinned here:

* every simulation leaves its whole ``Machine`` graph behind as cyclic
  garbage; :func:`repro.exec.queue.profiled_call` collects exactly the
  cell's garbage when the cell returns, so a serial sweep frees each
  simulation even with the automatic collector off — while a result
  that holds a live machine (``keep_built=True``) stays usable, and a
  cell that nests its own serial sweep folds to the same results;
* ``repro.ops`` keeps its HTTP server out of the package import, so a
  process that runs a sweep with a run directory, a fuzz campaign or an
  experiment family but never serves loads no ``http.server``, ``ssl``
  or ``email`` modules;
* ``numpy`` loads on a process's first random draw, and the package
  root resolves its re-exports on first access, so the analysis, exec
  and ops layers load neither numpy nor the simulator, and a run that
  draws nothing (CPU hogs only) never loads numpy.
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
import tempfile
from repro.exec import Cell, SweepRunner
with tempfile.TemporaryDirectory() as root:
    assert SweepRunner(jobs=1, run_root=root).run(
        [Cell(dict, dict(x=1))]
    ) == [dict(x=1)]
"""


def _loaded(code: str, cwd: Path = REPO_ROOT) -> set[str]:
    """Run ``code`` in a fresh interpreter; the words its last line prints."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    env.pop("REPRO_SERVE", None)
    out = subprocess.run(
        [sys.executable, "-c", code], check=True, capture_output=True,
        text=True, env=env, cwd=cwd, timeout=120,
    ).stdout
    return set(out.splitlines()[-1].split()) if out.strip() else set()


def _report(mods) -> str:
    """Code printing which of ``mods`` the process has loaded."""
    return (
        "import sys; "
        f"print(' '.join(m for m in {tuple(mods)!r} if m in sys.modules))"
    )


class TestServerStaysUnloaded:
    def test_sweep_with_run_dir_loads_no_http_plane(self):
        assert _loaded(SWEEP_WITH_RUN_DIR + _report(SERVER_MODULES)) == set()

    def test_importing_the_server_loads_it(self):
        code = "import repro.ops.server\n" + _report(SERVER_MODULES)
        assert _loaded(code) == set(SERVER_MODULES)

    def test_fuzz_run_without_serve_loads_no_http_plane(self, tmp_path):
        code = (
            "from repro.fuzz.cli import main\n"
            "assert main(['run', '--cases', '1', '--quiet']) == 0\n"
            + _report(SERVER_MODULES)
        )
        assert _loaded(code, cwd=tmp_path) == set()

    def test_experiment_run_without_serve_loads_no_http_plane(self, tmp_path):
        code = (
            "from repro.experiments.__main__ import main\n"
            "assert main(['fig3', '--fast', '--no-cache', '--quiet']) == 0\n"
            + _report(SERVER_MODULES)
        )
        assert _loaded(code, cwd=tmp_path) == set()


SIMULATOR_MODULES = ("numpy", "repro.hypervisor")

#: eight single-vCPU CPU hogs on two pCPUs at a 1 ms quantum: no
#: workload in it draws a random number
HOGS_ONLY_RUN = """
from repro.guest.phases import Compute
from repro.guest.thread import GuestThread
from repro.hypervisor.machine import Machine
from repro.sim.units import MS

def hog(thread):
    while True:
        yield Compute(5_000_000)

machine = Machine(seed=3, default_quantum_ns=1 * MS)
pool = machine.create_pool("p", machine.topology.pcpus[:2], 1 * MS)
for i in range(8):
    vm = machine.new_vm(f"cpu{i}", 1, weight=256, pool=pool)
    vm.guest.add_thread(GuestThread(f"t{i}", hog))
machine.run(50 * MS)
assert machine.sim.events_fired > 0
"""

IO_RUN = """
from repro import Machine, make_app
from repro.sim.units import MS

machine = Machine(seed=3)
vm = machine.new_vm("web", 1)
app = make_app("specweb2009", machine.spec).install(machine, vm)
machine.run(50 * MS)
app.begin_measurement()
machine.run(100 * MS)
assert app.result().value > 0
"""


class TestImportBoundary:
    def test_tool_layers_load_neither_numpy_nor_the_simulator(self):
        code = "import repro.analysis, repro.exec, repro.ops\n" + _report(
            SIMULATOR_MODULES
        )
        assert _loaded(code) == set()

    def test_hogs_only_run_loads_no_numpy(self):
        assert _loaded(HOGS_ONLY_RUN + _report(["numpy"])) == set()

    def test_io_run_loads_numpy(self):
        assert _loaded(IO_RUN + _report(["numpy"])) == {"numpy"}

    def test_experiment_list_loads_neither_numpy_nor_the_simulator(self):
        code = (
            "from repro.experiments.__main__ import main\n"
            "assert main(['list']) == 0\n" + _report(SIMULATOR_MODULES)
        )
        assert _loaded(code) == set()

    def test_experiments_package_resolves_exports_on_access(self):
        code = (
            "import sys, repro.experiments as ex\n"
            "assert ex.__all__ == ['AppPlacement', 'Scenario', 'SCENARIOS',"
            " 'FIG3_POPULATION', 'ScenarioRun', 'run_scenario']\n"
            "assert set(ex.__all__) <= set(dir(ex))\n"
            "assert 'repro.hypervisor' not in sys.modules\n"
            "from repro.experiments.runner import run_scenario\n"
            "from repro.experiments.scenarios import SCENARIOS\n"
            "assert ex.run_scenario is run_scenario\n"
            "assert ex.SCENARIOS is SCENARIOS\n"
            "try:\n"
            "    ex.NoSuchName\n"
            "except AttributeError:\n"
            "    pass\n"
            "else:\n"
            "    raise AssertionError('repro.experiments.NoSuchName resolved')\n"
        )
        assert _loaded(code) == set()

    def test_package_root_resolves_exports_on_access(self):
        code = (
            "import sys, repro\n"
            "assert set(repro.__all__) <= set(dir(repro))\n"
            "assert 'repro.hypervisor' not in sys.modules\n"
            "try:\n"
            "    repro.NoSuchName\n"
            "except AttributeError:\n"
            "    pass\n"
            "else:\n"
            "    raise AssertionError('repro.NoSuchName resolved')\n"
            "from repro.hypervisor.machine import Machine\n"
            "assert repro.Machine is Machine\n"
        )
        assert _loaded(code) == set()
