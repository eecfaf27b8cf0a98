"""Reproduction of *Application-specific quantum for multi-core platform
scheduler* (Teabe, Tchana, Hagimont — EuroSys 2016).

The paper's AQL_Sched prototype was built inside Xen; this library
reproduces the whole system on a discrete-event simulator:

* :mod:`repro.sim` — the event engine;
* :mod:`repro.hardware` — sockets/cores, shared-LLC contention model,
  PMU counters, PLE spin detection;
* :mod:`repro.hypervisor` — VMs/vCPUs, event channels, CPU pools and
  the Credit scheduler (weights, caps, BOOST, 30 ms quantum);
* :mod:`repro.guest` — guest threads, ticket spin locks, spin barriers;
* :mod:`repro.workloads` — synthetic SPEC CPU2006 / PARSEC /
  SPECweb2009 / SPECmail2009 analogues;
* :mod:`repro.core` — the contribution: vTRS cursors (eqs. 1-5),
  quantum calibration, two-level clustering, the AQL manager;
* :mod:`repro.baselines` — vTurbo, vSlicer, Microsliced, native Xen;
* :mod:`repro.experiments` — one module per paper table/figure.

Quickstart::

    from repro import Machine, AqlScheduler, make_app
    from repro.sim.units import MS, SEC

    machine = Machine()                      # an i7-3770-like box
    pool = machine.create_pool("apps", machine.topology.pcpus[:2], 30 * MS)
    vm = machine.new_vm("web", vcpus=1, pool=pool)
    app = make_app("specweb2009", machine.spec).install(machine, vm)
    AqlScheduler(machine, pcpus=pool.pcpus).attach()
    machine.run(2 * SEC)
    app.begin_measurement()
    machine.run(4 * SEC)
    print(app.result())
"""

from __future__ import annotations

import importlib
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from repro.core.aql import AqlScheduler
    from repro.core.calibration import PAPER_BEST_QUANTA, run_calibration
    from repro.core.types import VCpuType
    from repro.core.vtrs import VTRS
    from repro.hardware.specs import i7_3770, xeon_e5_4603
    from repro.hypervisor.machine import Machine
    from repro.workloads.suites import APP_CATALOG, make_app

__version__ = "1.0.0"

#: where each re-export lives; resolved on first attribute access
#: (PEP 562), so ``import repro.exec`` or ``repro.analysis`` does not
#: load the simulator
_EXPORTS = {
    "Machine": "repro.hypervisor.machine",
    "AqlScheduler": "repro.core.aql",
    "VTRS": "repro.core.vtrs",
    "VCpuType": "repro.core.types",
    "PAPER_BEST_QUANTA": "repro.core.calibration",
    "run_calibration": "repro.core.calibration",
    "APP_CATALOG": "repro.workloads.suites",
    "make_app": "repro.workloads.suites",
    "i7_3770": "repro.hardware.specs",
    "xeon_e5_4603": "repro.hardware.specs",
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str) -> Any:
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
