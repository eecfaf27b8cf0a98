"""One live completion and one live quantum expiry per vCPU.

The machine builds one completion callback and one quantum-expiry
callback per vCPU and records on the vCPU which ``(thread, phase)`` the
completion was armed for (DESIGN.md §9, "One callback per vCPU").  The
callbacks' stale checks read that record back, so they are only sound
if a vCPU never has two live events of one kind: every
``compute-done`` and ``quantum`` event that fires must be the one its
vCPU holds in ``completion_event`` / ``quantum_event``.

The ``checked`` fixture wraps :class:`repro.sim.engine.Event` the way
``tests/test_fire_order_pins.py`` records fire order, and checks each
such event as it fires (cancelled events never fire, so every checked
event was live).  The runs cover the paper's mixed scenario under Xen
and AQL, a churn timeline that takes a pCPU offline and back, shuts a
VM down and changes a workload's phase, and one blocking-semaphore
cell of the sync-primitives ablation.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.baselines import AqlPolicy, XenCredit
from repro.dynamics.events import (
    ChurnTimeline,
    PcpuOffline,
    PcpuOnline,
    PhaseChange,
    VmShutdown,
)
from repro.experiments.runner import run_scenario
from repro.experiments.scenarios import SCENARIOS
from repro.experiments.sync_primitives import _run_cell
from repro.fuzz import FuzzScenario, run_scenario_fuzz, scenario_problems
from repro.hypervisor.machine import Machine
from repro.sim import engine
from repro.sim.units import MS

#: event label -> the VCpu attribute that must hold the live event
SLOTS = {"compute-done": "completion_event", "quantum": "quantum_event"}


class LiveEventCheck:
    """Fired ``compute-done``/``quantum`` events checked against their vCPU."""

    def __init__(self) -> None:
        self.machines: list[Machine] = []
        self.fired: Counter[str] = Counter()
        #: (time, label, number of vCPUs holding the event) per mismatch
        self.mismatches: list[tuple[int, str, int]] = []

    def holders(self, event: engine.Event, slot: str) -> int:
        return sum(
            getattr(vcpu, slot) is event
            for machine in self.machines
            for vm in (*machine.vms, *machine.retired_vms)
            for vcpu in vm.vcpus
        )

    def assert_held(self) -> None:
        assert self.fired["compute-done"] > 0 and self.fired["quantum"] > 0
        assert self.mismatches == []


@pytest.fixture
def checked(monkeypatch) -> LiveEventCheck:
    check = LiveEventCheck()
    init = Machine.__init__

    def tracking_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        check.machines.append(self)

    class CheckingEvent(engine.Event):
        __slots__ = ()

        def __init__(self, time, seq, fn, label):
            slot = SLOTS.get(label)
            if slot is None:
                super().__init__(time, seq, fn, label)
                return
            event = self

            def fire():
                check.fired[label] += 1
                holders = check.holders(event, slot)
                if holders != 1:
                    check.mismatches.append((time, label, holders))
                fn()

            super().__init__(time, seq, fire, label)

    monkeypatch.setattr(Machine, "__init__", tracking_init)
    monkeypatch.setattr(engine, "Event", CheckingEvent)
    return check


@pytest.mark.parametrize("policy", [XenCredit, AqlPolicy], ids=["xen", "aql"])
def test_paper_s4(checked, policy):
    # long enough for AQL to install its 1 ms pools
    run_scenario(
        SCENARIOS["S4"], policy(), warmup_ns=250 * MS, measure_ns=500 * MS,
        seed=3,
    )
    checked.assert_held()


def test_churn_offline_shutdown_phase_change(checked):
    scenario = FuzzScenario(
        seed=11,
        pcpus=3,
        policy="aql",
        base=(("web", "io"), ("lock", "spin"), ("batch", "llco")),
        timeline=ChurnTimeline((
            PcpuOffline(40 * MS, cpu_id=2),
            PhaseChange(80 * MS, name="batch", mode="spin"),
            VmShutdown(120 * MS, name="web"),
            PcpuOnline(160 * MS, cpu_id=2),
        )),
        warmup_ns=100 * MS,
        tail_ns=150 * MS,
    )
    assert scenario_problems(scenario) == []
    outcome = run_scenario_fuzz(scenario)
    assert [a.event.kind for a in outcome.engine.applied] == [
        "pcpu_offline", "phase_change", "vm_shutdown", "pcpu_online",
    ]
    checked.assert_held()


def test_sync_primitives_semaphore_cell(checked):
    _run_cell("semaphore", 1, warmup_ns=100 * MS, measure_ns=200 * MS, seed=3)
    checked.assert_held()
