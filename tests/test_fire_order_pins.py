"""Fire-order pins: every fired event's ``(time, label)``, in order.

The machine leaves out completion events that its quantum expiry would
cancel before they fire (DESIGN.md §9, "Lean segment path").  That is
only sound if the events that *do* fire are exactly those of the
straightforward model that queued every completion.  The first part
pins the whole fire order of nine paper scenarios/policies as a count
plus a digest, captured on the model that queued every completion; the
second part drives the completion-arming rule directly: when a
completion is queued, when it is not, how equal times resolve, and the
re-arm at a tick.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.baselines import AqlPolicy, XenCredit
from repro.baselines.vslicer import VSlicer
from repro.experiments.runner import run_scenario
from repro.experiments.scenarios import SCENARIOS
from repro.guest.phases import Compute
from repro.guest.thread import GuestThread
from repro.hardware.cache import MemoryProfile
from repro.hypervisor.machine import Machine
from repro.sim import engine
from repro.sim.units import MS

POLICIES = {"xen": XenCredit, "aql": AqlPolicy, "vslicer": VSlicer}

#: (scenario, policy) -> (events fired, digest of "time:label" lines)
PINS = {
    ("S1", "xen"): (7543, "d396ab823691c769"),
    ("S1", "aql"): (7555, "194c55af235e611f"),
    ("S1", "vslicer"): (7543, "d396ab823691c769"),
    ("S4", "xen"): (13433, "aa9579b284ddaf64"),
    ("S4", "aql"): (13445, "7c584446d7978279"),
    ("S4", "vslicer"): (13165, "eb0d66ca4ae1125e"),
    ("S5", "xen"): (13510, "8d2f36e43bb88c33"),
    ("S5", "aql"): (13522, "3f6324521d84ad8c"),
    ("S5", "vslicer"): (13277, "01e8bf53408d3907"),
}


@pytest.fixture
def fired(monkeypatch) -> list[tuple[int, str]]:
    """Every event the simulator fires, as ``(time, label)`` in order."""
    log: list[tuple[int, str]] = []

    class RecordingEvent(engine.Event):
        __slots__ = ()

        def __init__(self, time, seq, fn, label):
            def fire():
                log.append((time, label))
                fn()

            super().__init__(time, seq, fire, label)

    monkeypatch.setattr(engine, "Event", RecordingEvent)
    return log


def digest(log: list[tuple[int, str]]) -> str:
    text = "\n".join(f"{time}:{label}" for time, label in log)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.mark.parametrize("scenario, policy", sorted(PINS))
def test_fire_order_matches_pin(fired, scenario, policy):
    run_scenario(
        SCENARIOS[scenario],
        POLICIES[policy](),
        warmup_ns=100 * MS,
        measure_ns=200 * MS,
        seed=3,
    )
    assert (len(fired), digest(fired)) == PINS[(scenario, policy)]


# ----------------------------------------------------------------------
# directed cases for the completion-arming rule
# ----------------------------------------------------------------------
#: 0.5 ns per instruction and no LLC traffic: the estimate is exact
FLAT = MemoryProfile(base_cpi_ns=0.5)


def one_vcpu(instructions: float, quantum_ns: int):
    """A started one-pCPU machine running a single compute phase."""
    machine = Machine(seed=0, default_quantum_ns=quantum_ns)
    pool = machine.create_pool("p", machine.topology.pcpus[:1], quantum_ns)
    vm = machine.new_vm("vm", 1, pool=pool)

    def body(thread):
        yield Compute(instructions, FLAT)

    vm.guest.add_thread(GuestThread("t", body))
    machine.start()
    vcpu = vm.vcpus[0]
    assert vcpu.quantum_event is not None
    return machine, vcpu


def test_completion_after_the_expiry_is_not_queued():
    _, vcpu = one_vcpu(3_000_000, 1 * MS)  # 1.5 ms of work
    assert vcpu.completion_event is None
    assert not vcpu.quantum_event.cancelled


def test_completion_before_the_expiry_is_queued():
    _, vcpu = one_vcpu(1_000_000, 1 * MS)  # 0.5 ms of work
    completion = vcpu.completion_event
    assert completion is not None and not completion.cancelled
    assert completion.time == 500_000 < vcpu.quantum_event.time


def test_equal_times_resolve_to_the_quantum_expiry(fired):
    machine, vcpu = one_vcpu(2_000_000, 1 * MS)  # exactly one quantum
    assert vcpu.quantum_event.time == 1 * MS
    assert vcpu.completion_event is None
    machine.run(1 * MS)
    # the expiry fires alone at 1 ms and re-dispatches the vCPU, whose
    # phase then completes one minimum completion delay later
    assert [label for time, label in fired if time == 1 * MS] == ["quantum"]
    machine.run(1 * MS)
    assert (1 * MS + 200, "compute-done") in fired


def test_tick_refresh_rearms(fired):
    # 25 ms of work in a 30 ms quantum: queued, re-armed at the 10 ms tick
    machine, vcpu = one_vcpu(50_000_000, 30 * MS)
    first = vcpu.completion_event
    assert first is not None and first.time == 25 * MS
    machine.run(10 * MS + 1)
    second = vcpu.completion_event
    assert first.cancelled
    assert second is not None and second is not first
    assert second.time == 25 * MS and not second.cancelled
    machine.run(20 * MS)
    assert (25 * MS, "compute-done") in fired


def test_tick_refresh_keeps_skipping_past_the_expiry(fired):
    # 35 ms of work in a 30 ms quantum: never queued within this quantum
    machine, vcpu = one_vcpu(70_000_000, 30 * MS)
    assert vcpu.completion_event is None
    machine.run(10 * MS + 1)
    assert (10 * MS, "tick") in fired
    assert vcpu.completion_event is None
    machine.run(30 * MS)
    assert [time for time, label in fired if label == "compute-done"] == [35 * MS]
