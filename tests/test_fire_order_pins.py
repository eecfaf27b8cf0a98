"""Fire-order pins: every fired event's ``(time, label)``, in order.

The machine leaves out completion events that its quantum expiry would
cancel before they fire (DESIGN.md §9, "Lean segment path").  That is
only sound if the events that *do* fire are exactly those of the
straightforward model that queued every completion.  The first part
pins the whole fire order of nine paper scenarios/policies as a count
plus a digest, captured on the model that queued every completion; the
second part drives the completion-arming rule directly: when a
completion is queued, when it is not, how equal times resolve, and the
re-arm at a tick.  The third part checks the cheap lower bound the
rule tries first (the LLC-free time ``remaining * base_cpi_ns``): it
may only skip a completion that the full estimate would skip too, and
for a profile without LLC references it is the estimate exactly.
"""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import AqlPolicy, XenCredit
from repro.baselines.vslicer import VSlicer
from repro.experiments.runner import run_scenario
from repro.experiments.scenarios import SCENARIOS
from repro.guest.phases import Compute
from repro.guest.thread import GuestThread
from repro.hardware.cache import MemoryProfile, SharedCache, estimate_duration_ns
from repro.hardware.specs import MB
from repro.hypervisor.machine import _MIN_COMPLETION_DELAY_NS, Machine
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


def one_vcpu(
    instructions: float, quantum_ns: int, profile: MemoryProfile = FLAT
):
    """A started one-pCPU machine running a single compute phase."""
    machine = Machine(seed=0, default_quantum_ns=quantum_ns)
    pool = machine.create_pool("p", machine.topology.pcpus[:1], quantum_ns)
    vm = machine.new_vm("vm", 1, pool=pool)

    def body(thread):
        yield Compute(instructions, profile)

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


# ----------------------------------------------------------------------
# the lower bound tried before the estimate
# ----------------------------------------------------------------------
HIT_NS, MISS_NS = 12.0, 80.0  # the i7-3770 LLC the machine defaults to


def bound_skips(now, remaining, profile, expiry_time) -> bool:
    """The cheap first check of ``Machine._arm_completion``."""
    return now + int(remaining * profile.base_cpi_ns) >= expiry_time


def full_delay(remaining, profile, cache, actor) -> int:
    """The full rule's delay: the estimate, floored at the minimum."""
    estimate = estimate_duration_ns(
        cache, actor, profile, remaining, HIT_NS, MISS_NS
    )
    return max(int(estimate), _MIN_COMPLETION_DELAY_NS)


def armed_completion(profile, resident, remaining, now, expiry_time):
    """What ``Machine._arm_completion`` queues for one running phase.

    The vCPU is placed on a pCPU by hand with a live expiry at
    ``expiry_time``; ``resident`` is the thread's share of its working
    set already in the LLC.  Returns the completion event (or None) and
    the socket's cache.
    """
    machine = Machine(seed=0)
    vm = machine.new_vm("vm", 1)
    vcpu = vm.vcpus[0]
    thread = vm.guest.add_thread(GuestThread("t", lambda t: iter(()), profile))
    phase = thread.phase = Compute(remaining)
    vcpu.pcpu = machine.topology.pcpus[0]
    cache = vcpu.pcpu.socket.llc
    cache.insert(thread, resident * min(profile.wss_bytes, 8 * MB), profile.wss_bytes)
    machine.sim.now = now
    vcpu.quantum_event = machine.sim.at(expiry_time, engine.noop, "quantum")
    machine._arm_completion(vcpu, thread, phase)
    return vcpu.completion_event, cache, thread


profiles = st.builds(
    MemoryProfile,
    wss_bytes=st.sampled_from((0, 64 * 1024, 2 * MB, 8 * MB, 64 * MB)),
    llc_ref_rate=st.sampled_from((0.0,)) | st.floats(0.0, 0.2),
    base_cpi_ns=st.floats(0.01, 3.0),
)


@settings(max_examples=300, deadline=None)
@given(
    profile=profiles,
    resident=st.floats(0.0, 1.0),
    remaining=st.sampled_from((0.0, 0.5, 1.0)) | st.floats(0.0, 1e9),
    now=st.integers(0, 10**12),
    # around the bound itself, or anywhere in a quantum
    offset=st.integers(-3, 3) | st.integers(-(10**8), 10**8),
)
def test_lower_bound_skips_only_what_the_estimate_skips(
    profile, resident, remaining, now, offset
):
    expiry_time = max(now, now + int(remaining * profile.base_cpi_ns) + offset)
    completion, cache, thread = armed_completion(
        profile, resident, remaining, now, expiry_time
    )
    delay = full_delay(remaining, profile, cache, thread)
    estimate_skips = now + delay >= expiry_time
    if bound_skips(now, remaining, profile, expiry_time):
        assert estimate_skips
    # and the machine queues exactly what the full rule alone would
    if estimate_skips:
        assert completion is None
    else:
        assert completion is not None and completion.time == now + delay


@settings(max_examples=300, deadline=None)
@given(
    wss=st.sampled_from((0, 64 * 1024, 2 * MB, 8 * MB, 64 * MB))
    | st.integers(1, 64 * MB),
    resident=st.floats(0.0, 1.0),
    remaining=st.sampled_from((0.0, 0.5, 1.0)) | st.floats(0.0, 1e12),
    base_cpi_ns=st.floats(0.01, 3.0),
    exponent=st.sampled_from((0.5, 0.3, 1.0)) | st.floats(0.01, 1.0),
    hit_ns=st.sampled_from((HIT_NS,)) | st.floats(0.0, 1e3),
    miss_ns=st.sampled_from((MISS_NS,)) | st.floats(0.0, 1e4),
)
def test_bound_is_the_estimate_without_llc_references(
    wss, resident, remaining, base_cpi_ns, exponent, hit_ns, miss_ns
):
    """``_arm_completion`` takes the bound as the delay when
    ``llc_ref_rate == 0``: the estimate's LLC term is ``0.0 * finite``,
    whatever the working set, its residency and the hit curve."""
    profile = MemoryProfile(wss_bytes=wss, base_cpi_ns=base_cpi_ns)
    cache = SharedCache(8 * MB, reuse_exponent=exponent)
    cache.insert("t", resident * min(wss, 8 * MB), wss)
    estimate = estimate_duration_ns(
        cache, "t", profile, remaining, hit_ns, miss_ns
    )
    assert int(remaining * base_cpi_ns) == int(estimate)


def test_cold_cache_estimate_skips_where_the_bound_does_not():
    # 1.5e6 instructions: 0.75 ms LLC-free, but a cold 64 MB working set
    # misses on every reference, so the estimate is far past the 1 ms
    # expiry
    profile = MemoryProfile(wss_bytes=64 * MB, llc_ref_rate=0.05, base_cpi_ns=0.5)
    assert not bound_skips(0, 1_500_000, profile, 1 * MS)
    assert full_delay(1_500_000, profile, SharedCache(8 * MB), "t") >= 1 * MS
    _, vcpu = one_vcpu(1_500_000, 1 * MS, profile)
    assert vcpu.completion_event is None
    assert not vcpu.quantum_event.cancelled
