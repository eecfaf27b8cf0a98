"""Differential equivalence: the per-vCPU guest record vs three dicts.

:class:`repro.guest.os.GuestOS` keeps one slotted record per vCPU
(``ready``, ``current``, ``run_ns``) so every scheduling call does one
lookup and never allocates.  It must behave exactly like the model it
replaced, kept below verbatim as the reference: three dicts keyed by
``vcpu_id`` filled in lazily with ``setdefault``.

Hypothesis drives both through the same sequences of every public
call over VMs of one to three vCPUs.  After every call the return
value, every thread's state and vCPU, and each vCPU's ready order,
current thread and timeslice charge must compare ``==``.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Optional

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.guest.os import GuestOS
from repro.guest.thread import GuestThread, ThreadState
from repro.hypervisor.vm import VM
from repro.sim.units import MS

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.hypervisor.vm import VCpu


# ----------------------------------------------------------------------
# the reference model (the three-dict implementation, kept verbatim)
# ----------------------------------------------------------------------
class ReferenceGuestOS:
    """The three-dict guest scheduler."""

    def __init__(self, vm: "VM", guest_slice_ns: int = 4 * MS):
        self.vm = vm
        self.guest_slice_ns = guest_slice_ns
        self._ready: dict[int, deque[GuestThread]] = {}
        self._current: dict[int, Optional[GuestThread]] = {}
        self._current_run_ns: dict[int, float] = {}
        self.threads: list[GuestThread] = []

    # ------------------------------------------------------------------
    # thread management
    # ------------------------------------------------------------------
    def add_thread(
        self, thread: GuestThread, vcpu: Optional["VCpu"] = None
    ) -> GuestThread:
        """Register a thread, pinning it to ``vcpu`` or the emptiest one."""
        if vcpu is None:
            vcpu = min(
                self.vm.vcpus,
                key=lambda v: len(self._ready.get(v.vcpu_id, ())),
            )
        if vcpu.vm is not self.vm:
            raise ValueError(f"{vcpu!r} does not belong to {self.vm!r}")
        thread.vcpu = vcpu
        self.threads.append(thread)
        queue = self._ready.setdefault(vcpu.vcpu_id, deque())
        queue.append(thread)
        thread.state = ThreadState.READY
        return thread

    # ------------------------------------------------------------------
    # scheduling interface used by the hypervisor machine
    # ------------------------------------------------------------------
    def pick(self, vcpu: "VCpu") -> Optional[GuestThread]:
        """The thread that should run next on ``vcpu`` (None = idle)."""
        current = self._current.get(vcpu.vcpu_id)
        if current is not None and current.runnable:
            return current
        return self._switch_to_next(vcpu)

    def maybe_rotate(self, vcpu: "VCpu") -> Optional[GuestThread]:
        """Rotate if the current thread exhausted its guest timeslice.

        A spinning thread is never rotated away from: guest kernels
        disable preemption while a spin lock is held or awaited, which
        is precisely what makes lock-holder preemption a hypervisor
        (not guest) problem.
        """
        current = self._current.get(vcpu.vcpu_id)
        if current is not None and current.state == ThreadState.SPINNING:
            return current
        if current is None or not current.runnable:
            return self._switch_to_next(vcpu)
        if self._current_run_ns.get(vcpu.vcpu_id, 0.0) >= self.guest_slice_ns:
            queue = self._ready.setdefault(vcpu.vcpu_id, deque())
            if queue:  # someone else is waiting: yield the vCPU to them
                queue.append(current)
                current.state = ThreadState.READY
                return self._switch_to_next(vcpu)
            self._current_run_ns[vcpu.vcpu_id] = 0.0
        return current

    def note_run(self, vcpu: "VCpu", run_ns: float) -> None:
        """Charge run time to the current thread's guest timeslice."""
        self._current_run_ns[vcpu.vcpu_id] = (
            self._current_run_ns.get(vcpu.vcpu_id, 0.0) + run_ns
        )

    def _switch_to_next(self, vcpu: "VCpu") -> Optional[GuestThread]:
        queue = self._ready.setdefault(vcpu.vcpu_id, deque())
        while queue:
            thread = queue.popleft()
            if thread.runnable:
                self._current[vcpu.vcpu_id] = thread
                self._current_run_ns[vcpu.vcpu_id] = 0.0
                return thread
        self._current[vcpu.vcpu_id] = None
        return None

    # ------------------------------------------------------------------
    # state transitions
    # ------------------------------------------------------------------
    def thread_blocked(self, thread: GuestThread) -> None:
        """The current thread blocked (IO wait / sleep)."""
        thread.state = ThreadState.BLOCKED
        vcpu = thread.vcpu
        assert vcpu is not None
        if self._current.get(vcpu.vcpu_id) is thread:
            self._current[vcpu.vcpu_id] = None

    def thread_exited(self, thread: GuestThread) -> None:
        thread.state = ThreadState.DONE
        vcpu = thread.vcpu
        assert vcpu is not None
        if self._current.get(vcpu.vcpu_id) is thread:
            self._current[vcpu.vcpu_id] = None

    def thread_ready(self, thread: GuestThread) -> bool:
        """Unblock a thread.  Returns True if its vCPU needs a wake-up."""
        if thread.state != ThreadState.BLOCKED:
            return False
        thread.state = ThreadState.READY
        vcpu = thread.vcpu
        assert vcpu is not None
        self._ready.setdefault(vcpu.vcpu_id, deque()).append(thread)
        return True

    def preempt_to(self, vcpu: "VCpu", thread: GuestThread) -> bool:
        """Guest interrupt handling: make ``thread`` the current thread.

        The displaced thread goes to the *front* of the ready queue (it
        resumes right after the handler).  Returns True if the current
        thread actually changed.  A SPINNING current thread is never
        displaced (interrupts disabled around kernel spin locks).
        """
        if thread.vcpu is not vcpu or not thread.runnable:
            return False
        current = self._current.get(vcpu.vcpu_id)
        if current is thread:
            return False
        if current is not None and current.state == ThreadState.SPINNING:
            return False
        queue = self._ready.setdefault(vcpu.vcpu_id, deque())
        try:
            queue.remove(thread)
        except ValueError:
            return False  # not queued here (e.g. still blocked)
        if current is not None and current.runnable:
            current.state = ThreadState.READY
            queue.appendleft(current)
        self._current[vcpu.vcpu_id] = thread
        self._current_run_ns[vcpu.vcpu_id] = 0.0
        return True

    def has_runnable(self, vcpu: "VCpu") -> bool:
        current = self._current.get(vcpu.vcpu_id)
        if current is not None and current.runnable:
            return True
        return any(t.runnable for t in self._ready.get(vcpu.vcpu_id, ()))

    def runnable_count(self, vcpu: "VCpu") -> int:
        count = sum(1 for t in self._ready.get(vcpu.vcpu_id, ()) if t.runnable)
        current = self._current.get(vcpu.vcpu_id)
        if current is not None and current.runnable:
            count += 1
        return count


# ----------------------------------------------------------------------
# the differential harness
# ----------------------------------------------------------------------
def _idle(thread):
    return iter(())


class World:
    """One VM, its guest scheduler and the threads added so far."""

    def __init__(self, guest_cls, vcpus: int) -> None:
        self.vm = VM(0, "vm", vcpus)
        self.guest = guest_cls(self.vm)
        self.threads: list[GuestThread] = []
        #: the thread the last pick/maybe_rotate handed out
        self.scheduled: Optional[GuestThread] = None

    def index(self, thread: Optional[GuestThread]) -> Optional[int]:
        return None if thread is None else self.threads.index(thread)

    def apply(self, op: tuple):
        """Run one call; threads in the result become their index."""
        kind, *args = op
        guest = self.guest
        vcpus = self.vm.vcpus
        if kind == "add":
            (where,) = args
            thread = GuestThread(f"t{len(self.threads)}", _idle)
            self.threads.append(thread)
            target = None if where is None else vcpus[where % len(vcpus)]
            return self.index(guest.add_thread(thread, target))
        if kind in ("pick", "maybe_rotate"):
            (v,) = args
            vcpu = vcpus[v % len(vcpus)]
            self.scheduled = getattr(guest, kind)(vcpu)
            return self.index(self.scheduled)
        if kind == "run":
            # what the machine does to the thread it was handed
            (state,) = args
            if self.scheduled is not None:
                self.scheduled.state = state
            return None
        if kind in ("has_runnable", "runnable_count"):
            (v,) = args
            return getattr(guest, kind)(vcpus[v % len(vcpus)])
        if kind == "note_run":
            v, run_ns = args
            return guest.note_run(vcpus[v % len(vcpus)], run_ns)
        if not self.threads:
            return "no threads"
        if kind == "preempt_to":
            v, k = args
            thread = self.threads[k % len(self.threads)]
            # None aims at the thread's own vCPU, the case that can succeed
            vcpu = thread.vcpu if v is None else vcpus[v % len(vcpus)]
            return guest.preempt_to(vcpu, thread)
        k, *rest = args
        thread = self.threads[k % len(self.threads)]
        if kind == "set_state":
            # any state on any thread: corners the calls must agree on
            thread.state = rest[0]
            return None
        return getattr(guest, kind)(thread)

    def snapshot(self, ready_of, current_of, run_ns_of) -> tuple:
        vcpus = self.vm.vcpus
        return (
            [(t.state, t.vcpu.index) for t in self.threads],
            [[self.index(t) for t in ready_of(v)] for v in vcpus],
            [self.index(current_of(v)) for v in vcpus],
            [run_ns_of(v) for v in vcpus],
        )


def new_snapshot(world: World) -> tuple:
    records = world.guest._vcpus
    return world.snapshot(
        lambda v: records[v.vcpu_id].ready,
        lambda v: records[v.vcpu_id].current,
        lambda v: records[v.vcpu_id].run_ns,
    )


def reference_snapshot(world: World) -> tuple:
    guest = world.guest
    return world.snapshot(
        lambda v: guest._ready.get(v.vcpu_id, ()),
        lambda v: guest._current.get(v.vcpu_id),
        lambda v: guest._current_run_ns.get(v.vcpu_id, 0.0),
    )


vcpu_ref = st.integers(0, 2)
thread_ref = st.integers(0, 5)
#: one op kind per strategy; ``calls`` weights them towards the calls
#: the machine makes at every segment boundary
OP_KINDS = {
    "add": st.tuples(st.just("add"), st.none() | vcpu_ref),
    "schedule": st.tuples(st.sampled_from(("pick", "maybe_rotate")), vcpu_ref),
    "query": st.tuples(
        st.sampled_from(("has_runnable", "runnable_count")), vcpu_ref
    ),
    # int nanoseconds like the machine charges, plus floats; the guest
    # slice is 4 ms, so whole-slice charges are drawn often
    "note_run": st.tuples(
        st.just("note_run"),
        vcpu_ref,
        st.sampled_from((1 * MS, 4 * MS, 5 * MS))
        | st.integers(0, 5 * MS)
        | st.floats(0.0, 5e6, allow_nan=False),
    ),
    "run": st.tuples(
        st.just("run"), st.sampled_from((ThreadState.RUNNING, ThreadState.SPINNING))
    ),
    "preempt_to": st.tuples(
        st.just("preempt_to"), st.none() | vcpu_ref, thread_ref
    ),
    "transition": st.tuples(
        st.sampled_from(("thread_blocked", "thread_ready", "thread_exited")),
        thread_ref,
    ),
    "set_state": st.tuples(
        st.just("set_state"), thread_ref, st.sampled_from(list(ThreadState))
    ),
}
WEIGHTS = (
    ("add",) * 2 + ("schedule",) * 4 + ("note_run",) * 3 + ("run",) * 2
    + ("preempt_to",) * 2 + ("query", "transition", "set_state")
)
calls = st.sampled_from(WEIGHTS).flatmap(OP_KINDS.__getitem__)


@settings(max_examples=400, deadline=None)
@given(vcpus=st.integers(1, 3), sequence=st.lists(calls, min_size=20, max_size=80))
def test_guest_record_matches_three_dicts(vcpus, sequence):
    new, ref = World(GuestOS, vcpus), World(ReferenceGuestOS, vcpus)
    for op in sequence:
        assert new.apply(op) == ref.apply(op), op
        assert new_snapshot(new) == reference_snapshot(ref), op


def test_slice_rotation_matches_reference():
    """Directed: two threads on one vCPU trade the vCPU every slice."""
    new, ref = World(GuestOS, 1), World(ReferenceGuestOS, 1)
    ops = [("add", 0), ("add", 0), ("maybe_rotate", 0)]
    for _ in range(4):
        ops += [("run", ThreadState.RUNNING), ("note_run", 0, 3 * MS),
                ("maybe_rotate", 0), ("note_run", 0, 1 * MS), ("maybe_rotate", 0)]
    results = []
    for op in ops:
        result = new.apply(op)
        assert result == ref.apply(op), op
        assert new_snapshot(new) == reference_snapshot(ref), op
        if op[0] == "maybe_rotate":
            results.append(result)
    # the current thread changed at least once: a rotation really ran
    assert len(set(results)) == 2


def test_full_slice_with_nobody_waiting_renews_the_slice():
    """Directed: a lone thread past its slice keeps the vCPU, charge reset."""
    new, ref = World(GuestOS, 1), World(ReferenceGuestOS, 1)
    for op in [("add", 0), ("maybe_rotate", 0), ("note_run", 0, 5 * MS),
               ("maybe_rotate", 0)]:
        assert new.apply(op) == ref.apply(op), op
        assert new_snapshot(new) == reference_snapshot(ref), op
    assert new.guest._vcpus[new.vm.vcpus[0].vcpu_id].run_ns == 0.0
