"""The guest OS scheduler: multiplexes threads over a VM's vCPUs.

Threads are pinned to a vCPU when added (explicitly or to the
least-loaded one) and each vCPU round-robins its ready threads with a
guest-level timeslice.  This is intentionally a small model of a Linux
guest: what matters to the paper is only (a) that a vCPU with no
runnable thread blocks — releasing its pCPU — and (b) that several
different thread types may take turns on one vCPU, which is why vTRS
must re-evaluate vCPU types online.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Optional

from repro.guest.thread import GuestThread, ThreadState
from repro.sim.units import MS

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.hypervisor.vm import VCpu, VM

#: Enum members as module constants: reading one off its class goes
#: through the Enum metaclass, and the machine asks the guest for the
#: next thread at every segment boundary
_READY = ThreadState.READY
_RUNNING = ThreadState.RUNNING
_SPINNING = ThreadState.SPINNING
_BLOCKED = ThreadState.BLOCKED
_DONE = ThreadState.DONE


class _VCpuGuest:
    """The guest scheduler's state for one vCPU."""

    __slots__ = ("ready", "current", "run_ns")

    def __init__(self) -> None:
        #: threads queued for this vCPU, in turn order; ones no longer
        #: runnable are dropped when their turn comes
        self.ready: deque[GuestThread] = deque()
        #: the thread holding the vCPU (None = pick from ``ready``)
        self.current: Optional[GuestThread] = None
        #: run time charged to ``current``'s guest timeslice
        self.run_ns: float = 0.0


class GuestOS:
    """Per-VM thread scheduler."""

    def __init__(self, vm: "VM", guest_slice_ns: int = 4 * MS):
        self.vm = vm
        self.guest_slice_ns = guest_slice_ns
        #: one record per vCPU, keyed by ``vcpu_id``
        self._vcpus: dict[int, _VCpuGuest] = {
            vcpu.vcpu_id: _VCpuGuest() for vcpu in vm.vcpus
        }
        self.threads: list[GuestThread] = []

    # ------------------------------------------------------------------
    # thread management
    # ------------------------------------------------------------------
    def add_thread(
        self, thread: GuestThread, vcpu: Optional["VCpu"] = None
    ) -> GuestThread:
        """Register a thread, pinning it to ``vcpu`` or the emptiest one."""
        records = self._vcpus
        if vcpu is None:
            vcpu = min(
                self.vm.vcpus,
                key=lambda v: len(records[v.vcpu_id].ready),
            )
        if vcpu.vm is not self.vm:
            raise ValueError(f"{vcpu!r} does not belong to {self.vm!r}")
        thread.vcpu = vcpu
        self.threads.append(thread)
        records[vcpu.vcpu_id].ready.append(thread)
        thread.state = _READY
        return thread

    # ------------------------------------------------------------------
    # scheduling interface used by the hypervisor machine
    # ------------------------------------------------------------------
    def pick(self, vcpu: "VCpu") -> Optional[GuestThread]:
        """The thread that should run next on ``vcpu`` (None = idle)."""
        record = self._vcpus[vcpu.vcpu_id]
        current = record.current
        if current is not None and current.runnable:
            return current
        return _switch_to_next(record)

    def maybe_rotate(self, vcpu: "VCpu") -> Optional[GuestThread]:
        """Rotate if the current thread exhausted its guest timeslice.

        A spinning thread is never rotated away from: guest kernels
        disable preemption while a spin lock is held or awaited, which
        is precisely what makes lock-holder preemption a hypervisor
        (not guest) problem.
        """
        record = self._vcpus[vcpu.vcpu_id]
        current = record.current
        if current is None:
            return _switch_to_next(record)
        state = current.state
        if state is _SPINNING:
            return current
        if state is not _RUNNING and state is not _READY:
            return _switch_to_next(record)
        if record.run_ns < self.guest_slice_ns:
            return current
        ready = record.ready
        if ready:  # someone else is waiting: yield the vCPU to them
            ready.append(current)
            current.state = _READY
            return _switch_to_next(record)
        record.run_ns = 0.0
        return current

    def note_run(self, vcpu: "VCpu", run_ns: float) -> None:
        """Charge run time to the current thread's guest timeslice."""
        self._vcpus[vcpu.vcpu_id].run_ns += run_ns

    # ------------------------------------------------------------------
    # state transitions
    # ------------------------------------------------------------------
    def thread_blocked(self, thread: GuestThread) -> None:
        """The current thread blocked (IO wait / sleep)."""
        thread.state = _BLOCKED
        vcpu = thread.vcpu
        assert vcpu is not None
        record = self._vcpus[vcpu.vcpu_id]
        if record.current is thread:
            record.current = None

    def thread_exited(self, thread: GuestThread) -> None:
        thread.state = _DONE
        vcpu = thread.vcpu
        assert vcpu is not None
        record = self._vcpus[vcpu.vcpu_id]
        if record.current is thread:
            record.current = None

    def thread_ready(self, thread: GuestThread) -> bool:
        """Unblock a thread.  Returns True if its vCPU needs a wake-up."""
        if thread.state is not _BLOCKED:
            return False
        thread.state = _READY
        vcpu = thread.vcpu
        assert vcpu is not None
        self._vcpus[vcpu.vcpu_id].ready.append(thread)
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
        record = self._vcpus[vcpu.vcpu_id]
        current = record.current
        if current is thread:
            return False
        if current is not None and current.state is _SPINNING:
            return False
        ready = record.ready
        try:
            ready.remove(thread)
        except ValueError:
            return False  # not queued here (e.g. still blocked)
        if current is not None and current.runnable:
            current.state = _READY
            ready.appendleft(current)
        record.current = thread
        record.run_ns = 0.0
        return True

    def has_runnable(self, vcpu: "VCpu") -> bool:
        record = self._vcpus[vcpu.vcpu_id]
        current = record.current
        if current is not None and current.runnable:
            return True
        return any(t.runnable for t in record.ready)

    def runnable_count(self, vcpu: "VCpu") -> int:
        record = self._vcpus[vcpu.vcpu_id]
        count = sum(1 for t in record.ready if t.runnable)
        current = record.current
        if current is not None and current.runnable:
            count += 1
        return count

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<GuestOS vm={self.vm.name} threads={len(self.threads)}>"


def _switch_to_next(record: _VCpuGuest) -> Optional[GuestThread]:
    """Make the first runnable queued thread current (None = idle).

    Queued threads popped on the way that are no longer runnable are
    dropped: a blocked thread re-enters the queue when it is readied.
    """
    ready = record.ready
    while ready:
        thread = ready.popleft()
        if thread.runnable:
            record.current = thread
            record.run_ns = 0.0
            return thread
    record.current = None
    return None


__all__ = ["GuestOS"]
