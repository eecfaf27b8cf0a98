"""Guest threads: generator-driven workloads pinned to vCPUs.

A thread's ``body`` is a generator yielding :mod:`~repro.guest.phases`
objects.  The thread object is also the cache *actor*: its working set
is what occupies LLC space, so thread identity is what the
:class:`~repro.hardware.cache.SharedCache` tracks.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Callable, Iterator, Optional

from repro.guest.phases import Exit, Phase
from repro.hardware.cache import MemoryProfile

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.hypervisor.vm import VCpu


class ThreadState(enum.Enum):
    READY = "ready"  # runnable, waiting for its vCPU / its turn
    RUNNING = "running"  # currently executing on a pCPU
    SPINNING = "spinning"  # busy-waiting on a spin lock (occupies the CPU)
    BLOCKED = "blocked"  # waiting for an event / sleeping
    DONE = "done"


#: built once: reading Enum members off their class is slow on CPython
#: 3.11, and the machine asks ``runnable`` at every segment boundary
_RUNNABLE_STATES = (ThreadState.READY, ThreadState.RUNNING, ThreadState.SPINNING)

ThreadBody = Callable[["GuestThread"], Iterator[Phase]]


class GuestThread:
    """One schedulable guest task."""

    __slots__ = (
        "tid",
        "name",
        "profile",
        "state",
        "vcpu",
        "_generator",
        "_body",
        "phase",
        "last_socket",
        "instructions_retired",
        "spin_ns",
        "run_ns",
        "started_at",
        "finished_at",
    )

    _next_tid = 0

    def __init__(
        self,
        name: str,
        body: ThreadBody,
        profile: Optional[MemoryProfile] = None,
    ):
        GuestThread._next_tid += 1
        self.tid = GuestThread._next_tid
        self.name = name
        self.profile = profile or MemoryProfile()
        self.state = ThreadState.READY
        self.vcpu: Optional["VCpu"] = None  # assigned by GuestOS.add_thread
        self._generator: Optional[Iterator[Phase]] = None
        self._body = body
        self.phase: Optional[Phase] = None
        #: socket whose LLC holds this thread's lines; on migration the
        #: machine evicts the stale footprint from the old socket.
        self.last_socket = None
        # accounting
        self.instructions_retired = 0.0
        self.spin_ns = 0.0
        self.run_ns = 0.0
        self.started_at: Optional[int] = None
        self.finished_at: Optional[int] = None

    # ------------------------------------------------------------------
    # phase machinery
    # ------------------------------------------------------------------
    def current_phase(self) -> Phase:
        """The phase in progress, starting the generator lazily."""
        if self.phase is None:
            self.advance_phase()
        assert self.phase is not None
        return self.phase

    def advance_phase(self) -> Phase:
        """Move to the next phase; yields :class:`Exit` forever after."""
        if self._generator is None:
            self._generator = self._body(self)
        try:
            self.phase = next(self._generator)
        except StopIteration:
            self.phase = Exit()
        return self.phase

    @property
    def done(self) -> bool:
        return self.state == ThreadState.DONE

    @property
    def runnable(self) -> bool:
        return self.state in _RUNNABLE_STATES

    def effective_profile(self) -> MemoryProfile:
        """Memory profile of the current compute phase (or the default)."""
        phase = self.phase
        profile = getattr(phase, "profile", None)
        return profile if profile is not None else self.profile

    def __repr__(self) -> str:
        return f"<Thread {self.name} tid={self.tid} {self.state.value}>"


__all__ = ["GuestThread", "ThreadState", "ThreadBody"]
