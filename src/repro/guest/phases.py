"""Thread phases: the units of guest execution.

A guest thread body is a generator yielding these objects.  The
hypervisor machine interprets them:

* :class:`Compute` — retire an instruction burst under a memory profile;
* :class:`Acquire` / :class:`Release` — ticket-spin-lock operations;
* :class:`WaitEvent` — block until an event-channel port has a pending
  event (the IO path);
* :class:`Sleep` — block for a fixed virtual duration;
* :class:`Exit` — terminate the thread.

Phases carry mutable progress state (e.g. remaining instructions) so a
phase can span many scheduling segments.

The concrete phases are final: the machine dispatches on the exact type
(``type(phase) is Compute``, not ``isinstance``), so an instance of a
subclass is rejected as an unknown phase.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Optional, final

from repro.hardware.cache import MemoryProfile

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.guest.spinlock import SpinLock
    from repro.hypervisor.event_channel import EventPort


class Phase:
    """Base class; only the concrete subclasses below are instantiated.

    They are final (see the module docstring): subclass none of them.
    """

    __slots__ = ()


@final
class Compute(Phase):
    """Retire ``instructions`` under ``profile`` (thread default if None)."""

    __slots__ = ("instructions", "remaining", "profile")

    def __init__(self, instructions: float, profile: Optional[MemoryProfile] = None):
        if not math.isfinite(instructions):
            raise ValueError(
                f"Compute: instruction count must be finite, got {instructions!r}"
            )
        if instructions < 0:
            raise ValueError("instruction count cannot be negative")
        self.instructions = float(instructions)
        self.remaining = float(instructions)
        self.profile = profile

    def __repr__(self) -> str:
        return f"Compute({self.remaining:.0f}/{self.instructions:.0f})"


@final
class Acquire(Phase):
    """Take a spin lock, spinning (burning CPU) while contended."""

    __slots__ = ("lock", "requested_at", "ticket")

    def __init__(self, lock: "SpinLock"):
        self.lock = lock
        self.requested_at: Optional[int] = None
        self.ticket: Optional[int] = None

    def __repr__(self) -> str:
        return f"Acquire({self.lock.name})"


@final
class Release(Phase):
    """Release a spin lock (instantaneous)."""

    __slots__ = ("lock",)

    def __init__(self, lock: "SpinLock"):
        self.lock = lock

    def __repr__(self) -> str:
        return f"Release({self.lock.name})"


@final
class SemAcquire(Phase):
    """Take a blocking semaphore; the thread sleeps while contended."""

    __slots__ = ("semaphore", "granted")

    def __init__(self, semaphore):
        self.semaphore = semaphore
        #: set by the releaser's handoff while this thread is blocked
        self.granted = False

    def __repr__(self) -> str:
        return f"SemAcquire({self.semaphore.name})"


@final
class SemRelease(Phase):
    """Release a blocking semaphore (instantaneous)."""

    __slots__ = ("semaphore",)

    def __init__(self, semaphore):
        self.semaphore = semaphore

    def __repr__(self) -> str:
        return f"SemRelease({self.semaphore.name})"


@final
class BarrierWait(Phase):
    """Spin at a barrier until all parties of this round have arrived.

    ``generation`` records which barrier round this thread is waiting
    on; the machine compares it against the barrier's current
    generation to detect release (which may happen while the thread's
    vCPU is descheduled — the tail the quantum length stretches).
    """

    __slots__ = ("barrier", "generation")

    def __init__(self, barrier):
        self.barrier = barrier
        self.generation: Optional[int] = None

    def __repr__(self) -> str:
        return f"BarrierWait({self.barrier.name}, gen={self.generation})"


@final
class WaitEvent(Phase):
    """Block until the port has a pending event, then consume one."""

    __slots__ = ("port", "payload")

    def __init__(self, port: "EventPort"):
        self.port = port
        self.payload: object = None  # filled in when the event is consumed

    def __repr__(self) -> str:
        return f"WaitEvent({self.port.name})"


@final
class Sleep(Phase):
    """Block for a fixed amount of virtual time.

    ``started`` / ``expired`` track the phase's progress so the code
    after the ``yield Sleep(...)`` runs only once the timer has fired
    (the generator advances on wake-up, not at block time).
    """

    __slots__ = ("duration_ns", "started", "expired")

    def __init__(self, duration_ns: int):
        if not math.isfinite(duration_ns):
            raise ValueError(
                f"Sleep: duration must be finite, got {duration_ns!r}"
            )
        if duration_ns < 0:
            raise ValueError("sleep duration cannot be negative")
        whole = int(duration_ns)
        if whole != duration_ns:
            # truncating would sleep less than asked; the clock is
            # integer nanoseconds
            raise ValueError(
                f"Sleep: duration must be whole nanoseconds, got {duration_ns!r}"
            )
        self.duration_ns = whole
        self.started = False
        self.expired = False

    def __repr__(self) -> str:
        return f"Sleep({self.duration_ns}ns)"


@final
class Exit(Phase):
    """Terminate the thread."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "Exit()"


__all__ = [
    "Phase",
    "Compute",
    "Acquire",
    "Release",
    "SemAcquire",
    "SemRelease",
    "BarrierWait",
    "WaitEvent",
    "Sleep",
    "Exit",
]
