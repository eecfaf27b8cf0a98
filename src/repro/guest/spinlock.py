"""Ticket spin-lock with preemption pathologies.

Guest kernels of the paper's era (Linux 3.x) use ticket spin-locks:
waiters take a ticket and spin until the "now serving" counter reaches
it.  Under virtualization two things go wrong, both central to the
paper's ConSpin analysis:

* **lock-holder preemption** — the holder's vCPU is descheduled
  mid-critical-section; every waiter burns CPU until the holder's vCPU
  gets a pCPU again (up to ``(k - 1) * quantum`` later);
* **lock-waiter preemption** — FIFO handoff passes the lock to the next
  ticket even if that waiter's vCPU is off-CPU, so the lock stalls until
  that specific vCPU runs.  This is why measured lock duration grows
  with the quantum length (paper Fig. 2, rightmost plot).

The lock keeps aggregate statistics (acquisitions, wait time, hold
time) that the calibration experiments report.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.guest.thread import GuestThread


class LockStats:
    """Aggregate observability for one lock."""

    def __init__(self) -> None:
        self.acquisitions = 0
        self.contended_acquisitions = 0
        self.total_wait_ns = 0.0
        self.total_hold_ns = 0.0

    @property
    def mean_duration_ns(self) -> float:
        """Mean acquire-request -> release time (the paper's metric)."""
        if self.acquisitions == 0:
            return 0.0
        return (self.total_wait_ns + self.total_hold_ns) / self.acquisitions


def _waiter_on_cpu(thread: "GuestThread") -> bool:
    """Is this waiter actively spinning on a pCPU right now?"""
    vcpu = thread.vcpu
    if vcpu is None:
        return False
    return (
        thread.state.value == "spinning"
        and vcpu.state.value == "running"
        and vcpu.current_thread is thread
    )


class SpinLock:
    """A guest-level spin lock shared by a VM's threads.

    ``handoff`` selects the grant policy on release:

    * ``"hybrid"`` (default) — test-and-set semantics: on release the
      lock is handed to the earliest waiter that is on-CPU right now;
      if none is, the lock is left *free* and the first waiter whose
      vCPU gets scheduled barges in.  A descheduled waiter therefore
      never stalls the lock while others can run.  Lock-*holder*
      preemption still costs the full off-CPU stall (everyone spins
      until the holder's vCPU returns).
    * ``"fifo"`` — strict ticket-lock order; a grant to a descheduled
      waiter stalls the lock until that vCPU runs (the lock-waiter-
      preemption pathology of [39]).  Under heavy consolidation this
      produces absorbing convoys, far more extreme than the paper's
      testbed numbers — useful to study, not as the default.
    """

    def __init__(self, name: str = "lock", handoff: str = "hybrid"):
        if handoff not in ("hybrid", "fifo"):
            raise ValueError(f"unknown handoff policy {handoff!r}")
        self.handoff = handoff
        self.name = name
        self.owner: Optional["GuestThread"] = None
        self._waiters: deque["GuestThread"] = deque()
        #: set when release handed the lock to a waiter that has not yet
        #: noticed (its vCPU may be descheduled) — the waiter-preemption
        #: window.
        self.granted_to: Optional["GuestThread"] = None
        self.stats = LockStats()
        self._acquired_at: dict[int, int] = {}  # tid -> hold start time
        self._requested_at: dict[int, int] = {}  # tid -> wait start time

    # ------------------------------------------------------------------
    # protocol (driven by the machine's phase interpreter)
    # ------------------------------------------------------------------
    def try_acquire(self, thread: "GuestThread", now: int) -> bool:
        """Attempt acquisition; enqueue as a spinning waiter on failure.

        Returns True if the lock was taken (either it was free, or this
        thread had already been granted the lock by a releaser).
        """
        if self.granted_to is thread:
            self.granted_to = None
            self._take(thread, now)
            return True
        free = self.owner is None and self.granted_to is None
        if free and self.handoff == "hybrid":
            # test-and-set barging: the lock is free, take it even if
            # other (descheduled) waiters queued first
            if thread in self._waiters:
                self._waiters.remove(thread)
            self._requested_at.setdefault(thread.tid, now)
            self._take(thread, now)
            return True
        if free and not self._waiters:
            self._requested_at.setdefault(thread.tid, now)
            self._take(thread, now)
            return True
        if thread not in self._waiters:
            self._waiters.append(thread)
            self._requested_at.setdefault(thread.tid, now)
            self.stats.contended_acquisitions += 1
        return False

    def release(self, thread: "GuestThread", now: int) -> Optional["GuestThread"]:
        """Release; returns the waiter the lock was handed to, if any.

        The caller (machine) is responsible for poking the returned
        waiter so that, if it is currently spinning on a pCPU, it stops
        spinning immediately.  If the waiter's vCPU is descheduled the
        grant simply sits until that vCPU runs — the waiter-preemption
        stall.
        """
        if self.owner is not thread:
            raise RuntimeError(
                f"{thread!r} released {self.name} owned by {self.owner!r}"
            )
        start = self._acquired_at.pop(thread.tid)
        self.stats.total_hold_ns += now - start
        self.owner = None
        if not self._waiters:
            return None
        beneficiary: Optional["GuestThread"] = None
        if self.handoff == "hybrid":
            for candidate in self._waiters:
                if _waiter_on_cpu(candidate):
                    beneficiary = candidate
                    break
            if beneficiary is None:
                # no waiter can take it right now: leave the lock free;
                # the first waiter to get scheduled will barge in
                return None
        else:
            beneficiary = self._waiters[0]
        self._waiters.remove(beneficiary)
        self.granted_to = beneficiary
        return beneficiary

    def _take(self, thread: "GuestThread", now: int) -> None:
        self.owner = thread
        self._acquired_at[thread.tid] = now
        requested = self._requested_at.pop(thread.tid, now)
        self.stats.total_wait_ns += now - requested
        self.stats.acquisitions += 1

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def contended(self) -> bool:
        return bool(self._waiters) or self.granted_to is not None

    def waiting_count(self) -> int:
        return len(self._waiters)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        owner = self.owner.name if self.owner else "-"
        return f"<SpinLock {self.name} owner={owner} waiters={len(self._waiters)}>"


__all__ = ["SpinLock", "LockStats"]
