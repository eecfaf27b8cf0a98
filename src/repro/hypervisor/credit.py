"""The Credit scheduler (Xen's default), §2.1 of the paper.

Faithfully modelled mechanisms:

* per-VM **weights** and optional **caps**; credits are distributed every
  accounting period (30 ms) in proportion to weight and clipped so a
  blocked vCPU cannot hoard an unbounded balance;
* **UNDER/OVER** states: positive balance runs before exhausted ones;
  within a priority class vCPUs round-robin;
* **BOOST**: a vCPU that blocked voluntarily (did not exhaust its
  previous quantum) and still has credit is boosted to the head of the
  queue when an event wakes it, preempting a non-BOOST vCPU — and,
  exactly as the paper stresses, a vCPU that *did* consume its full
  quantum gets no boost, which is why heterogeneous IO workloads suffer
  under long quanta;
* per-pCPU run queues with intra-pool work stealing (a pool never idles
  a pCPU while a sibling queue holds a runnable vCPU).

One deliberate deviation: Xen samples credit burn at 10 ms ticks
(charging whole ticks to whoever holds the pCPU at the tick), which is
a known unfairness orthogonal to this paper.  We burn credits exactly,
proportionally to integrated run time.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator, Optional

from repro.hypervisor.vm import Priority, VCpu, VCpuState
from repro.sim.units import MS

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.hypervisor.machine import Machine, PCpuContext

#: Enum members as module constants: reading one off its class goes
#: through the Enum metaclass, and every dispatch classifies a vCPU
_BOOST = Priority.BOOST
_UNDER = Priority.UNDER
_OVER = Priority.OVER
_RUNNABLE = VCpuState.RUNNABLE


@dataclass(frozen=True, slots=True)
class CreditParams:
    """Tunables of the Credit scheduler."""

    tick_ns: int = 10 * MS
    accounting_ns: int = 30 * MS
    credits_per_tick: float = 100.0
    credit_clip: float = 300.0
    boost_enabled: bool = True

    def __post_init__(self) -> None:
        # `not x > 0` also rejects NaN; a zero period re-arms its event
        # at the same instant and the run never returns
        for name in ("tick_ns", "accounting_ns", "credits_per_tick"):
            value = getattr(self, name)
            if not value > 0:
                raise ValueError(f"{name} must be positive, got {value!r}")
        if not self.credit_clip >= 0:
            raise ValueError(
                f"credit_clip must be >= 0, got {self.credit_clip!r}"
            )

    @property
    def burn_rate_per_ns(self) -> float:
        return self.credits_per_tick / self.tick_ns


class RunQueue:
    """Priority run queue: BOOST, then UNDER, then OVER; FIFO within.

    The three class queues live in a fixed tuple ordered by priority so
    the per-dispatch scans (``pop_best``/``best_priority``/``__len__``)
    are plain tuple walks — iterating the ``Priority`` enum on every
    call showed up in the small-quantum profile.
    """

    __slots__ = ("_queues", "_ordered")

    def __init__(self) -> None:
        self._queues: dict[Priority, deque[VCpu]] = {
            priority: deque() for priority in Priority
        }
        self._ordered: tuple[tuple[Priority, deque[VCpu]], ...] = tuple(
            (priority, self._queues[priority]) for priority in Priority
        )

    def push(self, vcpu: VCpu, front: bool = False) -> None:
        queue = self._queues[vcpu.priority]
        if front:
            queue.appendleft(vcpu)
        else:
            queue.append(vcpu)

    def pop_best(self) -> Optional[VCpu]:
        for _, queue in self._ordered:
            if queue:
                return queue.popleft()
        return None

    def remove(self, vcpu: VCpu) -> bool:
        for _, queue in self._ordered:
            try:
                queue.remove(vcpu)
                return True
            except ValueError:
                continue
        return False

    def best_priority(self) -> Optional[Priority]:
        for priority, queue in self._ordered:
            if queue:
                return priority
        return None

    def drain(self) -> list[VCpu]:
        """Remove and return every queued vCPU."""
        drained: list[VCpu] = []
        for _, queue in self._ordered:
            drained.extend(queue)
            queue.clear()
        return drained

    def refresh_priorities(self, classify) -> None:
        """Re-bucket queued vCPUs after an accounting pass.

        ``classify(vcpu)`` returns the new priority.  Stale BOOSTs are
        demoted too — as in Xen, boost is a transient that does not
        survive an accounting period spent sitting in the run queue.
        """
        entries = self.drain()
        for vcpu in entries:
            vcpu.priority = classify(vcpu)
        for vcpu in entries:
            self.push(vcpu)

    def __len__(self) -> int:
        queues = self._ordered
        return len(queues[0][1]) + len(queues[1][1]) + len(queues[2][1])

    def __iter__(self) -> Iterator[VCpu]:
        for _, queue in self._ordered:
            yield from queue


class CreditScheduler:
    """Scheduling *policy*; mechanism (dispatch/integration) lives in Machine."""

    __slots__ = ("machine", "params", "_burn_rate_per_ns")

    def __init__(self, machine: "Machine", params: CreditParams) -> None:
        self.machine = machine
        self.params = params
        # params are frozen: divide once, not on every burn
        self._burn_rate_per_ns = params.burn_rate_per_ns

    # ------------------------------------------------------------------
    # priority helpers
    # ------------------------------------------------------------------
    def priority_for(self, vcpu: VCpu) -> Priority:
        return _UNDER if vcpu.credit > 0 else _OVER

    def boost_eligible(self, vcpu: VCpu) -> bool:
        return (
            self.params.boost_enabled
            and vcpu.dispatch_count > 0  # first-ever wake is not an IO wake
            and not vcpu.exhausted_last_quantum
            and vcpu.credit > 0
        )

    # ------------------------------------------------------------------
    # placement
    # ------------------------------------------------------------------
    def select_pcpu(self, vcpu: VCpu) -> "PCpuContext":
        """Choose the pool pCPU to queue ``vcpu`` on.

        Idle first, then shortest queue; cache affinity (last pCPU)
        breaks ties.
        """
        pool = vcpu.pool
        if pool is None or not pool.pcpus:
            raise RuntimeError(f"{vcpu!r} has no schedulable pool")
        # single pass, no per-call list or closure; `<` keeps the first
        # minimum exactly like min() did
        contexts = self.machine.contexts
        last = vcpu.last_pcpu
        best: Optional["PCpuContext"] = None
        best_key: Optional[tuple] = None
        for pcpu in pool.pcpus:
            ctx = contexts[pcpu]
            key = (
                0 if ctx.current is None else 1,
                len(ctx.runq),
                0 if pcpu is last else 1,
                pcpu.cpu_id,
            )
            if best_key is None or key < best_key:
                best = ctx
                best_key = key
        assert best is not None
        return best

    # ------------------------------------------------------------------
    # run-queue events
    # ------------------------------------------------------------------
    def enqueue(self, vcpu: VCpu, front: bool = False) -> "PCpuContext":
        ctx = self.select_pcpu(vcpu)
        vcpu.state = _RUNNABLE
        ctx.runq.push(vcpu, front=front)
        return ctx

    def pick_next(self, ctx: "PCpuContext") -> Optional[VCpu]:
        """Best local vCPU, with Xen's load-balance rule.

        When the local choice would be nothing or an OVER vCPU, try to
        steal an UNDER/BOOST vCPU from a pool sibling first (csched's
        balancing); an empty local queue falls back to stealing
        anything runnable so the pool stays work-conserving.
        """
        local = ctx.runq.pop_best()
        if local is not None and local.priority < _OVER:
            return local
        # one pass over the pool siblings finds both the best UNDER/BOOST
        # donor and the longest busy queue; strict `>` keeps the first
        # maximum in pool order, exactly like the max() calls it replaces
        contexts = self.machine.contexts
        own = ctx.pcpu
        donor: Optional["PCpuContext"] = None
        donor_len = -1
        busy: Optional["PCpuContext"] = None
        busy_len = -1
        for pcpu in ctx.pool.pcpus:
            if pcpu is own:
                continue
            peer = contexts[pcpu]
            queued = len(peer.runq)
            if not queued:
                continue
            if queued > busy_len:
                busy = peer
                busy_len = queued
            best = peer.runq.best_priority()
            if best is not None and best < _OVER and queued > donor_len:
                donor = peer
                donor_len = queued
        if donor is not None:
            stolen = donor.runq.pop_best()
            assert stolen is not None
            stolen.steals += 1
            if local is not None:
                ctx.runq.push(local, front=True)
            return stolen
        if local is not None:
            return local
        if busy is None:
            return None
        stolen = busy.runq.pop_best()
        if stolen is not None:
            stolen.steals += 1
        return stolen

    # ------------------------------------------------------------------
    # periodic accounting
    # ------------------------------------------------------------------
    def burn(self, vcpu: VCpu, run_ns: float) -> None:
        """Charge exact credit burn for integrated run time."""
        vcpu.credit -= run_ns * self._burn_rate_per_ns

    def on_tick(self, ctx: "PCpuContext") -> None:
        """Per-pCPU 10 ms tick: BOOST expires after its first tick."""
        current = ctx.current
        if current is not None and current.priority == _BOOST:
            current.priority = self.priority_for(current)

    def on_accounting(self, vcpus: Iterable[VCpu]) -> None:
        """30 ms credit redistribution + cap enforcement.

        A VM whose vCPUs consumed more CPU than its cap allows this
        period is *throttled* (its vCPUs are parked) for the next
        period — Xen's cap semantics at accounting granularity.
        """
        del vcpus  # credits are pool-scoped; kept for interface clarity
        telemetry = self.machine.telemetry
        if telemetry.enabled:
            telemetry.registry.counter("accounting_passes").inc()
        clip = self.params.credit_clip
        per_pcpu = (
            self.params.credits_per_tick
            * self.params.accounting_ns
            / self.params.tick_ns
        )
        for vm in self.machine.vms:
            if vm.cap is None:
                continue
            consumed = sum(v.run_since_acct for v in vm.vcpus)
            allowed = vm.cap / 100.0 * self.params.accounting_ns
            throttle = consumed > allowed
            for vcpu in vm.vcpus:
                vcpu.throttled = throttle
            if throttle and telemetry.enabled:
                telemetry.registry.counter(
                    "cap_throttles", vm=vm.name
                ).inc()
        for vcpu in self.machine.all_vcpus:
            vcpu.run_since_acct = 0.0
        for pool in self.machine.pools:
            members = sorted(pool.vcpus, key=lambda v: v.vcpu_id)
            if not members or not pool.pcpus:
                continue
            total_credits = per_pcpu * len(pool.pcpus)
            total_weight = sum(v.vm.weight / len(v.vm.vcpus) for v in members)
            if total_weight <= 0:
                continue
            for vcpu in members:
                weight = vcpu.vm.weight / len(vcpu.vm.vcpus)
                earned = total_credits * weight / total_weight
                if vcpu.vm.cap is not None:
                    cap_credits = (
                        vcpu.vm.cap / 100.0 * per_pcpu / len(vcpu.vm.vcpus)
                    )
                    earned = min(earned, cap_credits)
                vcpu.credit = max(-clip, min(clip, vcpu.credit + earned))
        for ctx in self.machine.contexts.values():
            ctx.runq.refresh_priorities(self.priority_for)


__all__ = ["CreditParams", "CreditScheduler", "RunQueue"]
