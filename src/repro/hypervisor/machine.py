"""The virtualized machine: dispatch, phase interpretation, integration.

:class:`Machine` owns the simulator, the hardware topology, the CPU
pools, the Credit scheduler and every VM.  It is the *mechanism* layer:
it dispatches the vCPU the scheduler picked, interprets the guest
thread's current phase (compute / spin / IO wait / sleep), and — at
every segment boundary (preemption, tick, phase completion, block) —
integrates the elapsed CPU time through the socket's LLC model,
crediting instructions to the thread and counter increments to the
vCPU's PMU.

The flow mirrors Xen: ``wake -> enqueue (maybe BOOST-preempt) ->
dispatch with the pool's quantum -> run segments bounded by 10 ms ticks
-> quantum expiry or voluntary block -> reschedule``.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Iterable, Optional

from repro.guest.os import GuestOS
from repro.guest.phases import (
    Acquire,
    BarrierWait,
    Compute,
    Exit,
    Release,
    SemAcquire,
    SemRelease,
    Sleep,
    WaitEvent,
)
from repro.guest.thread import GuestThread, ThreadState
from repro.hardware.cache import (
    estimate_duration_ns,
    integrate_duration,
)
from repro.hardware.specs import MachineSpec, i7_3770
from repro.hardware.topology import PCpu, Topology
from repro.hypervisor.credit import CreditParams, CreditScheduler, RunQueue
from repro.hypervisor.event_channel import EventPort
from repro.hypervisor.pools import CpuPool, PoolPlan
from repro.hypervisor.vm import VM, Priority, VCpu, VCpuState
from repro.sim.engine import Simulator, whole_ns
from repro.sim.rng import RngFactory
from repro.sim.units import MS
from repro.telemetry import PoolChange, Telemetry

#: A compute phase with fewer remaining instructions than this is done.
_PHASE_DONE_TOLERANCE = 0.5
#: Never schedule a completion event closer than this (avoids event storms
#: when an estimate rounds to ~zero).
_MIN_COMPLETION_DELAY_NS = 200
#: Enum members as module constants: reading one off its class goes
#: through the Enum metaclass (~0.1 us on CPython 3.11), and the segment
#: path tests several states per quantum.
_VCPU_RUNNING = VCpuState.RUNNING
_VCPU_RUNNABLE = VCpuState.RUNNABLE
_VCPU_BLOCKED = VCpuState.BLOCKED
_THREAD_RUNNING = ThreadState.RUNNING
_THREAD_SPINNING = ThreadState.SPINNING
_BOOST = Priority.BOOST


def check_cache_substeps(value: object) -> None:
    """Reject a sub-step count the LLC kernel cannot integrate with.

    Zero divides by zero in ``integrate_duration``; a negative count
    silently integrates nothing.
    """
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ValueError(f"cache_substeps must be an int >= 1, got {value!r}")


class PCpuContext:
    """Scheduling state the hypervisor keeps per physical core."""

    __slots__ = (
        "pcpu", "pool", "current", "runq", "tick_event", "tick_fn", "offline",
        "slice_span",
    )

    def __init__(self, pcpu: PCpu, pool: CpuPool) -> None:
        self.pcpu = pcpu
        self.pool = pool
        self.current: Optional[VCpu] = None
        self.runq = RunQueue()
        #: the pending 10 ms tick, cancelled while the pCPU is offline
        self.tick_event = None
        #: the tick callback, built once — re-arming a tick every 10 ms
        #: must not allocate a fresh closure each time
        self.tick_fn = None
        self.offline = False
        #: the open telemetry quantum-slice span, when telemetry is on
        self.slice_span = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        cur = self.current.name if self.current else "idle"
        return f"<ctx {self.pcpu!r} {cur} q={len(self.runq)}>"


class Machine:
    """A virtualized multi-core machine under the Credit scheduler."""

    def __init__(
        self,
        spec: Optional[MachineSpec] = None,
        *,
        seed: int = 0,
        default_quantum_ns: int = 30 * MS,
        boost_enabled: bool = True,
        tick_ns: int = 10 * MS,
        accounting_ns: int = 30 * MS,
        telemetry: Optional[Telemetry] = None,
        cache_substeps: int = 8,
    ):
        self.spec = spec or i7_3770()
        self.sim = Simulator()
        self.topology = Topology(self.spec)
        self.rng = RngFactory(seed)
        # compare with None, not truthiness; the disabled default
        # keeps every emit site down to one attribute check
        self.telemetry = (
            telemetry if telemetry is not None else Telemetry(enabled=False)
        )
        self.sim.telemetry = self.telemetry
        self.params = CreditParams(
            tick_ns=tick_ns,
            accounting_ns=accounting_ns,
            boost_enabled=boost_enabled,
        )
        check_cache_substeps(cache_substeps)
        self.cache_substeps = cache_substeps
        self._llc_hit_ns = self.spec.llc.hit_ns
        self._llc_miss_ns = self.spec.llc.miss_ns

        self.pools: list[CpuPool] = []
        self._next_pool_id = 0
        self.default_pool = self.create_pool(
            "pool0", self.topology.pcpus, default_quantum_ns
        )
        self.contexts: dict[PCpu, PCpuContext] = {
            pcpu: PCpuContext(pcpu, self.default_pool)
            for pcpu in self.topology.pcpus
        }
        self.scheduler = CreditScheduler(self, self.params)

        self.vms: list[VM] = []
        #: VMs removed by :meth:`shutdown_vm`; kept so post-mortem
        #: accounting (instruction totals, invariant checks) still sees
        #: their threads and counters
        self.retired_vms: list[VM] = []
        self._next_vcpu_id = 0
        self._next_vm_id = 0
        self._started = False
        #: runnable vCPUs parked by cap throttling, re-queued at the
        #: next accounting once their VM is under its cap again
        self._parked: list[VCpu] = []
        #: pCPUs removed by fault injection (:meth:`offline_pcpu`)
        self.offline_pcpus: set[PCpu] = set()
        #: the most recently installed PoolPlan (None until the first
        #: apply_pool_plan) — invariant checks compare live pool quanta
        #: against it
        self.last_plan: Optional[PoolPlan] = None
        #: machine-wide count of vCPU pool moves (plan migrations plus
        #: fault-driven re-absorptions) — the adaptation-metrics layer
        #: reads deltas of this around churn events
        self.migrations_total = 0

    # ==================================================================
    # construction API
    # ==================================================================
    def create_pool(
        self, name: str, pcpus: Iterable[PCpu], quantum_ns: int
    ) -> CpuPool:
        """Create a pool, taking ownership of ``pcpus`` from their old pools."""
        pool = CpuPool(self._next_pool_id, name, quantum_ns)
        self._next_pool_id += 1
        contexts = getattr(self, "contexts", None)
        for pcpu in pcpus:
            for other in self.pools:
                if pcpu in other.pcpus:
                    other.remove_pcpu(pcpu)
            pool.add_pcpu(pcpu)
            if contexts is not None and pcpu in contexts:
                contexts[pcpu].pool = pool
        self.pools.append(pool)
        return pool

    def new_vm(
        self,
        name: str,
        vcpus: int = 1,
        weight: int = 256,
        cap: Optional[int] = None,
        pool: Optional[CpuPool] = None,
    ) -> VM:
        """Create a VM, attach a guest OS, place its vCPUs in ``pool``."""
        vm = VM(
            self._next_vm_id,
            name,
            vcpus,
            weight=weight,
            cap=cap,
            first_vcpu_id=self._next_vcpu_id,
        )
        self._next_vm_id += 1
        self._next_vcpu_id += vcpus
        vm.guest = GuestOS(vm)
        target = pool or self.default_pool
        for vcpu in vm.vcpus:
            target.add_vcpu(vcpu)
        self.vms.append(vm)
        return vm

    def new_port(self, vcpu: VCpu, name: str) -> EventPort:
        port = EventPort(name, vcpu, self.wake_vcpu, self.guest_interrupt)
        vcpu.vm.ports.append(port)
        return port

    @property
    def all_vcpus(self) -> list[VCpu]:
        return [vcpu for vm in self.vms for vcpu in vm.vcpus]

    @property
    def online_pcpus(self) -> list[PCpu]:
        return [p for p in self.topology.pcpus if p not in self.offline_pcpus]

    # ==================================================================
    # running
    # ==================================================================
    def start(self) -> None:
        """Arm ticks/accounting and wake every vCPU with runnable work."""
        if self._started:
            return
        self._started = True
        for pcpu in self.topology.pcpus:
            ctx = self.contexts[pcpu]
            if not ctx.offline:
                self._schedule_tick(ctx)
        self._schedule_accounting()
        for vcpu in self.all_vcpus:
            guest = vcpu.vm.guest
            if guest is not None and guest.has_runnable(vcpu):
                self.wake_vcpu(vcpu)

    def boot_vm(self, vm: VM) -> None:
        """Hot-add: wake a freshly-installed VM on a running machine.

        ``new_vm`` + workload install only create blocked vCPUs; before
        :meth:`start` that is fine (start wakes everything), but a VM
        booted mid-run needs this explicit nudge.
        """
        if not self._started:
            return
        for vcpu in vm.vcpus:
            guest = vcpu.vm.guest
            if guest is not None and guest.has_runnable(vcpu):
                self.wake_vcpu(vcpu)

    def run(self, duration_ns: int) -> None:
        """Advance virtual time by ``duration_ns``.

        The duration follows the clock's rule (:meth:`Simulator.at`):
        integral floats are accepted, anything else raises
        ``SimulationError`` before the machine starts.
        """
        whole = whole_ns(duration_ns, "duration", "Machine.run")
        if not self._started:
            self.start()
        self.sim.run_until(self.sim.now + whole)

    def sync(self) -> None:
        """Integrate every running vCPU up to 'now'.

        Monitors call this before reading counters so that deltas cover
        exactly one period.
        """
        for ctx in self.contexts.values():
            if ctx.current is not None:
                self._integrate(ctx.current)

    def every(
        self, period_ns: int, fn: Callable[[], None], label: str = "periodic"
    ) -> None:
        """Invoke ``fn`` every ``period_ns`` of virtual time, forever."""
        # a zero period re-arms at the same instant and never returns
        if not period_ns > 0:
            raise ValueError(f"period_ns must be positive, got {period_ns!r}")

        def fire() -> None:
            fn()
            self.sim.after(period_ns, fire, label)

        self.sim.after(period_ns, fire, label)

    # ==================================================================
    # scheduler entry points
    # ==================================================================
    def wake_vcpu(self, vcpu: VCpu) -> None:
        """An event made ``vcpu`` runnable (IO arrival, sleep expiry)."""
        if vcpu.state != _VCPU_BLOCKED:
            return
        guest = vcpu.vm.guest
        if guest is None or not guest.has_runnable(vcpu):
            return
        if vcpu.throttled:
            vcpu.state = _VCPU_RUNNABLE
            self._parked.append(vcpu)
            return
        if self.scheduler.boost_eligible(vcpu):
            vcpu.priority = _BOOST
        else:
            vcpu.priority = self.scheduler.priority_for(vcpu)
        ctx = self.scheduler.enqueue(vcpu, front=vcpu.priority == _BOOST)
        if self.telemetry.enabled:
            vcpu.woke_ns = self.sim.now
            self.telemetry.registry.counter("wakes", vcpu=vcpu.name).inc()
            if vcpu.priority == _BOOST:
                self.telemetry.registry.counter("boost_wakes").inc()
        self._kick(ctx)

    def _kick(self, ctx: PCpuContext) -> None:
        """Dispatch if idle; preempt if a strictly better vCPU is queued."""
        if ctx.current is None:
            self._reschedule(ctx)
            return
        best = ctx.runq.best_priority()
        if best is not None and best < ctx.current.priority:
            self._reschedule(ctx, requeue_front=True)

    # ==================================================================
    # dispatch / deschedule
    # ==================================================================
    def _close_slice(self, ctx: PCpuContext, reason: str) -> None:
        """End the open quantum-slice span of ``ctx`` (telemetry on)."""
        span = ctx.slice_span
        if span is None:
            return
        ctx.slice_span = None
        self.telemetry.tracer.end(self.sim.now, span, reason=reason)
        self.telemetry.registry.histogram("slice_ns").observe(
            float(span.duration_ns)
        )

    def _reschedule(self, ctx: PCpuContext, requeue_front: bool = False) -> None:
        current = ctx.current
        if current is not None:
            self._integrate(current)
            self._cancel_events(current)
            current.state = _VCPU_RUNNABLE
            current.pcpu = None
            current.segment_kind = None
            ctx.current = None
            current.priority = self.scheduler.priority_for(current)
            if self.telemetry.enabled:
                self._close_slice(
                    ctx,
                    "preempt" if current.exhausted_last_quantum else "resched",
                )
            if current.throttled:
                self._parked.append(current)
            else:
                ctx.runq.push(current, front=requeue_front)
        nxt = self.scheduler.pick_next(ctx)
        if nxt is not None:
            self._dispatch(ctx, nxt)

    def _dispatch(self, ctx: PCpuContext, vcpu: VCpu) -> None:
        vcpu.state = _VCPU_RUNNING
        vcpu.pcpu = ctx.pcpu
        vcpu.last_pcpu = ctx.pcpu
        vcpu.dispatch_count += 1
        vcpu.exhausted_last_quantum = False
        ctx.current = vcpu
        quantum = vcpu.quantum_override or ctx.pool.quantum_ns
        expire = vcpu.expiry_fn
        if expire is None:
            expire = vcpu.expiry_fn = partial(self._on_quantum_expire, vcpu)
        vcpu.quantum_event = self.sim.after(quantum, expire, "quantum")
        vcpu.segment_start = self.sim.now
        if self.telemetry.enabled:
            self.telemetry.registry.counter("dispatches", vcpu=vcpu.name).inc()
            ctx.slice_span = self.telemetry.tracer.begin(
                self.sim.now,
                vcpu.name,
                track=f"pcpu{ctx.pcpu.cpu_id}",
                category="quantum_slice",
                quantum_ns=quantum,
                pool=ctx.pool.name,
            )
            if vcpu.woke_ns is not None:
                ctx.slice_span.args["woke_ns"] = vcpu.woke_ns
                vcpu.woke_ns = None
        self._start_segment(vcpu)

    def _on_quantum_expire(self, vcpu: VCpu) -> None:
        # every deschedule cancels the expiry, so a live one finds its
        # vCPU on the pCPU it was dispatched on
        pcpu = vcpu.pcpu
        if pcpu is None:  # stale event
            return
        ctx = self.contexts[pcpu]
        if ctx.current is not vcpu:  # stale event
            return
        vcpu.exhausted_last_quantum = True
        if self.telemetry.enabled:
            self.telemetry.registry.counter("preempts", vcpu=vcpu.name).inc()
        self._reschedule(ctx)

    def _deschedule_current(self, ctx: PCpuContext) -> Optional[VCpu]:
        """Strip the running vCPU off ``ctx`` with exact integration.

        The vCPU is left RUNNABLE but *not* re-queued — callers
        (shutdown, fault injection, plan application) decide where it
        goes next.  Returns it, or None if the pCPU was idle.
        """
        current = ctx.current
        if current is None:
            return None
        self._integrate(current)
        self._cancel_events(current)
        current.state = _VCPU_RUNNABLE
        current.priority = self.scheduler.priority_for(current)
        current.pcpu = None
        current.segment_kind = None
        ctx.current = None
        if self.telemetry.enabled:
            self._close_slice(ctx, "desched")
        return current

    def _block_vcpu(self, vcpu: VCpu) -> None:
        """No runnable guest thread: give up the pCPU."""
        assert vcpu.pcpu is not None
        ctx = self.contexts[vcpu.pcpu]
        self._integrate(vcpu)
        self._cancel_events(vcpu)
        vcpu.state = _VCPU_BLOCKED
        vcpu.exhausted_last_quantum = False  # voluntary yield: BOOST-eligible
        vcpu.pcpu = None
        vcpu.segment_kind = None
        vcpu.current_thread = None
        ctx.current = None
        if self.telemetry.enabled:
            self.telemetry.registry.counter("blocks", vcpu=vcpu.name).inc()
            self._close_slice(ctx, "block")
        self._reschedule(ctx)

    def _cancel_events(self, vcpu: VCpu) -> None:
        if vcpu.quantum_event is not None:
            vcpu.quantum_event.cancel()
            vcpu.quantum_event = None
        if vcpu.completion_event is not None:
            vcpu.completion_event.cancel()
            vcpu.completion_event = None

    # ==================================================================
    # phase interpretation
    # ==================================================================
    def _start_segment(self, vcpu: VCpu) -> None:
        """Interpret guest phases until one occupies the CPU (or blocks).

        Zero-duration phases (lock ops, event consumption, sleeps,
        exits) resolve inline; the loop ends when a compute or spin
        phase begins, or the vCPU blocks for lack of runnable threads.
        """
        assert vcpu.pcpu is not None
        guest = vcpu.vm.guest
        assert guest is not None
        now = self.sim.now
        vcpu.segment_start = now
        vcpu.segment_kind = None
        while True:
            if vcpu.state != _VCPU_RUNNING or vcpu.pcpu is None:
                return  # a phase handler's side effect descheduled us
            thread = guest.maybe_rotate(vcpu)
            if thread is None:
                self._block_vcpu(vcpu)
                return
            vcpu.current_thread = thread
            phase = thread.phase
            if phase is None:
                phase = thread.current_phase()

            # exact types, not isinstance: the concrete phases are final
            # (guest/phases.py), and Compute is by far the most frequent
            if type(phase) is Compute:
                if thread.started_at is None:
                    thread.started_at = now
                thread.state = _THREAD_RUNNING
                vcpu.segment_kind = "compute"
                # a thread that changed socket leaves a stale LLC
                # footprint behind
                socket = vcpu.pcpu.socket
                last_socket = thread.last_socket
                if last_socket is not None and last_socket is not socket:
                    last_socket.llc.evict_actor(thread)
                thread.last_socket = socket
                self._arm_completion(vcpu, thread, phase)
                return

            if type(phase) is Acquire:
                if phase.requested_at is None:
                    phase.requested_at = now
                if phase.lock.try_acquire(thread, now):
                    vcpu.vm.spin_notifications += 1.0
                    thread.advance_phase()
                    continue
                self._enter_spin(vcpu, thread)
                return

            if type(phase) is Release:
                beneficiary = phase.lock.release(thread, now)
                thread.advance_phase()
                if beneficiary is not None:
                    self._poke_spinner(beneficiary)
                continue

            if type(phase) is SemAcquire:
                if phase.granted:
                    # a releaser handed us the unit while we slept
                    phase.semaphore.grant_to(thread, now)
                    phase.granted = False
                    thread.advance_phase()
                    continue
                if phase.semaphore.try_acquire(thread, now):
                    thread.advance_phase()
                    continue
                guest.thread_blocked(thread)
                continue  # blocked: try another thread on this vCPU

            if type(phase) is SemRelease:
                waiter = phase.semaphore.release(thread, now)
                thread.advance_phase()
                if waiter is not None:
                    waiter_phase = waiter.phase
                    assert isinstance(waiter_phase, SemAcquire)
                    waiter_phase.granted = True
                    # defer the wake-up one event-loop turn: waking
                    # synchronously could BOOST-preempt *this* vCPU
                    # while its segment is still being set up
                    self.sim.after(
                        0,
                        lambda w=waiter: self._thread_timer_wake(w),
                        "sem-wake",
                    )
                continue

            if type(phase) is BarrierWait:
                barrier = phase.barrier
                if phase.generation is None:
                    released = barrier.arrive(thread)
                    if released is not None:
                        # this arrival completed the round
                        thread.advance_phase()
                        for waiter in released:
                            self._poke_spinner(waiter)
                        continue
                    phase.generation = barrier.generation
                    self._enter_spin(vcpu, thread)
                    return
                if barrier.generation != phase.generation:
                    # released while this vCPU was off-CPU or spinning
                    thread.advance_phase()
                    continue
                self._enter_spin(vcpu, thread)  # still waiting
                return

            if type(phase) is WaitEvent:
                ok, payload = phase.port.try_consume()
                if ok:
                    phase.payload = payload
                    thread.advance_phase()
                    continue
                if (
                    phase.port.waiter is not None
                    and phase.port.waiter is not thread
                ):
                    raise RuntimeError(
                        f"{phase.port.name}: one waiter per port "
                        f"({phase.port.waiter!r} already waiting; use one "
                        f"port per server thread)"
                    )
                phase.port.waiter = thread
                guest.thread_blocked(thread)
                continue  # try another thread on this vCPU

            if type(phase) is Sleep:
                if phase.expired:
                    thread.advance_phase()
                    continue
                if not phase.started:
                    phase.started = True
                    guest.thread_blocked(thread)
                    self.sim.after(
                        phase.duration_ns,
                        lambda t=thread, p=phase: self._sleep_expired(t, p),
                        "sleep",
                    )
                else:  # spurious visit while still sleeping
                    guest.thread_blocked(thread)
                continue

            if type(phase) is Exit:
                thread.finished_at = now
                guest.thread_exited(thread)
                continue

            raise TypeError(f"unknown phase {phase!r}")

    def _enter_spin(self, vcpu: VCpu, thread: GuestThread) -> None:
        if thread.started_at is None:
            thread.started_at = self.sim.now
        thread.state = _THREAD_SPINNING
        vcpu.segment_kind = "spin"
        vcpu.segment_start = self.sim.now
        # No completion event: the spin ends when the holder releases
        # (poke) or when this vCPU is preempted.

    def _arm_completion(self, vcpu: VCpu, thread: GuestThread, phase: Compute) -> None:
        """(Re-)arm the event that ends ``phase`` at its estimated finish.

        No event is queued when the finish falls at or after the live
        quantum expiry: the expiry was queued first (lower seq), so it
        fires first and its reschedule would cancel the completion.  An
        event cancelled before it fires is unobservable, and a skipped
        push shifts every later seq by the same amount, so the
        ``(time, seq)`` order of live events is unchanged (DESIGN §9).

        The LLC-free time ``lower = int(remaining * base_cpi_ns)`` is a
        lower bound of the estimate (its LLC term is non-negative and
        rounding is monotone), so when even that reaches the expiry the
        estimate is never computed.  A profile with ``llc_ref_rate ==
        0.0`` makes the LLC term ``0.0 * finite``, so the estimate is
        ``lower`` exactly and is not computed either.

        The event's callback is the vCPU's one ``completion_fn``; the
        ``(thread, phase)`` it ends are recorded on the vCPU, which is
        sound because a vCPU has at most one live completion: any
        earlier one is cancelled here first (DESIGN §9).
        """
        completion = vcpu.completion_event
        if completion is not None:
            completion.cancel()
            vcpu.completion_event = None
        # GuestThread.effective_profile, inlined: ``phase`` is the
        # thread's current phase
        profile = phase.profile
        if profile is None:
            profile = thread.profile
        remaining = phase.remaining
        sim = self.sim
        expiry = vcpu.quantum_event
        if expiry is not None and expiry.cancelled:
            expiry = None
        lower = int(remaining * profile.base_cpi_ns)
        if expiry is not None and sim.now + lower >= expiry.time:
            return
        if profile.llc_ref_rate == 0.0:
            delay = lower
        else:
            assert vcpu.pcpu is not None
            delay = int(
                estimate_duration_ns(
                    vcpu.pcpu.socket.llc,
                    thread,
                    profile,
                    remaining,
                    self._llc_hit_ns,
                    self._llc_miss_ns,
                )
            )
        if delay < _MIN_COMPLETION_DELAY_NS:
            delay = _MIN_COMPLETION_DELAY_NS
        if expiry is not None and sim.now + delay >= expiry.time:
            return
        complete = vcpu.completion_fn
        if complete is None:
            complete = vcpu.completion_fn = partial(self._on_phase_complete, vcpu)
        vcpu.armed_thread = thread
        vcpu.armed_phase = phase
        vcpu.completion_event = sim.after(delay, complete, "compute-done")

    def _on_phase_complete(self, vcpu: VCpu) -> None:
        thread = vcpu.armed_thread
        phase = vcpu.armed_phase
        if (
            thread is None
            or phase is None
            or vcpu.current_thread is not thread
            or thread.phase is not phase
        ):
            return  # stale event
        if vcpu.state != _VCPU_RUNNING:
            return
        self._integrate(vcpu)
        vcpu.completion_event = None
        if phase.remaining <= _PHASE_DONE_TOLERANCE:
            phase.remaining = 0.0
            thread.advance_phase()
            self._start_segment(vcpu)
        else:
            # the cache was colder than estimated: keep going
            self._arm_completion(vcpu, thread, phase)

    # ==================================================================
    # spin-lock wiring
    # ==================================================================
    def _poke_spinner(self, thread: GuestThread) -> None:
        """A lock was granted to ``thread``; stop its spin if it is on-CPU.

        If its vCPU is descheduled the grant sits until that vCPU runs —
        the lock-waiter-preemption stall the paper measures.
        """
        vcpu = thread.vcpu
        if vcpu is None:
            return
        if (
            thread.state == _THREAD_SPINNING
            and vcpu.state == _VCPU_RUNNING
            and vcpu.current_thread is thread
        ):
            self._integrate(vcpu)
            self._start_segment(vcpu)

    def guest_interrupt(self, vcpu: VCpu, thread: GuestThread) -> None:
        """An event arrived for ``thread`` while its vCPU is not blocked.

        The guest OS switches to the handler thread: immediately if the
        vCPU holds a pCPU (integrate, switch, restart the segment), or
        by re-ordering the guest run queue so the handler runs first at
        the next dispatch.
        """
        guest = vcpu.vm.guest
        assert guest is not None
        if vcpu.state == _VCPU_RUNNING:
            if vcpu.current_thread is thread:
                return
            self._integrate(vcpu)
            if guest.preempt_to(vcpu, thread):
                if vcpu.completion_event is not None:
                    vcpu.completion_event.cancel()
                    vcpu.completion_event = None
                self._start_segment(vcpu)
        else:
            guest.preempt_to(vcpu, thread)

    def _sleep_expired(self, thread: GuestThread, phase: Sleep) -> None:
        phase.expired = True
        self._thread_timer_wake(thread)

    def _thread_timer_wake(self, thread: GuestThread) -> None:
        vcpu = thread.vcpu
        if vcpu is None or thread.done or not vcpu.vm.alive:
            return  # sleep/sem timers routinely outlive a shut-down VM
        guest = vcpu.vm.guest
        assert guest is not None
        if guest.thread_ready(thread):
            if vcpu.state == _VCPU_BLOCKED:
                self.wake_vcpu(vcpu)

    # ==================================================================
    # integration
    # ==================================================================
    def _integrate(self, vcpu: VCpu) -> None:
        """Account the elapsed run segment of a RUNNING vCPU."""
        now = self.sim.now
        elapsed = now - vcpu.segment_start
        kind = vcpu.segment_kind
        if elapsed <= 0 or kind is None:
            vcpu.segment_start = now
            return
        thread = vcpu.current_thread
        assert thread is not None and vcpu.pcpu is not None
        guest = vcpu.vm.guest
        assert guest is not None
        run_ns = float(elapsed)

        if kind == "compute":
            # GuestThread.effective_profile, inlined
            phase = thread.phase
            profile = phase.profile if type(phase) is Compute else None
            if profile is None:
                profile = thread.profile
            segment = integrate_duration(
                vcpu.pcpu.socket.llc,
                thread,
                profile,
                run_ns,
                self._llc_hit_ns,
                self._llc_miss_ns,
                self.cache_substeps,
            )
            instructions = segment.instructions
            # PmuCounters.add_segment, in place
            pmu = vcpu.pmu
            pmu.instructions += instructions
            pmu.llc_refs += segment.llc_refs
            pmu.llc_misses += segment.llc_misses
            thread.instructions_retired += instructions
            if type(phase) is Compute:
                # max(0.0, ...) with the same first-winner result
                remaining = phase.remaining - instructions
                phase.remaining = remaining if remaining > 0.0 else 0.0
        elif kind == "spin":
            # spin time is evidence for the PLE detector, not the PMU: a
            # PAUSE loop retires (essentially) no workload instructions
            # and produces no LLC traffic
            vcpu.ple.note_spin(run_ns)
            thread.spin_ns += elapsed
        else:  # pragma: no cover - defensive
            raise RuntimeError(f"bad segment kind {kind!r}")

        thread.run_ns += elapsed
        guest.note_run(vcpu, elapsed)
        vcpu.run_ns_total += elapsed
        vcpu.run_since_tick += elapsed
        vcpu.run_since_acct += elapsed
        self.scheduler.burn(vcpu, run_ns)
        vcpu.segment_start = now

    # ==================================================================
    # periodic machinery
    # ==================================================================
    def _schedule_tick(self, ctx: PCpuContext) -> None:
        fn = ctx.tick_fn
        if fn is None:
            fn = ctx.tick_fn = lambda: self._on_tick(ctx)
        ctx.tick_event = self.sim.after(self.params.tick_ns, fn, "tick")

    def _on_tick(self, ctx: PCpuContext) -> None:
        if ctx.offline:  # raced with offline_pcpu; do not re-arm
            return
        current = ctx.current
        if current is not None:
            self._integrate(current)
            self.scheduler.on_tick(ctx)
            if ctx.current is current:  # might have changed (defensive)
                best = ctx.runq.best_priority()
                if best is not None and best < current.priority:
                    self._reschedule(ctx)
                else:
                    self._tick_refresh(ctx, current)
        self._schedule_tick(ctx)

    def _tick_refresh(self, ctx: PCpuContext, vcpu: VCpu) -> None:
        """At a tick boundary: rotate guest threads, refresh estimates."""
        guest = vcpu.vm.guest
        assert guest is not None
        thread = vcpu.current_thread
        if thread is not None and thread.state == _THREAD_SPINNING:
            return  # do not disturb a spinner
        rotated = guest.maybe_rotate(vcpu)
        if rotated is not thread:
            if vcpu.completion_event is not None:
                vcpu.completion_event.cancel()
                vcpu.completion_event = None
            self._start_segment(vcpu)
            return
        if thread is not None:
            phase = thread.phase
            if type(phase) is Compute:
                self._arm_completion(vcpu, thread, phase)

    def _schedule_accounting(self) -> None:
        self.sim.after(self.params.accounting_ns, self._on_accounting, "accounting")

    def _on_accounting(self) -> None:
        self.sync()
        self.scheduler.on_accounting(self.all_vcpus)
        # park freshly-throttled vCPUs: running ones are descheduled,
        # queued ones pulled out of their run queues
        for ctx in self.contexts.values():
            if ctx.current is not None and ctx.current.throttled:
                self._reschedule(ctx)
        for vcpu in self.all_vcpus:
            if (
                vcpu.throttled
                and vcpu.state == _VCPU_RUNNABLE
                and vcpu not in self._parked
            ):
                for ctx in self.contexts.values():
                    if ctx.runq.remove(vcpu):
                        break
                self._parked.append(vcpu)
        # un-park vCPUs whose VM is back under its cap
        still_parked: list[VCpu] = []
        for vcpu in self._parked:
            if vcpu.throttled:
                still_parked.append(vcpu)
                continue
            ctx = self.scheduler.enqueue(vcpu)
            self._kick(ctx)
        self._parked = still_parked
        for ctx in self.contexts.values():
            if ctx.current is not None:
                best = ctx.runq.best_priority()
                if best is not None and best < ctx.current.priority:
                    self._reschedule(ctx)
            elif len(ctx.runq):
                self._reschedule(ctx)
        if self.telemetry.enabled:
            self._sample_telemetry()
        self._schedule_accounting()

    def _sample_telemetry(self) -> None:
        """Refresh gauges and push one ring-buffer sample (per accounting)."""
        registry = self.telemetry.registry
        for pool in self.pools:
            if pool.pcpus:
                registry.gauge("pool_load", pool=pool.name).set(pool.load)
            registry.gauge("pool_vcpus", pool=pool.name).set(
                float(len(pool.vcpus))
            )
            registry.gauge("pool_quantum_ns", pool=pool.name).set(
                float(pool.quantum_ns)
            )
        registry.gauge("vms_alive").set(float(len(self.vms)))
        registry.gauge("migrations_total").set(float(self.migrations_total))
        registry.gauge("parked_vcpus").set(float(len(self._parked)))
        registry.sample(self.sim.now)

    # ==================================================================
    # lifecycle: VM teardown and pCPU fault injection
    # ==================================================================
    def shutdown_vm(self, vm: VM) -> None:
        """Tear a VM down cleanly while the machine keeps running.

        Every port is closed (pending events dropped), every vCPU is
        pulled out of whatever scheduler structure holds it (a pCPU,
        a run queue, the cap-parking list), its pool membership is
        dissolved, and a pool left without vCPUs collapses back into
        the default pool.  Stale timers aimed at the VM's threads are
        neutralised by the ``vm.alive`` guard, not by hunting events.
        """
        if vm not in self.vms:
            raise ValueError(f"{vm!r} is not a live VM of this machine")
        for port in vm.ports:
            port.close()
        for vcpu in vm.vcpus:
            if vcpu.state == _VCPU_RUNNING:
                assert vcpu.pcpu is not None
                ctx = self.contexts[vcpu.pcpu]
                self._deschedule_current(ctx)
                self._reschedule(ctx)  # backfill the freed pCPU
            if vcpu.state == _VCPU_RUNNABLE:
                if vcpu in self._parked:
                    self._parked.remove(vcpu)
                else:
                    for ctx in self.contexts.values():
                        if ctx.runq.remove(vcpu):
                            break
            self._cancel_events(vcpu)
            vcpu.state = _VCPU_BLOCKED
            vcpu.current_thread = None
            vcpu.segment_kind = None
            pool = vcpu.pool
            if pool is not None:
                pool.remove_vcpu(vcpu)
                self._maybe_collapse_pool(pool)
        vm.alive = False
        self.vms.remove(vm)
        self.retired_vms.append(vm)
        if self.telemetry.enabled:
            self.telemetry.tracer.instant(
                self.sim.now, "vm-shutdown", track="machine", vm=vm.name
            )
            self.telemetry.registry.counter("vm_shutdowns").inc()

    def _record_pool_change(self, kind: str, detail: str) -> None:
        """Append the current pool layout to the telemetry ledger."""
        self.telemetry.audit.record_pool_change(
            PoolChange(
                time_ns=self.sim.now,
                kind=kind,
                detail=detail,
                migrations_total=self.migrations_total,
                pools=tuple(p.describe() for p in self.pools),
            )
        )

    def _maybe_collapse_pool(self, pool: CpuPool) -> None:
        """An emptied non-default pool returns its pCPUs to the default."""
        if pool is self.default_pool or pool.vcpus or pool not in self.pools:
            return
        for pcpu in pool.release_pcpus():
            self.default_pool.add_pcpu(pcpu)
            self.contexts[pcpu].pool = self.default_pool
        self.pools.remove(pool)
        if self.telemetry.enabled:
            self._record_pool_change(
                "collapse", f"{pool.name} emptied into {self.default_pool.name}"
            )

    def offline_pcpu(self, pcpu: PCpu) -> None:
        """Fault injection: a pCPU disappears mid-run.

        Whoever runs or queues there is displaced and re-queued on the
        pool's surviving pCPUs; if the pool just lost its last pCPU its
        vCPUs are re-absorbed by the least-loaded pool that still owns
        cores.  The pCPU's tick is cancelled so it costs nothing while
        dark.
        """
        if pcpu in self.offline_pcpus:
            raise ValueError(f"{pcpu!r} is already offline")
        if len(self.online_pcpus) <= 1:
            raise ValueError("cannot offline the last online pCPU")
        ctx = self.contexts[pcpu]
        pool = ctx.pool
        displaced: list[VCpu] = []
        current = self._deschedule_current(ctx)
        if current is not None:
            displaced.append(current)
        displaced.extend(ctx.runq.drain())
        if pcpu in pool.pcpus:
            pool.remove_pcpu(pcpu)
        self.offline_pcpus.add(pcpu)
        ctx.offline = True
        if ctx.tick_event is not None:
            ctx.tick_event.cancel()
            ctx.tick_event = None
        if not pool.pcpus and pool.vcpus:
            # the pool lost its last core: its vCPUs must live elsewhere
            refuge = self._absorbing_pool()
            for vcpu in pool.release_vcpus():
                refuge.add_vcpu(vcpu)
                vcpu.migrations += 1
                self.migrations_total += 1
            if pool in self.pools and pool is not self.default_pool:
                self.pools.remove(pool)
            if self.telemetry.enabled:
                self._record_pool_change(
                    "absorb", f"{pool.name} orphans absorbed by {refuge.name}"
                )
        for vcpu in displaced:
            if vcpu.throttled:
                if vcpu not in self._parked:
                    self._parked.append(vcpu)
                continue
            target = self.scheduler.enqueue(vcpu)
            self._kick(target)
        if self.telemetry.enabled:
            self.telemetry.tracer.instant(
                self.sim.now, "pcpu-offline", track="machine",
                pcpu=pcpu.cpu_id,
            )
            self.telemetry.registry.counter("pcpu_offlines").inc()
            self._record_pool_change(
                "offline", f"pcpu{pcpu.cpu_id} left {pool.name}"
            )

    def _absorbing_pool(self) -> CpuPool:
        """Where orphaned vCPUs go: the least-loaded pool with cores."""
        candidates = [p for p in self.pools if p.pcpus]
        if not candidates:
            raise RuntimeError("no pool with an online pCPU left")
        return min(candidates, key=lambda p: (p.load, p.pool_id))

    def online_pcpu(
        self, pcpu: PCpu, pool: Optional[CpuPool] = None
    ) -> None:
        """Bring a failed pCPU back, attaching it to ``pool``.

        Without an explicit pool the core joins the most loaded pool
        that has vCPUs to relieve (AQL's next decision re-places it
        anyway); its tick restarts and it immediately steals work.
        """
        if pcpu not in self.offline_pcpus:
            raise ValueError(f"{pcpu!r} is not offline")
        self.offline_pcpus.discard(pcpu)
        ctx = self.contexts[pcpu]
        ctx.offline = False
        target = pool
        if target is None:
            loaded = [p for p in self.pools if p.vcpus and p.pcpus]
            if loaded:
                target = max(
                    loaded, key=lambda p: (p.load, -p.pool_id)
                )
            else:
                target = self.default_pool
        target.add_pcpu(pcpu)
        ctx.pool = target
        if self._started:
            self._schedule_tick(ctx)
            self._reschedule(ctx)  # work-steal from pool siblings now
        if self.telemetry.enabled:
            self.telemetry.tracer.instant(
                self.sim.now, "pcpu-online", track="machine",
                pcpu=pcpu.cpu_id,
            )
            self.telemetry.registry.counter("pcpu_onlines").inc()
            self._record_pool_change(
                "online", f"pcpu{pcpu.cpu_id} joined {target.name}"
            )

    # ==================================================================
    # pool reconfiguration (what AQL drives)
    # ==================================================================
    def apply_pool_plan(self, plan: PoolPlan) -> None:
        """Atomically install a new pool layout.

        Every running vCPU is descheduled (with exact integration), all
        queues drained, pools rebuilt, and every runnable vCPU re-queued
        in its new pool.  Blocked vCPUs simply change pool membership.
        Offline pCPUs are outside the plan's world: it must cover
        exactly the online ones.
        """
        plan.validate(self.online_pcpus, self.all_vcpus)
        self.sync()

        old_pool_pcpus = {
            vcpu: tuple(vcpu.pool.pcpus) if vcpu.pool else ()
            for vcpu in self.all_vcpus
        }

        runnable: list[VCpu] = []
        for ctx in self.contexts.values():
            current = self._deschedule_current(ctx)
            if current is not None:
                runnable.append(current)
            runnable.extend(ctx.runq.drain())

        self.pools = []
        for name, pcpus, quantum_ns, vcpus in plan.entries:
            pool = self.create_pool(name, pcpus, quantum_ns)
            for pcpu in pcpus:
                self.contexts[pcpu].pool = pool
            for vcpu in vcpus:
                pool.add_vcpu(vcpu)
                if tuple(pool.pcpus) != old_pool_pcpus[vcpu]:
                    vcpu.migrations += 1
                    self.migrations_total += 1
        if self.pools:
            self.default_pool = self.pools[0]
        self.last_plan = plan

        for vcpu in runnable:
            if vcpu.throttled:
                if vcpu not in self._parked:
                    self._parked.append(vcpu)
                continue
            self.scheduler.enqueue(vcpu)
        for ctx in self.contexts.values():
            if ctx.current is None and len(ctx.runq):
                self._reschedule(ctx)
        if self.telemetry.enabled:
            self.telemetry.registry.counter("pool_plans_applied").inc()
            self.telemetry.tracer.instant(
                self.sim.now, "pool-plan", track="machine", pools=len(plan)
            )
            self._record_pool_change(
                "plan",
                ", ".join(
                    f"{name}(q={q // MS}ms,{len(ps)}p,{len(vs)}v)"
                    for name, ps, q, vs in plan.entries
                ),
            )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Machine {self.spec.name} t={self.sim.now} vms={len(self.vms)} "
            f"pools={len(self.pools)}>"
        )


__all__ = ["Machine", "PCpuContext", "check_cache_substeps"]
