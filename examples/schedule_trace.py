#!/usr/bin/env python3
"""Visualise what the scheduler actually did: a terminal Gantt chart.

Records a small consolidated host's telemetry spans for half a second
under the default 30 ms quantum and again under a 5 ms quantum,
rebuilds each pCPU's schedule from the quantum-slice spans, and draws
both — the quantum length is immediately visible
in the stripe widths, and the IO vCPU's BOOST preemptions show up as
thin slivers inside the hogs' slots.

Run:  python examples/schedule_trace.py
"""

from repro.guest.phases import Compute, WaitEvent
from repro.guest.thread import GuestThread
from repro.hypervisor.machine import Machine
from repro.metrics.timeline import (
    build_timeline,
    render_gantt,
    scheduling_delays,
)
from repro.sim.units import MS
from repro.telemetry import Telemetry
from repro.workloads.profiles import llcf_profile, lolcf_profile


def run(quantum_ns: int) -> None:
    machine = Machine(
        seed=11,
        default_quantum_ns=quantum_ns,
        telemetry=Telemetry(enabled=True),
    )
    pool = machine.create_pool("p", machine.topology.pcpus[:2], quantum_ns)
    spec = machine.spec

    profiles = [llcf_profile(spec), lolcf_profile(spec)]
    for i in range(5):
        vm = machine.new_vm(f"hog{i}", 1, pool=pool)

        def hog(thread, p=profiles[i % 2]):
            while True:
                yield Compute(5_000_000, profile=p)

        vm.guest.add_thread(GuestThread(f"h{i}", hog))

    io_vm = machine.new_vm("io", 1, pool=pool)
    port = machine.new_port(io_vm.vcpus[0], "port")

    def server(thread):
        while True:
            yield WaitEvent(port)
            yield Compute(50_000)

    io_vm.guest.add_thread(GuestThread("srv", server))

    def send():
        port.post(machine.sim.now)
        machine.sim.after(20 * MS, send)

    machine.sim.after(3 * MS, send)
    machine.run(500 * MS)

    timeline = build_timeline(machine.telemetry.tracer, machine.sim.now)
    print(f"\n--- quantum = {quantum_ns // MS} ms ---")
    print(render_gantt(timeline, start=100 * MS, end=400 * MS, width=100))
    delays = scheduling_delays(timeline, "io/v0")
    if delays:
        mean = sum(delays) / len(delays)
        print(f"io vCPU wake-to-dispatch: mean {mean / 1e3:.1f} us "
              f"over {len(delays)} wakes (BOOST at work)")


def main() -> None:
    run(30 * MS)
    run(5 * MS)


if __name__ == "__main__":
    main()
