#!/usr/bin/env python3
"""Watch vTRS re-type a vCPU whose workload changes behaviour.

The paper's argument for *online* recognition (§3.3): "the hypothesis
of a fixed type for a VM vCPU during its overall lifetime is not
realistic".  This example runs a VM whose single vCPU alternates
between a trashing phase (mcf-like), an L2-resident phase (sjeng-like)
and an IO phase — and prints the cursor window plus the detected type
every few monitoring periods.

Run:  python examples/online_recognition.py
"""

from repro import Machine, VTRS
from repro.core.types import VCpuType
from repro.guest.phases import Compute, WaitEvent
from repro.guest.thread import GuestThread
from repro.sim.units import MS
from repro.workloads.profiles import llco_profile, lolcf_profile


def main() -> None:
    machine = Machine(seed=3)
    pool = machine.create_pool("p", machine.topology.pcpus[:1], 30 * MS)
    vm = machine.new_vm("shape-shifter", 1, pool=pool)

    spec = machine.spec
    port = machine.new_port(vm.vcpus[0], "io")

    def reply_then_next_request():
        """Closed-loop client: next request 5 ms after each response."""
        machine.sim.after(5 * MS, lambda: port.post(machine.sim.now))

    def body(thread):
        while True:
            # ~1 s of trashing
            yield Compute(600_000_000, profile=llco_profile(spec))
            # ~1 s of L2-resident compute
            yield Compute(3_000_000_000, profile=lolcf_profile(spec))
            # ~1 s of IO handling (closed loop: requests only flow
            # while the worker is in its IO phase)
            for _ in range(150):
                wait = WaitEvent(port)
                yield wait
                yield Compute(100_000)
                reply_then_next_request()

    vm.guest.add_thread(GuestThread("worker", body), vm.vcpus[0])
    machine.sim.after(1 * MS, lambda: port.post(machine.sim.now))

    vtrs = VTRS(machine).attach()
    machine.start()

    print(f"{'time':>8}  {'detected':10}  cursor averages")
    for step in range(30):
        machine.run(120 * MS)  # one vTRS decision window
        vcpu = vm.vcpus[0]
        detected = vtrs.type_of(vcpu)
        averages = vtrs.cursor_averages(vcpu)
        rendered = "  ".join(
            f"{t.value}:{averages[t]:5.1f}" for t in VCpuType
        )
        print(f"{machine.sim.now / 1e9:7.2f}s  {str(detected):10}  {rendered}")


if __name__ == "__main__":
    main()
