"""IO-intensive workloads: closed-loop request/response services.

Models the paper's two IOInt flavours (Fig. 2a/2b):

* **exclusive** — the handler does almost no CPU work per request and
  blocks between requests, so Credit's BOOST fast-path fires on every
  arrival and latency is quantum-agnostic;
* **heterogeneous** — the WordPress case: the same vCPU serves light
  web requests *and* runs CGI-like CPU work.  The CGI component keeps
  the vCPU busy, so it exhausts every quantum, loses BOOST eligibility,
  and a light request arriving while the vCPU is queued waits up to
  ``(k - 1) * quantum`` — latency grows with the quantum length.

Clients are closed-loop: a fixed population per served vCPU, each
thinking for an exponential time after its response arrives.  This
self-regulates load (no unbounded queues) exactly like SPECweb/SPECmail
driver sessions.

Metric: mean request latency (post -> handler completion) pooled over
all served vCPUs, lower is better.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, Optional

from repro.guest.phases import Compute, Phase, WaitEvent
from repro.guest.thread import GuestThread
from repro.hardware.cache import MemoryProfile
from repro.hardware.specs import MachineSpec
from repro.sim.units import MS
from repro.workloads.base import PerfResult, Workload
from repro.workloads.profiles import llcf_profile

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.hypervisor.event_channel import EventPort
    from repro.hypervisor.machine import Machine
    from repro.hypervisor.vm import VM


class IoWorkload(Workload):
    """A closed-loop request/response service, one server per vCPU."""

    def __init__(
        self,
        name: str,
        clients: int = 16,
        think_ns: int = 5 * MS,
        service_instructions: float = 100_000.0,
        service_profile: Optional[MemoryProfile] = None,
        vcpus: int = 1,
        cgi_profile: Optional[MemoryProfile] = None,
        cgi_burst_instructions: float = 3_000_000.0,
    ):
        super().__init__(name)
        if clients <= 0:
            raise ValueError("need at least one client")
        if vcpus <= 0:
            raise ValueError("need at least one served vCPU")
        if think_ns < 0 or service_instructions < 0:
            raise ValueError("think time and service cost cannot be negative")
        self.clients = clients
        self.think_ns = think_ns
        self.service_instructions = service_instructions
        self.service_profile = service_profile or MemoryProfile()
        self.vcpus_wanted = vcpus
        #: when set, each served vCPU also runs an endless CGI burn
        #: thread with this profile — the heterogeneous (BOOST-defeating)
        #: configuration.
        self.cgi_profile = cgi_profile
        self.cgi_burst_instructions = cgi_burst_instructions
        self.ports: list["EventPort"] = []
        self.servers: list[GuestThread] = []
        self.cgi_threads: list[GuestThread] = []
        self.latencies_ns: list[float] = []
        self.completed = 0
        self._window_start_index = 0
        self._window_start_ns: Optional[int] = None
        self._rng = None

    @classmethod
    def exclusive(cls, name: str, vcpus: int = 1) -> "IoWorkload":
        """Pure-IO service (paper Fig. 2a): tiny per-request CPU."""
        return cls(
            name,
            clients=16,
            think_ns=5 * MS,
            service_instructions=100_000.0,  # ~30 us of CPU
            vcpus=vcpus,
        )

    @classmethod
    def heterogeneous(
        cls, name: str, spec: MachineSpec, vcpus: int = 1
    ) -> "IoWorkload":
        """Web + CGI service (paper Fig. 2b): BOOST-defeating.

        Light requests share each vCPU with an always-ready CGI burner
        (a ~1 MB working set, moderately LLC-active), so the vCPU
        consumes its full quantum and light-request latency is at the
        mercy of the quantum length.
        """
        return cls(
            name,
            clients=16,
            think_ns=5 * MS,
            service_instructions=100_000.0,
            vcpus=vcpus,
            cgi_profile=llcf_profile(spec, llc_fraction=0.125),
        )

    # ------------------------------------------------------------------
    # installation
    # ------------------------------------------------------------------
    def _install(self, machine: "Machine", vm: "VM") -> None:
        if len(vm.vcpus) < self.vcpus_wanted:
            raise ValueError(
                f"{self.name} wants {self.vcpus_wanted} vCPUs, "
                f"VM {vm.name} has {len(vm.vcpus)}"
            )
        assert vm.guest is not None
        self._rng = machine.rng.stream(f"io/{self.name}")
        for idx in range(self.vcpus_wanted):
            vcpu = vm.vcpus[idx]
            port = machine.new_port(vcpu, f"{self.name}.port{idx}")
            server = GuestThread(
                f"{self.name}.server{idx}",
                lambda thread, p=port: self._server_body(thread, p),
                profile=self.service_profile,
            )
            vm.guest.add_thread(server, vcpu)
            self.ports.append(port)
            self.servers.append(server)
            if self.cgi_profile is not None:
                cgi = GuestThread(
                    f"{self.name}.cgi{idx}", self._cgi_body, profile=self.cgi_profile
                )
                vm.guest.add_thread(cgi, vcpu)
                self.cgi_threads.append(cgi)
            # stagger the initial requests so clients do not arrive in
            # one bulge
            for _ in range(self.clients):
                initial = int(self._rng.exponential(self.think_ns + 1))
                machine.sim.after(
                    max(initial, 1),
                    lambda p=port: self._send_request(p),
                    f"{self.name}.req",
                )

    def _send_request(self, port: "EventPort") -> None:
        assert self.machine is not None
        port.post(payload=self.machine.sim.now)

    def _client_think_then_send(self, port: "EventPort") -> None:
        assert self.machine is not None and self._rng is not None
        delay = int(self._rng.exponential(self.think_ns)) + 1
        self.machine.sim.after(
            delay, lambda: self._send_request(port), f"{self.name}.think"
        )

    def _cgi_body(self, thread: GuestThread) -> Iterator[Phase]:
        while True:
            yield Compute(self.cgi_burst_instructions)

    def _server_body(self, thread: GuestThread, port: "EventPort") -> Iterator[Phase]:
        while True:
            wait = WaitEvent(port)
            yield wait
            if self.service_instructions > 0:
                yield Compute(self.service_instructions)
            arrival = wait.payload
            assert isinstance(arrival, int)
            self.latencies_ns.append(float(self.now - arrival))
            self.completed += 1
            self._client_think_then_send(port)

    # ------------------------------------------------------------------
    # measurement
    # ------------------------------------------------------------------
    def begin_measurement(self) -> None:
        self._window_start_index = len(self.latencies_ns)
        self._window_start_ns = self.now

    def result(self) -> PerfResult:
        if self._window_start_ns is None:
            raise RuntimeError(f"{self.name}: begin_measurement was never called")
        window = self.latencies_ns[self._window_start_index:]
        if not window:
            raise RuntimeError(f"{self.name}: no requests completed in window")
        import numpy as np

        mean_latency = float(np.mean(window))
        p99 = float(np.percentile(window, 99))
        throughput = len(window) / max(1, self.now - self._window_start_ns)
        return PerfResult(
            name=self.name,
            metric="latency_ns",
            value=mean_latency,
            details=(
                ("requests", len(window)),
                ("p99_ns", p99),
                ("throughput_per_sec", throughput * 1e9),
            ),
        )


__all__ = ["IoWorkload"]
