"""Socket/core topology built from a :class:`MachineSpec`.

The topology is deliberately dumb: it owns identities (socket ids, pCPU
ids) and each socket's shared LLC instance.  All *scheduling* state for
a pCPU lives in the hypervisor layer (:mod:`repro.hypervisor`), keeping
hardware reusable under any scheduler.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.hardware.cache import SharedCache
from repro.hardware.specs import MachineSpec


@dataclass(eq=False)
class PCpu:
    """One physical core."""

    cpu_id: int
    socket: "Socket"

    def __repr__(self) -> str:
        return f"pCPU{self.cpu_id}(socket{self.socket.socket_id})"


@dataclass(eq=False)
class Socket:
    """One package: a set of cores sharing a last-level cache."""

    socket_id: int
    llc: SharedCache
    pcpus: list[PCpu] = field(default_factory=list)

    def __repr__(self) -> str:
        return f"Socket{self.socket_id}({len(self.pcpus)} cores)"


class Topology:
    """All sockets and cores of a machine, with stable global pCPU ids."""

    def __init__(self, spec: MachineSpec):
        self.spec = spec
        self.sockets: list[Socket] = []
        self.pcpus: list[PCpu] = []
        cpu_id = 0
        for socket_id in range(spec.sockets):
            llc = SharedCache(
                capacity_bytes=spec.llc.capacity_bytes,
                line_bytes=spec.llc.line_bytes,
            )
            socket = Socket(socket_id=socket_id, llc=llc)
            for _ in range(spec.cores_per_socket):
                pcpu = PCpu(cpu_id=cpu_id, socket=socket)
                socket.pcpus.append(pcpu)
                self.pcpus.append(pcpu)
                cpu_id += 1
            self.sockets.append(socket)

    def __iter__(self) -> Iterator[PCpu]:
        return iter(self.pcpus)

    def __len__(self) -> int:
        return len(self.pcpus)

    def __repr__(self) -> str:
        return (
            f"Topology({self.spec.name}: {self.spec.sockets} sockets x "
            f"{self.spec.cores_per_socket} cores)"
        )


__all__ = ["PCpu", "Socket", "Topology"]
