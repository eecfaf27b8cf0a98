"""Declarative churn timelines.

A timeline is a tuple of frozen event records, each pinned to a
virtual-time offset.  Events are plain data — primitive fields only —
so a timeline participates in :mod:`repro.exec` cache keys via
:func:`repro.exec.hashing.canonical` and two timelines differing in a
single event time or kind hash to different keys.

:func:`random_timeline` draws a *valid* random story: it tracks which
VMs are alive, which pCPUs are dark and what mode each workload runs,
so a generated sequence never shuts down a VM twice, never offlines
the last core and never "changes" a phase to the mode already running.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from repro.core.types import VCpuType
from repro.sim.units import MS

#: the behaviour modes a dynamic VM can run (see SwitchableWorkload)
MODES = ("llcf", "llco", "lolcf", "io", "spin")

#: the vCPU type each mode exhibits: the manually configured
#: comparators' ground truth and the fleet placer's prior
MODE_TYPES = {
    "io": VCpuType.IOINT,
    "spin": VCpuType.CONSPIN,
    "llcf": VCpuType.LLCF,
    "llco": VCpuType.LLCO,
    "lolcf": VCpuType.LOLCF,
}


@dataclass(frozen=True)
class ChurnEvent:
    """Something that happens ``at_ns`` after the timeline origin."""

    at_ns: int

    kind = "event"

    def describe(self) -> str:  # pragma: no cover - overridden
        return self.kind


@dataclass(frozen=True)
class VmBoot(ChurnEvent):
    """Hot-add a VM running a SwitchableWorkload in ``mode``."""

    name: str = "dyn"
    mode: str = "llcf"
    vcpus: int = 1

    kind = "vm_boot"

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.vcpus <= 0:
            raise ValueError("a VM needs at least one vCPU")

    def describe(self) -> str:
        return f"boot {self.name} ({self.mode})"


@dataclass(frozen=True)
class VmShutdown(ChurnEvent):
    """Tear down the named VM (ports closed, vCPUs withdrawn)."""

    name: str = "dyn"

    kind = "vm_shutdown"

    def describe(self) -> str:
        return f"shutdown {self.name}"


@dataclass(frozen=True)
class PhaseChange(ChurnEvent):
    """Swap the named VM's workload to a different behaviour mode."""

    name: str = "dyn"
    mode: str = "io"

    kind = "phase_change"

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")

    def describe(self) -> str:
        return f"phase {self.name} -> {self.mode}"


@dataclass(frozen=True)
class LoadSpike(ChurnEvent):
    """Multiply an IO workload's arrival rate for a window.

    Implemented by dividing the closed-loop client think time by
    ``factor``; the base rate is restored after ``duration_ns``.
    """

    name: str = "dyn"
    factor: float = 4.0
    duration_ns: int = 300 * MS

    kind = "load_spike"

    def __post_init__(self) -> None:
        if self.factor <= 0:
            raise ValueError("spike factor must be positive")
        if self.duration_ns <= 0:
            raise ValueError("spike duration must be positive")

    def describe(self) -> str:
        return f"spike {self.name} x{self.factor:g}"


@dataclass(frozen=True)
class PcpuOffline(ChurnEvent):
    """Fault injection: the pCPU with this id disappears."""

    cpu_id: int = 0

    kind = "pcpu_offline"

    def describe(self) -> str:
        return f"offline pcpu{self.cpu_id}"


@dataclass(frozen=True)
class PcpuOnline(ChurnEvent):
    """Recovery: the previously-failed pCPU returns."""

    cpu_id: int = 0

    kind = "pcpu_online"

    def describe(self) -> str:
        return f"online pcpu{self.cpu_id}"


@dataclass(frozen=True)
class ChurnTimeline:
    """An ordered story of churn events (offsets from the arm time).

    **Fire order is pinned**: events fire in a *stable sort* of the
    tuple by ``at_ns`` — earlier offsets first, and events sharing an
    identical timestamp fire in tuple order.  This follows from two
    guarantees that are part of the public contract (and regression-
    tested in ``tests/test_churn_event_order.py``): the engine's
    :meth:`~repro.dynamics.engine.ChurnEngine.arm` schedules events in
    tuple order, and the simulator breaks same-instant ties by
    scheduling sequence.  Scenario generators may therefore emit
    dependent same-timestamp pairs (boot ``x`` then phase-change
    ``x`` at the same instant) and rely on the tuple order.
    """

    events: tuple[ChurnEvent, ...]

    def __post_init__(self) -> None:
        for event in self.events:
            if event.at_ns < 0:
                raise ValueError(f"{event!r}: negative event time")

    @property
    def duration_ns(self) -> int:
        return max((e.at_ns for e in self.events), default=0)

    def __iter__(self) -> Iterator[ChurnEvent]:
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)


def random_timeline(
    seed: int,
    n_events: int = 6,
    base_vms: Sequence[tuple[str, str]] = (),
    pcpus: int = 4,
    start_ns: int = 300 * MS,
    spacing_ns: int = 300 * MS,
    modes: Sequence[str] = ("llcf", "llco", "io"),
    max_offline: int = 1,
    min_alive: int = 2,
) -> ChurnTimeline:
    """Draw a valid random churn story.

    ``base_vms`` is the ``(name, mode)`` population that exists before
    the timeline starts; the generator tracks aliveness, modes and dark
    cores so every drawn event is applicable when it fires.
    """
    if pcpus < 2:
        raise ValueError("need at least two pCPUs to inject faults safely")
    from numpy.random import default_rng

    rng = default_rng(seed)
    alive: dict[str, str] = dict(base_vms)
    offline: list[int] = []
    booted = 0
    events: list[ChurnEvent] = []
    t = start_ns
    for _ in range(n_events):
        choices = ["vm_boot"]
        if len(alive) > min_alive:
            choices.append("vm_shutdown")
        if alive and len(set(modes)) > 1:
            choices.append("phase_change")
        if any(mode == "io" for mode in alive.values()):
            choices.append("load_spike")
        if len(offline) < max_offline and pcpus - len(offline) > 2:
            choices.append("pcpu_offline")
        if offline:
            choices.append("pcpu_online")
        kind = choices[int(rng.integers(len(choices)))]
        if kind == "vm_boot":
            name = f"rnd{booted}"
            booted += 1
            mode = modes[int(rng.integers(len(modes)))]
            events.append(VmBoot(t, name=name, mode=mode))
            alive[name] = mode
        elif kind == "vm_shutdown":
            names = sorted(alive)
            name = names[int(rng.integers(len(names)))]
            events.append(VmShutdown(t, name=name))
            del alive[name]
        elif kind == "phase_change":
            names = sorted(alive)
            name = names[int(rng.integers(len(names)))]
            others = [m for m in modes if m != alive[name]]
            mode = others[int(rng.integers(len(others)))]
            events.append(PhaseChange(t, name=name, mode=mode))
            alive[name] = mode
        elif kind == "load_spike":
            names = sorted(n for n, m in alive.items() if m == "io")
            name = names[int(rng.integers(len(names)))]
            events.append(
                LoadSpike(t, name=name, factor=4.0, duration_ns=spacing_ns // 2)
            )
        elif kind == "pcpu_offline":
            online = sorted(set(range(pcpus)) - set(offline))
            cpu_id = online[int(rng.integers(len(online)))]
            events.append(PcpuOffline(t, cpu_id=cpu_id))
            offline.append(cpu_id)
        else:  # pcpu_online
            cpu_id = sorted(offline)[int(rng.integers(len(offline)))]
            events.append(PcpuOnline(t, cpu_id=cpu_id))
            offline.remove(cpu_id)
        t += int(rng.integers(spacing_ns // 2, spacing_ns + 1))
    return ChurnTimeline(tuple(events))


__all__ = [
    "MODES",
    "MODE_TYPES",
    "ChurnEvent",
    "ChurnTimeline",
    "LoadSpike",
    "PcpuOffline",
    "PcpuOnline",
    "PhaseChange",
    "VmBoot",
    "VmShutdown",
    "random_timeline",
]
