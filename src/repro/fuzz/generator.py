"""The stateful scenario generator: a seeded churn state machine.

Generation is a little state machine over the :mod:`repro.dynamics`
vocabulary (the hand-rolled equivalent of a Hypothesis
``RuleBasedStateMachine``, kept in-tree so corpus seeds replay without
a database): it tracks which VMs are alive, what mode each runs and
which cores are dark, and only ever emits events that are applicable
when they fire — the same bookkeeping :func:`scenario_problems`
re-checks statically.

Two fuzz-specific behaviours on top of plain validity:

* **coverage steering** — when a :class:`CoverageMap` is supplied,
  event kinds, workload modes and policies are drawn with weight
  ``1 / (1 + hits)``, so a corpus drifts toward scheduler behaviour it
  has not exercised yet;
* **same-instant pairs** — with small probability a boot is emitted
  together with a phase change of the booted VM at the *same*
  timestamp, exercising the documented tuple-order tie-break of
  :class:`~repro.dynamics.events.ChurnTimeline`.

Determinism: one ``np.random.default_rng(seed)`` stream drives every
choice; the same (seed, coverage counts) always yields the same
scenario.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

from repro.dynamics.events import (
    MODES,
    ChurnEvent,
    ChurnTimeline,
    LoadSpike,
    PcpuOffline,
    PcpuOnline,
    PhaseChange,
    VmBoot,
    VmShutdown,
)
from repro.fuzz.coverage import CoverageMap
from repro.fuzz.scenario import POLICY_NAMES, FuzzScenario
from repro.sim.units import MS

if TYPE_CHECKING:
    from numpy.random import Generator

#: timeline pacing — spaced around the AQL decide period (120 ms) so
#: the control plane gets to react between events, small enough that a
#: full run stays well under two simulated seconds
START_NS = 150 * MS
MIN_SPACING_NS = 120 * MS
MAX_SPACING_NS = 250 * MS


def _weighted_choice(
    rng: Generator,
    options: Sequence[str],
    coverage: Optional[CoverageMap],
    prefix: str,
) -> str:
    if coverage is None or len(options) == 1:
        return options[int(rng.integers(len(options)))]
    import numpy as np

    weights = np.array(
        [coverage.weight(f"{prefix}:{option}") for option in options]
    )
    weights = weights / weights.sum()
    return options[int(rng.choice(len(options), p=weights))]


def generate_scenario(
    seed: int,
    coverage: Optional[CoverageMap] = None,
    *,
    policies: Sequence[str] = POLICY_NAMES,
    pcpu_choices: Sequence[int] = (2, 3),
    max_base: int = 4,
    max_events: int = 4,
    clients: int = 4,
    inject: Optional[str] = None,
) -> FuzzScenario:
    """Draw one valid scenario; deterministic in (seed, coverage)."""
    from numpy.random import default_rng

    rng = default_rng(seed)
    pcpus = int(pcpu_choices[int(rng.integers(len(pcpu_choices)))])
    policy = _weighted_choice(rng, list(policies), coverage, "policy")

    n_base = int(rng.integers(2, max_base + 1))
    base: list[tuple[str, str]] = []
    for i in range(n_base):
        mode = _weighted_choice(rng, list(MODES), coverage, "mode")
        base.append((f"base{i}", mode))

    alive: dict[str, str] = dict(base)
    used = set(alive)
    offline: list[int] = []
    booted = 0
    events: list[ChurnEvent] = []
    t = START_NS
    n_events = int(rng.integers(0, max_events + 1))
    while len(events) < n_events:
        kinds = ["vm_boot"]
        if len(alive) > 1:
            kinds.append("vm_shutdown")
        if alive:
            kinds.extend(["phase_change", "load_spike"])
        if pcpus - len(offline) >= 2:
            kinds.append("pcpu_offline")
        if offline:
            kinds.append("pcpu_online")
        kind = _weighted_choice(rng, kinds, coverage, "event")
        if kind == "vm_boot":
            name = f"hot{booted}"
            booted += 1
            mode = _weighted_choice(rng, list(MODES), coverage, "mode")
            events.append(VmBoot(t, name=name, mode=mode))
            used.add(name)
            alive[name] = mode
            # occasionally: a dependent same-timestamp pair, relying on
            # the documented tuple-order tie-break
            if rng.random() < 0.2 and len(events) < n_events:
                other = _weighted_choice(
                    rng,
                    [m for m in MODES if m != mode],
                    coverage,
                    "mode",
                )
                events.append(PhaseChange(t, name=name, mode=other))
                alive[name] = other
        elif kind == "vm_shutdown":
            names = sorted(alive)
            name = names[int(rng.integers(len(names)))]
            events.append(VmShutdown(t, name=name))
            del alive[name]
        elif kind == "phase_change":
            names = sorted(alive)
            name = names[int(rng.integers(len(names)))]
            others = [m for m in MODES if m != alive[name]]
            mode = _weighted_choice(rng, others, coverage, "mode")
            events.append(PhaseChange(t, name=name, mode=mode))
            alive[name] = mode
        elif kind == "load_spike":
            names = sorted(alive)
            name = names[int(rng.integers(len(names)))]
            factor = float(rng.integers(2, 6))
            events.append(LoadSpike(
                t, name=name, factor=factor, duration_ns=100 * MS
            ))
        elif kind == "pcpu_offline":
            online = sorted(set(range(pcpus)) - set(offline))
            cpu_id = online[int(rng.integers(len(online)))]
            events.append(PcpuOffline(t, cpu_id=cpu_id))
            offline.append(cpu_id)
        else:  # pcpu_online
            cpu_id = sorted(offline)[int(rng.integers(len(offline)))]
            events.append(PcpuOnline(t, cpu_id=cpu_id))
            offline.remove(cpu_id)
        t += int(rng.integers(MIN_SPACING_NS, MAX_SPACING_NS + 1))

    return FuzzScenario(
        seed=seed,
        pcpus=pcpus,
        policy=policy,
        base=tuple(base),
        timeline=ChurnTimeline(tuple(events)),
        clients=clients,
        inject=inject,
        label=f"gen-{seed}",
    )


__all__ = [
    "MAX_SPACING_NS",
    "MIN_SPACING_NS",
    "START_NS",
    "generate_scenario",
]
