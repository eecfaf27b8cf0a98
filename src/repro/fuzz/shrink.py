"""Shrinking: reduce a failing scenario to a minimal reproduction.

Delta-debugging over the scenario's degrees of freedom, cheapest
reduction first:

1. **events** — ddmin over the churn timeline (drop halves, then
   quarters, … then single events);
2. **base VMs** — drop population members one at a time (at least one
   survives; events referencing a dropped VM make the candidate
   statically invalid and are skipped without a run);
3. **time** — halve the tail, halve the warmup, then compress event
   timestamps toward the origin (preserving order and same-instant
   groups).

A candidate *reproduces* when it is statically valid
(:func:`repro.fuzz.scenario.scenario_problems`) and a fresh run still
violates at least one invariant from the original failure's signature.
Every evaluation is a full simulated run, so the budget is capped and
results are memoised by the scenario's canonical JSON.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Iterable

from repro.dynamics.events import ChurnEvent, ChurnTimeline
from repro.fuzz.invariants import Violation, check_invariants
from repro.fuzz.runner import run_scenario_fuzz
from repro.fuzz.scenario import FuzzScenario, scenario_problems
from repro.sim.units import MS

#: time reductions never go below these (the run must still cover the
#: AQL cold start and give the progress invariant its grace window)
MIN_WARMUP_NS = 100 * MS
MIN_TAIL_NS = 260 * MS


def failure_signature(violations: Iterable[Violation]) -> frozenset[str]:
    """The invariant names a failure is known by during shrinking."""
    return frozenset(v.invariant for v in violations)


@dataclass
class ShrinkResult:
    """The minimal scenario plus the search's accounting."""

    scenario: FuzzScenario
    signature: frozenset[str]
    evaluations: int
    steps: list[str]


class _Shrinker:
    def __init__(
        self, signature: frozenset[str], max_evaluations: int
    ) -> None:
        self.signature = signature
        self.max_evaluations = max_evaluations
        self.evaluations = 0
        self._memo: dict[str, bool] = {}
        self.steps: list[str] = []

    def budget_left(self) -> bool:
        return self.evaluations < self.max_evaluations

    def reproduces(self, candidate: FuzzScenario) -> bool:
        """Does the candidate still trip the original signature?"""
        if scenario_problems(candidate):
            return False  # statically invalid: rejected without a run
        key = json.dumps(candidate.to_json(), sort_keys=True)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        if not self.budget_left():
            return False
        self.evaluations += 1
        outcome = run_scenario_fuzz(candidate)
        found = failure_signature(check_invariants(outcome))
        verdict = bool(found & self.signature)
        self._memo[key] = verdict
        return verdict

    # ------------------------------------------------------------------
    # stage 1: ddmin over timeline events
    # ------------------------------------------------------------------
    def shrink_events(self, scenario: FuzzScenario) -> FuzzScenario:
        events = list(scenario.timeline.events)
        chunk = max(1, len(events) // 2)
        while events and chunk >= 1 and self.budget_left():
            removed_any = False
            start = 0
            while start < len(events) and self.budget_left():
                candidate_events = events[:start] + events[start + chunk:]
                candidate = _with_events(scenario, candidate_events)
                if self.reproduces(candidate):
                    dropped = len(events) - len(candidate_events)
                    events = candidate_events
                    self.steps.append(f"dropped {dropped} event(s)")
                    removed_any = True
                else:
                    start += chunk
            if not removed_any or chunk == 1:
                if chunk == 1:
                    break
            chunk = max(1, chunk // 2)
        return _with_events(scenario, events)

    # ------------------------------------------------------------------
    # stage 2: drop base VMs
    # ------------------------------------------------------------------
    def shrink_base(self, scenario: FuzzScenario) -> FuzzScenario:
        members = list(scenario.base)
        index = 0
        while len(members) > 1 and index < len(members) and self.budget_left():
            candidate = replace(
                scenario,
                base=tuple(members[:index] + members[index + 1:]),
            )
            if self.reproduces(candidate):
                self.steps.append(f"dropped base VM {members[index][0]!r}")
                del members[index]
                scenario = candidate
            else:
                index += 1
        return scenario

    # ------------------------------------------------------------------
    # stage 3: time compression
    # ------------------------------------------------------------------
    def shrink_time(self, scenario: FuzzScenario) -> FuzzScenario:
        for field_name, floor in (
            ("tail_ns", MIN_TAIL_NS),
            ("warmup_ns", MIN_WARMUP_NS),
        ):
            while self.budget_left():
                value = getattr(scenario, field_name)
                smaller = max(floor, value // 2)
                if smaller >= value:
                    break
                candidate = replace(scenario, **{field_name: smaller})
                if self.reproduces(candidate):
                    self.steps.append(f"{field_name} -> {smaller // MS} ms")
                    scenario = candidate
                else:
                    break
        if scenario.timeline.events and self.budget_left():
            candidate = _with_events(
                scenario, _compress_times(scenario.timeline.events)
            )
            if candidate != scenario and self.reproduces(candidate):
                self.steps.append("compressed event timestamps")
                scenario = candidate
        return scenario


def _with_events(
    scenario: FuzzScenario, events: list[ChurnEvent]
) -> FuzzScenario:
    return replace(scenario, timeline=ChurnTimeline(tuple(events)))


def _compress_times(events: tuple[ChurnEvent, ...]) -> list[ChurnEvent]:
    """Remap timestamps onto a tight 150 ms grid, keeping order and
    collapsing nothing: same-instant groups stay same-instant."""
    distinct = sorted({e.at_ns for e in events})
    mapping = {t: 150 * MS * (i + 1) for i, t in enumerate(distinct)}
    return [
        replace(e, at_ns=min(e.at_ns, mapping[e.at_ns])) for e in events
    ]


def shrink(
    scenario: FuzzScenario,
    violations: Iterable[Violation],
    max_evaluations: int = 60,
) -> ShrinkResult:
    """Minimise ``scenario`` while the failure signature reproduces."""
    signature = failure_signature(violations)
    if not signature:
        raise ValueError("nothing to shrink: no violations")
    shrinker = _Shrinker(signature, max_evaluations)
    current = shrinker.shrink_events(scenario)
    current = shrinker.shrink_base(current)
    current = shrinker.shrink_time(current)
    return ShrinkResult(
        scenario=current,
        signature=signature,
        evaluations=shrinker.evaluations,
        steps=shrinker.steps,
    )


__all__ = [
    "MIN_TAIL_NS",
    "MIN_WARMUP_NS",
    "ShrinkResult",
    "failure_signature",
    "shrink",
]
