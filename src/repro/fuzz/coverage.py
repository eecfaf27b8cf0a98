"""Decision-space coverage: which scheduler behaviours has a corpus hit?

Branch coverage over *scheduler decisions* rather than code lines: the
telemetry audit trail already records every vTRS verdict, every
Algorithm 1/2 clustering run with its spills, and every pool-ledger
mutation, so coverage is derived from the audit of each run — no
instrumentation hooks in the scheduler itself.

Keys are namespaced strings counted per run:

* ``event:<kind>`` — churn events actually applied;
* ``mode:<m>`` — workload modes that existed during the run;
* ``policy:<name>`` — the policy driven;
* ``transition:<old>-><new>`` — vTRS type flips (``∅`` = first verdict);
* ``alg1:*`` / ``alg2:*`` — Algorithm 1/2 decision branches
  (cold-start skip, trashing census, plan stability, cluster counts,
  spills, per-cluster quanta);
* ``ledger:<kind>`` — pool-change ledger entries.

The generator weighs its policy, mode and event choices with
:meth:`CoverageMap.weight` (1 / (1 + hits)) over the ``policy:``,
``mode:`` and ``event:`` keys, which :meth:`CoverageMap.observe_scenario`
derives from a scenario alone; the CI gate asserts a floor on distinct
``alg`` branches so a corpus that stops exercising the clustering fails
loudly.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Optional, Union

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.fuzz.runner import FuzzOutcome
    from repro.fuzz.scenario import FuzzScenario

#: vTRS type names that feed Algorithm 1's trashing list
_TRASHING_TYPES = {"LLCO", "IOINT", "CONSPIN"}


class CoverageMap:
    """Counted set of visited decision-space keys."""

    def __init__(self) -> None:
        self.counts: dict[str, int] = {}
        self.runs = 0

    # ------------------------------------------------------------------
    # observation
    # ------------------------------------------------------------------
    def hit(self, key: str, count: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + count

    def observe_scenario(self, scenario: "FuzzScenario") -> None:
        """Fold in the steering keys: the policy, every mode and every
        churn event.  A scenario alone fixes them, since every timeline
        event fires before the horizon."""
        self.hit(f"policy:{scenario.policy}")
        for _, mode in scenario.base:
            self.hit(f"mode:{mode}")
        for event in scenario.timeline.events:
            self.hit(f"event:{event.kind}")
            mode = getattr(event, "mode", None)
            if mode is not None:
                self.hit(f"mode:{mode}")

    def observe_outcome(self, outcome: "FuzzOutcome") -> None:
        """Fold one run's decision surface into the map."""
        self.runs += 1
        self.observe_scenario(outcome.scenario)
        audit = outcome.telemetry.audit
        for flip in audit.flips:
            old = flip.old_type if flip.old_type is not None else "∅"
            self.hit(f"transition:{old}->{flip.new_type}")
        for decision in audit.decisions:
            if decision.skipped:
                self.hit("alg1:cold_start_skip")
                continue
            types = {name for _, name in decision.input_types}
            if types & _TRASHING_TYPES:
                self.hit("alg1:trashing_present")
            else:
                self.hit("alg1:no_trashing")
            self.hit(
                "alg1:plan_changed" if decision.changed
                else "alg1:plan_stable"
            )
            self.hit(
                "alg2:multi_cluster" if len(decision.pools) > 1
                else "alg2:single_cluster"
            )
            self.hit("alg2:spill" if decision.spills else "alg2:no_spill")
            for _, quantum_ns, _, _ in decision.pools:
                self.hit(f"alg2:quantum:{quantum_ns // 1_000_000}ms")
        for change in audit.ledger:
            self.hit(f"ledger:{change.kind}")

    # ------------------------------------------------------------------
    # steering and gating
    # ------------------------------------------------------------------
    def weight(self, key: str) -> float:
        """Generation weight: unvisited keys are most attractive."""
        return 1.0 / (1.0 + self.counts.get(key, 0))

    def novelty(self, keys: Iterable[str]) -> int:
        """How many of ``keys`` this map has never seen."""
        return sum(1 for key in keys if key not in self.counts)

    def distinct(self, prefix: str = "") -> list[str]:
        return sorted(k for k in self.counts if k.startswith(prefix))

    def merge(self, other: "CoverageMap") -> None:
        self.runs += other.runs
        for key, count in other.counts.items():
            self.hit(key, count)

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def report(self) -> dict[str, object]:
        """The JSON coverage-report schema (DESIGN.md §12)."""
        groups: dict[str, dict[str, int]] = {}
        for key, count in sorted(self.counts.items()):
            group, _, rest = key.partition(":")
            groups.setdefault(group, {})[rest] = count
        return {
            "runs": self.runs,
            "distinct_keys": len(self.counts),
            "distinct_alg_branches": len(
                self.distinct("alg1:") + self.distinct("alg2:")
            ),
            "groups": groups,
        }

    def render(self) -> str:
        report = self.report()
        lines = [
            f"coverage over {report['runs']} runs: "
            f"{report['distinct_keys']} distinct keys, "
            f"{report['distinct_alg_branches']} Algorithm 1/2 branches",
        ]
        groups = report["groups"]
        assert isinstance(groups, dict)
        for group in sorted(groups):
            lines.append(f"  {group}:")
            for rest, count in sorted(groups[group].items()):
                lines.append(f"    {rest:<40} {count}")
        return "\n".join(lines)

    def to_json(self) -> dict[str, object]:
        return {"runs": self.runs, "counts": dict(sorted(self.counts.items()))}

    @classmethod
    def from_json(cls, data: dict[str, object]) -> "CoverageMap":
        cov = cls()
        cov.runs = int(data.get("runs", 0))  # type: ignore[arg-type]
        counts = data.get("counts", {})
        assert isinstance(counts, dict)
        cov.counts = {str(k): int(v) for k, v in counts.items()}
        return cov

    def save(self, path: Union[str, Path]) -> Path:
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(
            json.dumps(self.report(), indent=2, sort_keys=True) + "\n"
        )
        return target

    def __len__(self) -> int:
        return len(self.counts)


__all__ = ["CoverageMap"]
