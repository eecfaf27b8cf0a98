"""The vTRS/AQL decision audit trail.

Makes every online scheduling decision *explainable* after the fact:

* every vTRS **type flip** records the full ``n``-sample cursor-window
  snapshot the verdict was computed from, plus the window averages, so
  "why did web.0 become IOInt at t=210 ms?" is answerable by
  recomputing the argmax from the recorded window (the audit test does
  exactly that);
* every AQL **clustering run** (Algorithms 1/2) records its input
  types, the resulting cluster assignments, and the spill-to-default
  reasons the clustering emitted (mixed-quantum pCPU shares, surplus
  filler);
* every **pool change** — plan installs, pool collapses, fault-driven
  re-absorptions — lands in a ledger with its migration delta.

Records are frozen dataclasses of plain types (ints, strings, tuples),
so an audit pickles across process boundaries and into the result
cache unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

#: One recorded cursor sample: sorted (type-name, cursor) pairs plus
#: whether the period carried CPU evidence.
WindowSample = tuple[tuple[tuple[str, float], ...], bool]


@dataclass(frozen=True)
class TypeFlip:
    """A vCPU's vTRS verdict changed (or was first established)."""

    time_ns: int
    vcpu_id: int
    vcpu_name: str
    #: None on the first-ever verdict
    old_type: Optional[str]
    new_type: str
    #: the full sliding window the verdict was computed from,
    #: oldest sample first
    window: tuple[WindowSample, ...]
    #: the window averages the argmax ran over
    averages: tuple[tuple[str, float], ...]

    @property
    def winning_average(self) -> float:
        return dict(self.averages)[self.new_type]


@dataclass(frozen=True)
class ClusterDecision:
    """One AQL decide(): re-type, re-cluster, maybe re-plan."""

    time_ns: int
    decision_index: int
    #: sorted (vcpu_id, type-name) input to the clustering
    input_types: tuple[tuple[int, str], ...]
    changed: bool
    #: (pool name, quantum_ns, pcpu ids, vcpu ids) per planned pool
    pools: tuple[tuple[str, int, tuple[int, ...], tuple[int, ...]], ...]
    #: (vcpu_id, reason) for every vCPU the clustering spilled into a
    #: default-quantum pool instead of its type's calibrated one
    spills: tuple[tuple[int, str], ...]
    #: True while the initial cold-start delay is still sitting out
    skipped: bool = False


@dataclass(frozen=True)
class PoolChange:
    """One pool-layout mutation, for the ledger."""

    time_ns: int
    #: "plan" | "collapse" | "absorb" | "offline" | "online"
    kind: str
    detail: str
    #: machine-wide migration count after the change
    migrations_total: int
    #: (pool name, quantum_ns, pcpus, vcpus) after the change
    pools: tuple[tuple[str, int, int, int], ...]


class DecisionAudit:
    """Append-only store for the three record kinds."""

    __slots__ = ("flips", "decisions", "ledger")

    def __init__(self) -> None:
        self.flips: list[TypeFlip] = []
        self.decisions: list[ClusterDecision] = []
        self.ledger: list[PoolChange] = []

    # ------------------------------------------------------------------
    # recording (callers guard with ``telemetry.enabled``)
    # ------------------------------------------------------------------
    def record_flip(self, flip: TypeFlip) -> None:
        self.flips.append(flip)

    def record_decision(self, decision: ClusterDecision) -> None:
        self.decisions.append(decision)

    def record_pool_change(self, change: PoolChange) -> None:
        self.ledger.append(change)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def flips_of(self, vcpu_id: int) -> list[TypeFlip]:
        return [f for f in self.flips if f.vcpu_id == vcpu_id]

    def summary(self) -> dict[str, float]:
        """Flat aggregate counts (merged into the registry summary)."""
        return {
            "audit_type_flips": float(len(self.flips)),
            "audit_decisions": float(len(self.decisions)),
            "audit_plan_changes": float(
                sum(1 for d in self.decisions if d.changed)
            ),
            "audit_pool_ledger": float(len(self.ledger)),
        }

    def __len__(self) -> int:
        return len(self.flips) + len(self.decisions) + len(self.ledger)


__all__ = [
    "ClusterDecision",
    "DecisionAudit",
    "PoolChange",
    "TypeFlip",
    "WindowSample",
]
