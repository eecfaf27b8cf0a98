"""`repro.telemetry` — unified observability for the simulator.

One :class:`Telemetry` object bundles the three pillars (DESIGN.md
§11):

* :class:`~repro.telemetry.registry.TelemetryRegistry` — counters,
  gauges and histograms with per-vCPU/pCPU/pool label sets and
  ring-buffered time series;
* :class:`~repro.telemetry.spans.SpanTracer` — begin/end spans with
  parent links (quantum slices, vTRS periods, re-clustering passes);
* :class:`~repro.telemetry.audit.DecisionAudit` — the vTRS/AQL
  decision audit trail (type flips with cursor-window snapshots,
  clustering runs, the pool-change ledger).

The overhead contract: instrumented code guards every emit with
``if telemetry.enabled:`` — a disabled Telemetry costs one attribute
check on the hot path, and the CI bench gate holds the disabled path
to the 25% regression budget against ``BENCH_sim.json``.
"""

from __future__ import annotations

from repro.telemetry.audit import (
    ClusterDecision,
    DecisionAudit,
    PoolChange,
    TypeFlip,
)
from repro.telemetry.registry import (
    Counter,
    Gauge,
    Histogram,
    RingBuffer,
    TelemetryRegistry,
    qualified_name,
)
from repro.telemetry.exposition import (
    jsonl_records,
    prometheus_text,
    write_jsonl,
)
from repro.telemetry.spans import Span, SpanError, SpanTracer


class Telemetry:
    """The one object components hold: registry + tracer + audit."""

    __slots__ = ("enabled", "registry", "tracer", "audit")

    def __init__(self, enabled: bool = False, max_spans: int = 200_000) -> None:
        self.enabled = enabled
        self.registry = TelemetryRegistry()
        self.tracer = SpanTracer(max_spans=max_spans)
        self.audit = DecisionAudit()

    def summary(self) -> dict[str, float]:
        """Flat, picklable aggregate: registry values + audit counts.

        Deterministic (virtual-clock quantities only), so sweep results
        carry it through workers and the cache without breaking the
        serial ≡ parallel ≡ cached equivalence.
        """
        out = self.registry.summary()
        out.update(self.audit.summary())
        out["spans_recorded"] = float(len(self.tracer))
        return out

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "on" if self.enabled else "off"
        return (
            f"<Telemetry {state} instruments={len(self.registry)} "
            f"spans={len(self.tracer)} audit={len(self.audit)}>"
        )


__all__ = [
    "ClusterDecision",
    "Counter",
    "DecisionAudit",
    "Gauge",
    "Histogram",
    "PoolChange",
    "RingBuffer",
    "Span",
    "SpanError",
    "SpanTracer",
    "Telemetry",
    "TelemetryRegistry",
    "TypeFlip",
    "jsonl_records",
    "prometheus_text",
    "qualified_name",
    "write_jsonl",
]
