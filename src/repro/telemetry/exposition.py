"""Exposition: Prometheus text format and JSONL export.

Two formats, two audiences:

* :func:`prometheus_text` renders the registry the way a node exporter
  would — ``# TYPE`` headers, ``{label="value"}`` series, histogram
  ``_bucket``/``_sum``/``_count`` triplets — so a scrape of a finished
  run drops straight into existing Prometheus/Grafana tooling.
* :func:`write_jsonl` streams everything (instruments, ring-buffer
  series, spans, the decision audit) as one JSON object per line, the
  format CI uploads as a run artifact and ad-hoc analysis greps.

This module is the *only* telemetry component allowed to read the wall
clock (the export header stamps when the artifact was written — an
operational fact about the host, not the simulation).  It is
on simlint SIM008's wall-clock allowlist; the registry/span/audit layers stay on
the virtual clock, and an unguarded wall-clock read anywhere else in
sim code still fails the lint (see
``tests/analysis_fixtures/sim001_telemetry_flagged.py``).
"""

from __future__ import annotations

import json
import time
from typing import TYPE_CHECKING, Optional, TextIO, Union

from repro.telemetry.registry import Histogram, LabelSet, TelemetryRegistry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.telemetry import Telemetry

#: Every exported metric name is prefixed so a shared Prometheus does
#: not collide with host metrics.
PROMETHEUS_PREFIX = "repro_"


def _sanitize(name: str) -> str:
    """Prometheus metric names: ``[a-zA-Z_:][a-zA-Z0-9_:]*``."""
    out = [c if c.isalnum() or c == "_" else "_" for c in name]
    if out and out[0].isdigit():
        out.insert(0, "_")
    return "".join(out)


def _escape_label_value(value: str) -> str:
    """Escape per the exposition-format spec: label values quote ``\\``
    as ``\\\\``, ``"`` as ``\\"`` and newline as ``\\n`` — a stage label
    like ``epoch "2"`` or an embedded newline must round-trip through a
    scraper instead of corrupting the series line."""
    return (
        value.replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _escape_help(text: str) -> str:
    """HELP text escapes ``\\`` and newline only (no quoting)."""
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _label_str(labels: LabelSet, extra: str = "") -> str:
    parts = [
        f'{_sanitize(k)}="{_escape_label_value(v)}"' for k, v in labels
    ]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def prometheus_text(registry: TelemetryRegistry) -> str:
    """The registry in Prometheus exposition format (text/plain 0.0.4)."""
    lines: list[str] = []
    seen_types: set[str] = set()
    for instrument in registry.instruments():
        metric = PROMETHEUS_PREFIX + _sanitize(instrument.name)
        if metric not in seen_types:
            seen_types.add(metric)
            help_text = getattr(instrument, "help", "")
            if help_text:
                lines.append(f"# HELP {metric} {_escape_help(help_text)}")
            lines.append(f"# TYPE {metric} {instrument.kind}")
        if isinstance(instrument, Histogram):
            cumulative = 0
            for bound, count in zip(
                instrument.bounds, instrument.bucket_counts
            ):
                cumulative += count
                le = f'le="{bound}"'
                lines.append(
                    f"{metric}_bucket"
                    f"{_label_str(instrument.labels, le)}"
                    f" {cumulative}"
                )
            le_inf = 'le="+Inf"'
            lines.append(
                f"{metric}_bucket"
                f"{_label_str(instrument.labels, le_inf)}"
                f" {instrument.count}"
            )
            lines.append(
                f"{metric}_sum{_label_str(instrument.labels)}"
                f" {instrument.sum}"
            )
            lines.append(
                f"{metric}_count{_label_str(instrument.labels)}"
                f" {instrument.count}"
            )
        else:
            lines.append(
                f"{metric}{_label_str(instrument.labels)} {instrument.value}"
            )
    return "\n".join(lines) + ("\n" if lines else "")


# ----------------------------------------------------------------------
# JSONL
# ----------------------------------------------------------------------
def jsonl_records(
    telemetry: "Telemetry",
    end_time_ns: Optional[int] = None,
) -> list[dict[str, object]]:
    """Every telemetry fact as a flat record list (one JSON line each).

    Record kinds: ``meta``, ``instrument``, ``series``, ``span``,
    ``flip``, ``decision``, ``pool_change``.  All values inside the
    simulation records are virtual-clock quantities; only the ``meta``
    header carries the wall-clock export stamp.
    """
    records: list[dict[str, object]] = []
    meta: dict[str, object] = {
        "kind": "meta",
        "schema": 1,
        "end_time_ns": end_time_ns,
        "instruments": len(telemetry.registry),
        "spans": len(telemetry.tracer),
        "spans_dropped": telemetry.tracer.dropped,
        "audit_records": len(telemetry.audit),
        # host-side provenance for the artifact, never a simulation input
        "exported_at_unix": time.time(),
    }
    records.append(meta)
    for instrument in telemetry.registry.instruments():
        row: dict[str, object] = {
            "kind": "instrument",
            "type": instrument.kind,
            "name": instrument.name,
            "labels": dict(instrument.labels),
            "value": instrument.value,
        }
        if isinstance(instrument, Histogram):
            row["count"] = instrument.count
            row["sum"] = instrument.sum
            row["min"] = instrument.min
            row["max"] = instrument.max
            row["buckets"] = list(
                zip(instrument.bounds, instrument.bucket_counts)
            )
        records.append(row)
        series = instrument.series.items()
        if series:
            records.append({
                "kind": "series",
                "name": instrument.name,
                "labels": dict(instrument.labels),
                "samples": series,
            })
    for span in telemetry.tracer.spans():
        records.append({
            "kind": "span",
            "id": span.span_id,
            "parent": span.parent_id,
            "name": span.name,
            "category": span.category,
            "track": span.track,
            "start_ns": span.start_ns,
            "end_ns": span.end_ns,
            "args": span.args,
        })
    for flip in telemetry.audit.flips:
        records.append({
            "kind": "flip",
            "time_ns": flip.time_ns,
            "vcpu_id": flip.vcpu_id,
            "vcpu": flip.vcpu_name,
            "old": flip.old_type,
            "new": flip.new_type,
            "averages": list(flip.averages),
            "window": [
                {"cursors": list(cursors), "cpu_evidence": cpu_ok}
                for cursors, cpu_ok in flip.window
            ],
        })
    for decision in telemetry.audit.decisions:
        records.append({
            "kind": "decision",
            "time_ns": decision.time_ns,
            "index": decision.decision_index,
            "changed": decision.changed,
            "skipped": decision.skipped,
            "types": list(decision.input_types),
            "pools": [
                {
                    "name": name,
                    "quantum_ns": quantum,
                    "pcpus": list(pcpus),
                    "vcpus": list(vcpus),
                }
                for name, quantum, pcpus, vcpus in decision.pools
            ],
            "spills": list(decision.spills),
        })
    for change in telemetry.audit.ledger:
        records.append({
            "kind": "pool_change",
            "time_ns": change.time_ns,
            "change": change.kind,
            "detail": change.detail,
            "migrations_total": change.migrations_total,
            "pools": [
                {"name": n, "quantum_ns": q, "pcpus": p, "vcpus": v}
                for n, q, p, v in change.pools
            ],
        })
    return records


def write_jsonl(
    path_or_handle: Union[str, TextIO],
    telemetry: "Telemetry",
    end_time_ns: Optional[int] = None,
) -> int:
    """Write one JSON object per line; returns the record count."""
    records = jsonl_records(telemetry, end_time_ns=end_time_ns)
    if isinstance(path_or_handle, str):
        with open(path_or_handle, "w", encoding="utf-8") as handle:
            for record in records:
                handle.write(json.dumps(record, separators=(",", ":")))
                handle.write("\n")
    else:
        for record in records:
            path_or_handle.write(json.dumps(record, separators=(",", ":")))
            path_or_handle.write("\n")
    return len(records)


__all__ = [
    "PROMETHEUS_PREFIX",
    "jsonl_records",
    "prometheus_text",
    "write_jsonl",
]
