"""Per-cell resource profiles: the slowest-cells tables.

Every ``cell_finished`` event carries a resource profile — wall
seconds, user/system CPU seconds, peak RSS.  This module turns the
cells that ran in an event log (a run directory's ``events.jsonl``)
into the "where did the time go" table experiment reports print and
``python -m repro.ops attach`` shows for any run directory.

Pure data massaging: everything here reads records something else
already wrote; no clocks, no environment.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence


def _ran_cells(
    records: Sequence[Mapping[str, Any]],
) -> list[dict[str, Any]]:
    """The ``cell_finished`` records of executed cells.

    Cache hits and resumed replays execute nothing, so they have no
    profile to rank.
    """
    return [
        dict(record)
        for record in records
        if record.get("kind") == "cell_finished"
        and record.get("outcome") == "ran"
    ]


def slowest_cells(
    records: Sequence[Mapping[str, Any]], k: int = 10
) -> list[dict[str, Any]]:
    """The top-``k`` executed cells by wall seconds (stable tie order)."""
    cells = _ran_cells(records)
    cells.sort(
        key=lambda r: (-float(r.get("seconds", 0.0)), str(r.get("label")))
    )
    return cells[:k]


def render_slowest(
    records: Sequence[Mapping[str, Any]],
    k: int = 10,
    title: str = "slowest cells",
) -> str:
    """A fixed-width table of the top-``k`` slowest executed cells."""
    top = slowest_cells(records, k=k)
    if not top:
        return f"{title}: no executed cells recorded"
    lines = [
        f"{title} (top {len(top)} of {len(_ran_cells(records))}):",
        f"  {'seconds':>9}  {'utime':>8}  {'stime':>8}  "
        f"{'rss_kb':>9}  {'stage':<10}  label",
    ]
    for record in top:
        stage = str(record.get("stage", "")) or "-"
        lines.append(
            f"  {float(record.get('seconds', 0.0)):>9.3f}"
            f"  {float(record.get('utime_s', 0.0)):>8.3f}"
            f"  {float(record.get('stime_s', 0.0)):>8.3f}"
            f"  {float(record.get('max_rss_kb', 0.0)):>9.0f}"
            f"  {stage:<10}"
            f"  {record.get('label', '?')}"
        )
    return "\n".join(lines)


__all__ = [
    "render_slowest",
    "slowest_cells",
]
