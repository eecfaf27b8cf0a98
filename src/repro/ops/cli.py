"""``python -m repro.ops attach RUN_DIR`` — inspect a run from disk.

The offline counterpart of the live HTTP endpoints: given a run
directory (or a run root holding exactly one run), print its manifest
and, from its ``events.jsonl``, the status of the last engine that
appended to it (:func:`repro.ops.status.fold_log`, the same fold
``/status`` serves live), the checkpoint count, the slowest-cells
table and the log's validity.  A dead run's record is that log
(ending in ``interrupted`` when the engine saw the failure).  A
damaged log is reported as an error (exit 1).  This tool never
mutates a run directory.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.exec.checkpoint import RunManifest
from repro.exec.events import read_event_log, validate_events
from repro.ops.profiles import render_slowest
from repro.ops.status import fold_log


def resolve_run_dir(path: Path) -> Optional[Path]:
    """``path`` itself, or its single run child, if it holds a run."""
    if (path / "manifest.json").exists():
        return path
    if path.is_dir():
        children = sorted(
            child
            for child in path.iterdir()
            if (child / "manifest.json").exists()
        )
        if len(children) == 1:
            return children[0]
    return None


def _describe(run_dir: Path, top: int) -> list[str]:
    lines: list[str] = []
    manifest = RunManifest.read(run_dir / "manifest.json")
    lines.append(f"run {manifest.run_id} at {run_dir}")
    lines.append(f"  salt {manifest.salt}  plan {manifest.plan}")

    events_path = run_dir / "events.jsonl"
    if events_path.exists():
        records = read_event_log(events_path)
        status = fold_log(records).document()
        cells = status["cells"]
        lines.append(
            "  status: phase={phase} done={done}/{expected} "
            "ran={ran} hit={hit} resumed={resumed} "
            "fold_lag={fold_lag}".format(
                phase=status["phase"] or "?", **cells
            )
        )
        if status["interrupted"]:
            lines.append(f"  interrupted: {status['interrupted']}")
        checkpoints = cells["checkpointed"]
        lines.append(f"  checkpoints: {checkpoints}")
        if checkpoints:
            lines.append("")
            lines.append(render_slowest(records, k=top))
            lines.append("")
        problems = validate_events(records, partial=True)
        verdict = "valid" if not problems else (
            f"INVALID ({len(problems)} problem(s))"
        )
        lines.append(f"  events: {len(records)} record(s), {verdict}")
        for problem in problems[:5]:
            lines.append(f"    {problem}")
    else:
        lines.append("  events: no events.jsonl")
    return lines


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.ops",
        description="offline inspection of engine run directories",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    attach = sub.add_parser(
        "attach", help="summarise a run directory from its artifacts"
    )
    attach.add_argument("run_dir", type=Path)
    attach.add_argument(
        "--top", type=int, default=10,
        help="rows in the slowest-cells table (default 10)",
    )
    args = parser.parse_args(argv)
    if args.top < 1:
        attach.error("--top must be at least 1")

    run_dir = resolve_run_dir(args.run_dir)
    if run_dir is None:
        attach.error(
            f"{args.run_dir} is not a run directory (no "
            "manifest.json, and not a root with exactly one run)"
        )
    try:
        lines = _describe(run_dir, top=args.top)
    except (OSError, ValueError) as exc:  # a damaged run directory
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for line in lines:
        print(line)
    return 0


__all__ = ["main", "resolve_run_dir"]
