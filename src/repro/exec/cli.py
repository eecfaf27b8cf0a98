"""``python -m repro.exec LOG [--partial] [--ring]`` — validate an event log.

The shell face of :func:`repro.exec.events.validate_events`: the CI
smoke jobs and ``make resume-demo`` run it over a run directory's
``events.jsonl`` (or an ``/events`` replay) and fail on any problem.
It lives apart from :mod:`repro.exec.events`, which the package
imports, so running it as ``__main__`` never re-executes a module
already in ``sys.modules``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.exec.events import read_event_log, validate_events


def main(argv: Optional[Sequence[str]] = None) -> int:
    """``python -m repro.exec LOG [--partial] [--ring]``."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.exec",
        description="validate an engine event log (events.jsonl)",
    )
    parser.add_argument("log", type=Path)
    parser.add_argument(
        "--partial", action="store_true",
        help="allow the last sweep to lack a terminal event (killed run)",
    )
    parser.add_argument(
        "--ring", action="store_true",
        help="validate a tail of the stream (e.g. an /events replay): "
             "the first sweep may be truncated at its head "
             "(implies --partial)",
    )
    args = parser.parse_args(argv)
    try:
        records = read_event_log(args.log)
    except (OSError, ValueError) as exc:  # missing or damaged log
        print(f"error: {exc}", file=sys.stderr)
        return 1
    problems = validate_events(
        records, partial=args.partial or args.ring, ring=args.ring
    )
    for problem in problems:
        print(f"INVALID: {problem}")
    kinds: dict[str, int] = {}
    for record in records:
        kind = str(record.get("kind"))
        kinds[kind] = kinds.get(kind, 0) + 1
    summary = " ".join(f"{kind}={kinds[kind]}" for kind in sorted(kinds))
    print(f"{args.log}: {len(records)} events ({summary})")
    return 1 if problems else 0


__all__ = ["main"]
