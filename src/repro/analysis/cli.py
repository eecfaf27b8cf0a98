"""The simlint command line.

    python -m repro.analysis [paths ...] [--format text|json|sarif]
                             [--rule SIMnnn ...] [--list-rules]
                             [--explain SIMnnn]

With no paths, audits the default surface (``src/repro`` and
``benchmarks`` relative to the working directory, whichever exist).
Exit status: 0 clean, 1 violations, 2 usage error — the same contract
``make lint``, the pre-commit hook and the CI job rely on.

Every file is parsed once; the parse feeds the per-module rules and the
call-graph summaries the whole-program passes (SIM008/SIM009) run over.
Any finding fails the run; the only waiver is a justified inline
``# simlint: disable=`` at the source.  ``--explain SIMnnn`` prints
each finding's witness path edge by edge.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.analysis.core import Analyzer, Violation, iter_python_files
from repro.analysis.report import (
    exit_code,
    render_json,
    render_sarif,
    render_text,
)
from repro.analysis.rules import RULE_INDEX, describe_rules, get_rules

#: Audited when the CLI is invoked without path arguments.
DEFAULT_SURFACE = ("src/repro", "benchmarks")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="simlint: determinism & hot-path static analysis",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        type=Path,
        help="files or directories to audit (default: src/repro benchmarks)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--rule",
        action="append",
        dest="rules",
        metavar="SIMnnn",
        help="audit only this rule (repeatable)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    parser.add_argument(
        "--explain",
        metavar="SIMnnn",
        help="print each finding's witness path edge by edge after the report",
    )
    return parser


def _print_explanations(violations: Sequence[Violation], rule_id: str) -> None:
    explained = [v for v in violations if v.rule_id == rule_id and v.trace]
    if not explained:
        print(f"simlint: no {rule_id} findings with a recorded path")
        return
    for violation in explained:
        print(f"\n{violation.path}:{violation.line}: {rule_id} witness path:")
        for depth, hop in enumerate(violation.trace):
            indent = "  " * depth
            arrow = "" if depth == 0 else "-> "
            print(f"  {indent}{arrow}{hop}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    try:
        rules = get_rules(args.rules)
    except KeyError as exc:
        print(f"simlint: {exc.args[0]}", file=sys.stderr)
        return 2

    if args.list_rules:
        for row in describe_rules(rules):
            print(f"{row['rule']}  [{row['severity']}]  {row['description']}")
        return 0

    explain = args.explain.upper() if args.explain else None
    if explain is not None and explain not in RULE_INDEX:
        print(f"simlint: unknown rule {explain!r} for --explain", file=sys.stderr)
        return 2

    paths = list(args.paths)
    if not paths:
        paths = [Path(entry) for entry in DEFAULT_SURFACE if Path(entry).exists()]
        if not paths:
            print(
                "simlint: no paths given and no default surface found "
                f"(looked for {', '.join(DEFAULT_SURFACE)})",
                file=sys.stderr,
            )
            return 2
    missing = [path for path in paths if not path.exists()]
    if missing:
        print(
            f"simlint: no such path(s): {', '.join(map(str, missing))}",
            file=sys.stderr,
        )
        return 2

    files = list(iter_python_files(paths))
    violations = Analyzer(rules).analyze_sources(
        (path, path.read_text(encoding="utf-8"), None) for path in files
    )

    if args.format == "json":
        print(render_json(violations, files=len(files), rules=rules))
    elif args.format == "sarif":
        print(render_sarif(violations, rules=rules))
    else:
        print(render_text(violations, files=len(files)))
    if explain is not None:
        _print_explanations(violations, explain)
    return exit_code(violations)


__all__ = ["DEFAULT_SURFACE", "build_parser", "main"]
