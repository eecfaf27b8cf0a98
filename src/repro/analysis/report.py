"""Violation reporters: compiler-style text, machine JSON, and SARIF.

The JSON document is the CI contract (the ``static-analysis`` job and
the seeded-violation acceptance test both parse it), so its shape is
versioned::

    {
      "schema": 1,
      "violations": [{"rule", "path", "line", "col", "severity", "message"}],
      "counts": {"SIM008": 2, ...},        # only rules that fired
      "checked_rules": [{"rule", "severity", "description"}],
      "files": 42,
      "exit": 1
    }

The SARIF reporter emits a minimal SARIF 2.1.0 log (one run, tool
``simlint``, full rule catalogue, one result per violation with a
physical location) so findings render natively in code-scanning UIs;
interprocedural witness paths are carried as ``codeFlows``.
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path
from typing import Optional, Sequence

from repro.analysis.core import Violation
from repro.analysis.rules import Rule, describe_rules

REPORT_SCHEMA = 1


def exit_code(violations: Sequence[Violation]) -> int:
    """Non-zero iff any *error*-severity violation survived suppression."""
    return 1 if any(v.severity == "error" for v in violations) else 0


def render_text(violations: Sequence[Violation], files: int) -> str:
    lines = [violation.render() for violation in violations]
    if violations:
        counts = Counter(v.rule_id for v in violations)
        summary = ", ".join(f"{rule}×{n}" for rule, n in sorted(counts.items()))
        lines.append(
            f"simlint: {len(violations)} violation(s) in {files} file(s) [{summary}]"
        )
    else:
        lines.append(f"simlint: clean ({files} file(s) checked)")
    return "\n".join(lines)


def render_json(
    violations: Sequence[Violation],
    files: int,
    rules: Optional[Sequence[Rule]] = None,
) -> str:
    document = {
        "schema": REPORT_SCHEMA,
        "violations": [v.as_dict() for v in violations],
        "counts": dict(sorted(Counter(v.rule_id for v in violations).items())),
        "checked_rules": describe_rules(rules),
        "files": files,
        "exit": exit_code(violations),
    }
    return json.dumps(document, indent=2, sort_keys=False)


SARIF_VERSION = "2.1.0"
SARIF_SCHEMA_URI = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)

_SARIF_LEVELS = {"error": "error", "warning": "warning"}


def _sarif_location(violation: Violation) -> dict[str, object]:
    return {
        "physicalLocation": {
            "artifactLocation": {"uri": Path(violation.path).as_posix()},
            "region": {
                "startLine": violation.line,
                "startColumn": violation.col + 1,
            },
        }
    }


def _sarif_result(violation: Violation) -> dict[str, object]:
    result: dict[str, object] = {
        "ruleId": violation.rule_id,
        "level": _SARIF_LEVELS.get(violation.severity, "warning"),
        "message": {"text": violation.message},
        "locations": [_sarif_location(violation)],
    }
    if violation.trace:
        result["codeFlows"] = [
            {
                "threadFlows": [
                    {
                        "locations": [
                            {"location": {"message": {"text": hop}}}
                            for hop in violation.trace
                        ]
                    }
                ]
            }
        ]
    return result


def render_sarif(
    violations: Sequence[Violation],
    rules: Optional[Sequence[Rule]] = None,
) -> str:
    """SARIF 2.1.0 log for code-scanning upload."""
    catalogue = [
        {
            "id": row["rule"],
            "shortDescription": {"text": row["description"]},
            "defaultConfiguration": {
                "level": _SARIF_LEVELS.get(row["severity"], "warning")
            },
        }
        for row in describe_rules(rules)
    ]
    document = {
        "$schema": SARIF_SCHEMA_URI,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "simlint",
                        "rules": catalogue,
                    }
                },
                "results": [_sarif_result(v) for v in violations],
            }
        ],
    }
    return json.dumps(document, indent=2)


__all__ = [
    "REPORT_SCHEMA",
    "SARIF_VERSION",
    "exit_code",
    "render_json",
    "render_sarif",
    "render_text",
]
