"""The findings baseline: CI fails only on *new* findings.

A whole-program analysis over third-party policy code will land with
pre-existing findings; the baseline turns the gate into a ratchet —
everything fingerprinted in the committed ``simlint-baseline.json`` is
tolerated (and reported as baselined), anything new fails the build,
and fixing a baselined finding is a one-line ``--write-baseline``
refresh away.

Fingerprints are **line-number independent** (rule id, repo-relative
path, message) so pure code motion above a finding does not churn the
baseline; identical findings in one file are disambiguated by count —
a file holding two baselined ``SIM008`` findings may keep two, and the
third is new.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from pathlib import Path
from typing import Mapping, Sequence

from repro.analysis.core import Violation

BASELINE_SCHEMA = 1

#: Default committed baseline location, relative to the working dir.
DEFAULT_BASELINE = "simlint-baseline.json"


def _normalize_path(path: str) -> str:
    """Repo-relative posix form so fingerprints survive checkout moves."""
    p = Path(path)
    try:
        p = p.relative_to(Path.cwd())
    except ValueError:
        pass
    return p.as_posix()


def finding_fingerprint(violation: Violation) -> str:
    """Stable, line-insensitive identity of one finding."""
    basis = "|".join(
        (violation.rule_id, _normalize_path(violation.path), violation.message)
    )
    return hashlib.sha256(basis.encode("utf-8")).hexdigest()[:16]


def write_baseline(path: Path, violations: Sequence[Violation]) -> int:
    """Write the baseline document for the current findings; returns count."""
    counts: Counter[str] = Counter()
    rows: dict[str, dict[str, object]] = {}
    for violation in violations:
        fp = finding_fingerprint(violation)
        counts[fp] += 1
        rows.setdefault(
            fp,
            {
                "rule": violation.rule_id,
                "path": _normalize_path(violation.path),
                "message": violation.message,
            },
        )
    for fp, row in rows.items():
        row["count"] = counts[fp]
    document = {
        "schema": BASELINE_SCHEMA,
        "findings": {fp: rows[fp] for fp in sorted(rows)},
    }
    path.write_text(json.dumps(document, indent=2) + "\n", encoding="utf-8")
    return len(violations)


def load_baseline(path: Path) -> Mapping[str, int]:
    """Fingerprint → tolerated count.  Raises ValueError on bad schema."""
    document = json.loads(path.read_text(encoding="utf-8"))
    if document.get("schema") != BASELINE_SCHEMA:
        raise ValueError(
            f"baseline {path} has schema {document.get('schema')!r}; "
            f"expected {BASELINE_SCHEMA} (regenerate with --write-baseline)"
        )
    findings = document.get("findings", {})
    return {
        str(fp): int(row.get("count", 1)) for fp, row in findings.items()
    }


def apply_baseline(
    violations: Sequence[Violation], tolerated: Mapping[str, int]
) -> tuple[list[Violation], int]:
    """Split findings into (new, baselined-count).

    The first ``tolerated[fp]`` occurrences of each fingerprint are
    baselined; any excess — and any unknown fingerprint — is new.
    """
    seen: Counter[str] = Counter()
    fresh: list[Violation] = []
    baselined = 0
    for violation in violations:
        fp = finding_fingerprint(violation)
        seen[fp] += 1
        if seen[fp] <= tolerated.get(fp, 0):
            baselined += 1
        else:
            fresh.append(violation)
    return fresh, baselined


__all__ = [
    "BASELINE_SCHEMA",
    "DEFAULT_BASELINE",
    "apply_baseline",
    "finding_fingerprint",
    "load_baseline",
    "write_baseline",
]
