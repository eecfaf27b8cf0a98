"""The self-check: simlint over this repository must stay clean.

This is what makes the determinism invariants *regress-proof*: a stray
``time.time()`` in a scheduling path, an unseeded generator, or a new
un-slotted hot-path class fails the ordinary test run, not just a CI
lint job someone may not read.  Also locks the CLI contract the
Makefile, pre-commit hook and CI depend on — including the acceptance
property that a seeded-violation run exits non-zero with the expected
rule ids in JSON.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

from repro.analysis import Analyzer

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src" / "repro"
BENCHMARKS = REPO_ROOT / "benchmarks"
FIXTURES = REPO_ROOT / "tests" / "analysis_fixtures"

#: Every rule id in the catalogue.
ALL_RULES = {f"SIM00{n}" for n in range(3, 10)}


def _expected_sim008_count() -> int:
    """SIM008 findings the fixtures declare in their expect directives."""
    return sum(
        len(re.findall(r"\bSIM008:\d+", line))
        for path in FIXTURES.rglob("*.py")
        for line in path.read_text().splitlines()[:10]
        if "simlint-expect:" in line
    )


def _run_cli(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    src_dir = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src_dir + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return subprocess.run(
        [sys.executable, "-m", "repro.analysis", *args],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        env=env,
    )


def test_source_tree_is_clean():
    violations = Analyzer().analyze_paths([SRC, BENCHMARKS])
    rendered = "\n".join(v.render() for v in violations)
    assert not violations, f"simlint violations in the tree:\n{rendered}"


def test_cli_clean_tree_exits_zero():
    result = _run_cli("src/repro", "benchmarks")
    assert result.returncode == 0, result.stdout + result.stderr
    assert "simlint: clean" in result.stdout


def test_cli_seeded_violations_exit_nonzero_with_rule_ids_in_json():
    """The CI fixture gate: every rule fires over the fixtures, and
    SIM008 fires exactly as often as the fixtures declare."""
    result = _run_cli("--format", "json", str(FIXTURES))
    assert result.returncode == 1, result.stdout + result.stderr
    document = json.loads(result.stdout)
    assert document["schema"] == 1
    assert document["exit"] == 1
    fired = set(document["counts"])
    assert fired == ALL_RULES, f"expected all rules to fire, got {fired}"
    assert document["counts"]["SIM008"] == _expected_sim008_count()
    # every violation row carries a full location
    for row in document["violations"]:
        assert row["path"] and row["line"] >= 1 and row["rule"] in ALL_RULES


def test_cli_rule_filter_restricts_findings():
    result = _run_cli("--format", "json", "--rule", "SIM008", str(FIXTURES))
    assert result.returncode == 1
    document = json.loads(result.stdout)
    assert set(document["counts"]) == {"SIM008"}
    assert [row["rule"] for row in document["checked_rules"]] == ["SIM008"]
    # every SIM008 finding carries its witness path
    assert all(row.get("trace") for row in document["violations"])


def test_cli_unknown_rule_is_a_usage_error():
    result = _run_cli("--rule", "SIM999", str(FIXTURES))
    assert result.returncode == 2
    assert "unknown rule" in result.stderr


def test_cli_list_rules_prints_catalogue():
    result = _run_cli("--list-rules")
    assert result.returncode == 0
    listed = re.findall(r"^(SIM\d{3}) ", result.stdout, flags=re.MULTILINE)
    assert set(listed) == ALL_RULES and len(listed) == len(ALL_RULES)


def test_cli_missing_path_is_a_usage_error():
    result = _run_cli("no/such/dir")
    assert result.returncode == 2
    assert "no such path" in result.stderr


# ----------------------------------------------------------------------
# the default invocation and the whole-program reports
# ----------------------------------------------------------------------
def test_whole_program_source_tree_is_clean():
    """The invocation ``make lint``, pre-commit and CI share: default
    surface, every rule, no flag."""
    result = _run_cli()
    assert result.returncode == 0, result.stdout + result.stderr
    assert "simlint: clean" in result.stdout


def test_cli_explain_prints_witness_paths():
    result = _run_cli("--explain", "SIM008", str(FIXTURES / "interproc"))
    assert result.returncode == 1
    assert "witness path" in result.stdout
    assert "time.perf_counter() at line" in result.stdout


def test_cli_sarif_output_is_wellformed():
    result = _run_cli("--format", "sarif", str(FIXTURES))
    assert result.returncode == 1
    document = json.loads(result.stdout)
    assert document["version"] == "2.1.0"
    run = document["runs"][0]
    assert run["tool"]["driver"]["name"] == "simlint"
    rule_ids = {rule["id"] for rule in run["tool"]["driver"]["rules"]}
    assert rule_ids == ALL_RULES
    assert run["results"], "expected findings over the fixture tree"
    for row in run["results"]:
        location = row["locations"][0]["physicalLocation"]
        assert location["region"]["startLine"] >= 1
        assert location["region"]["startColumn"] >= 1
