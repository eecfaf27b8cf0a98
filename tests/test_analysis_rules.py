"""Fixture-driven rule tests plus targeted unit checks per rule.

Every file under ``tests/analysis_fixtures/`` declares its identity and
its expected findings in two header directives::

    # simlint: module=repro.sim.fake_fixture     (read by the analyzer)
    # simlint-expect: SIM004:8 SIM004:12         (read by this test)

so adding coverage for a new rule is dropping in a snippet — no test
code changes.  The fixtures named ``sim001_*`` and ``sim002_*`` pin
SIM008's direct wall-clock and RNG reads; the prefixes are the ids
those checks had before SIM008 took them over.  The unit tests below
pin the subtler semantic edges the fixtures would state less clearly.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.analysis import Analyzer, get_rules, module_name_for

FIXTURE_DIR = Path(__file__).parent / "analysis_fixtures"
_EXPECT_RE = re.compile(r"#\s*simlint-expect:\s*(.*)$")

analyzer = Analyzer()


def _expected_findings(path: Path) -> list[tuple[str, int]]:
    for line in path.read_text().splitlines()[:10]:
        match = _EXPECT_RE.search(line)
        if match:
            return sorted(
                (token.split(":")[0], int(token.split(":")[1]))
                for token in match.group(1).split()
            )
    raise AssertionError(f"{path.name} has no '# simlint-expect:' directive")


@pytest.mark.parametrize(
    "fixture",
    sorted(FIXTURE_DIR.glob("*.py")),
    ids=lambda path: path.stem,
)
def test_fixture_findings_match(fixture: Path):
    expected = _expected_findings(fixture)
    found = sorted(
        (violation.rule_id, violation.line)
        for violation in analyzer.analyze_file(fixture)
    )
    assert found == expected, (
        f"{fixture.name}: expected {expected}, found {found}"
    )


def test_every_rule_has_positive_and_negative_fixture():
    # rglob: whole-program fixtures (SIM008/SIM009) live in interproc/,
    # exercised by tests/test_analysis_interproc.py instead of the
    # per-file parametrization above.
    stems = {path.stem for path in FIXTURE_DIR.rglob("*.py")}
    for rule in get_rules():
        tag = rule.rule_id.lower()
        assert f"{tag}_flagged" in stems, f"no positive fixture for {rule.rule_id}"
        assert f"{tag}_clean" in stems, f"no negative fixture for {rule.rule_id}"


def test_fixture_module_directive_wins_over_path():
    fixture = FIXTURE_DIR / "sim005_flagged.py"
    assert module_name_for(fixture, fixture.read_text()) == "repro.guest.phases"


# ----------------------------------------------------------------------
# semantic edges, one per rule
# ----------------------------------------------------------------------
def _check(source: str, module: str) -> list[tuple[str, int]]:
    violations = analyzer.analyze_source(
        source, Path("<unit>"), module=module
    )
    return [(v.rule_id, v.line) for v in violations]


def test_sim001_alias_resolution():
    source = "import time as walltime\nx = walltime.perf_counter()\n"
    assert _check(source, "repro.sim.fake") == [("SIM008", 2)]


def test_sim001_allowlisted_module_is_exempt():
    source = "import time\nx = time.perf_counter()\n"
    assert _check(source, "repro.perf.profiler") == []
    assert _check(source, "benchmarks.run_bench") == []


def test_sim002_seeded_default_rng_passes():
    source = "import numpy as np\nrng = np.random.default_rng(42)\n"
    assert _check(source, "repro.dynamics.fake") == []


def test_sim002_keyword_seed_passes():
    source = "import numpy as np\nrng = np.random.default_rng(seed=7)\n"
    assert _check(source, "repro.dynamics.fake") == []


def test_sim003_sorted_wrapper_passes():
    source = "for item in sorted(set(items)):\n    pass\n"
    assert _check(source, "repro.core.clustering") == []


def test_sim003_generator_over_set_flagged():
    source = "total = list(x for x in set(items))\n"
    assert _check(source, "repro.core.clustering") == [("SIM003", 1)]


def test_sim004_floor_division_passes():
    source = "def f(total_ns):\n    return int(total_ns // 4)\n"
    assert _check(source, "repro.sim.fake") == []


def test_sim005_applies_only_to_designated_modules():
    source = "class Plain:\n    def __init__(self):\n        self.x = 1\n"
    assert _check(source, "repro.sim.engine") == [("SIM005", 1)]
    assert _check(source, "repro.sim.rng") == []


def test_sim006_reraise_anywhere_in_handler_passes():
    source = (
        "try:\n"
        "    step()\n"
        "except Exception:\n"
        "    unwind()\n"
        "    raise\n"
    )
    assert _check(source, "repro.hypervisor.fake") == []


def test_syntax_error_reported_as_sim000():
    source = "def broken(:\n"
    assert _check(source, "repro.sim.fake") == [("SIM000", 1)]
