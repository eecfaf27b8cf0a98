"""Whole-program pass contract.

Four layers: the fixture battery under ``analysis_fixtures/interproc``
(exact per-file findings, including the laundering case a per-module
check cannot see), a Hypothesis property pinning that a suppressed
source never contributes taint at any chain depth, unit checks for
the witness traces, and a guard that the purity proofs of the
project's churn-host cells reach the constructors they run.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro
from repro.analysis import Analyzer, Violation
from repro.analysis.core import build_context, iter_python_files
from repro.analysis.interproc import ProjectIndex, summarize_module
from repro.analysis.interproc.purity import _closure

INTERPROC_DIR = Path(__file__).parent / "analysis_fixtures" / "interproc"
_EXPECT_RE = re.compile(r"#\s*simlint-expect:\s*(.*)$")


def _expected_findings(path: Path) -> list[tuple[str, int]]:
    for line in path.read_text().splitlines()[:10]:
        match = _EXPECT_RE.search(line)
        if match:
            return sorted(
                (token.split(":")[0], int(token.split(":")[1]))
                for token in match.group(1).split()
            )
    raise AssertionError(f"{path.name} has no '# simlint-expect:' directive")


@pytest.fixture(scope="module")
def interproc_violations() -> list[Violation]:
    return Analyzer().analyze_paths([INTERPROC_DIR])


# ----------------------------------------------------------------------
# fixture battery
# ----------------------------------------------------------------------
def test_interproc_fixture_findings_match(interproc_violations):
    found: dict[str, list[tuple[str, int]]] = {
        path.name: [] for path in INTERPROC_DIR.glob("*.py")
    }
    for violation in interproc_violations:
        found[Path(violation.path).name].append(
            (violation.rule_id, violation.line)
        )
    for path in sorted(INTERPROC_DIR.glob("*.py")):
        assert sorted(found[path.name]) == _expected_findings(path), path.name


def test_sim008_flags_both_the_direct_read_and_the_laundered_call():
    """One rule per source: the clock read in place and the call that
    launders it through an allowlisted helper are both SIM008 findings,
    and the allowlisted helper itself is not flagged."""
    helper = "import time\ndef now():\n    return time.time()\n"
    sink = (
        "import time\n"
        "from repro.perf.fake_clock import now\n"
        "def direct():\n"
        "    return time.time()\n"
        "def laundered():\n"
        "    return now()\n"
    )
    violations = Analyzer().analyze_sources(
        [
            (Path("helper.py"), helper, "repro.perf.fake_clock"),
            (Path("sink.py"), sink, "repro.sim.fake_sink"),
        ]
    )
    assert [(v.rule_id, v.path, v.line) for v in violations] == [
        ("SIM008", "sink.py", 4),
        ("SIM008", "sink.py", 6),
    ]


def test_live_machine_capture_is_flagged(interproc_violations):
    assert any(
        v.rule_id == "SIM009" and "Machine instance" in v.message
        for v in interproc_violations
    )


def test_sim008_findings_carry_witness_traces(interproc_violations):
    sim008 = [v for v in interproc_violations if v.rule_id == "SIM008"]
    assert sim008
    for violation in sim008:
        assert violation.trace, violation.message
        # the last hop names the concrete primitive
        assert "()" in violation.trace[-1]


# ----------------------------------------------------------------------
# the suppression property
# ----------------------------------------------------------------------
_SOURCES = {
    "wall-clock": ("import time", "time.time()"),
    "rng": ("import random", "random.random()"),
    "ordering": ("import os", "os.getenv('FAKE')"),
}


@given(
    depth=st.integers(min_value=0, max_value=3),
    kind=st.sampled_from(sorted(_SOURCES)),
    suppress=st.booleans(),
)
def test_suppressed_source_never_contributes_taint(
    depth: int, kind: str, suppress: bool
):
    """``# simlint: disable`` on the source line kills taint at the root:
    no chain of helpers, of any depth, re-surfaces it at a sink."""
    imports, call = _SOURCES[kind]
    comment = "  # simlint: disable=all" if suppress else ""
    helper_lines = [imports, "def f0():", f"    return {call}{comment}"]
    for i in range(1, depth + 1):
        helper_lines.extend([f"def f{i}():", f"    return f{i - 1}()"])
    sink_source = (
        f"from repro.perf.fake_chain import f{depth}\n"
        "def consume():\n"
        f"    return f{depth}()\n"
    )
    violations = Analyzer().analyze_sources(
        [
            (
                Path("helper.py"),
                "\n".join(helper_lines) + "\n",
                "repro.perf.fake_chain",
            ),
            (Path("sink.py"), sink_source, "repro.sim.fake_sink"),
        ]
    )
    sim008 = [(v.path, v.line) for v in violations if v.rule_id == "SIM008"]
    if suppress:
        assert sim008 == []
    else:
        # the helper module is on the wall-clock allowlist and is no
        # sink, so only an RNG draw is also flagged where it is read
        direct = [("helper.py", 3)] if kind == "rng" else []
        assert sim008 == [*direct, ("sink.py", 3)]


# ----------------------------------------------------------------------
# coverage of the project's engine cells
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def project_index() -> ProjectIndex:
    """The call graph of the installed ``repro`` package."""
    summaries = []
    for path in iter_python_files([Path(repro.__file__).parent]):
        ctx, error = build_context(path.read_text(encoding="utf-8"), path)
        assert error is None, error
        summaries.append(summarize_module(ctx))
    return ProjectIndex(summaries)


@pytest.mark.parametrize("cell", [
    "repro.fleet.model.run_host_epoch",
    "repro.fuzz.corpus.run_fuzz_case",
    "repro.experiments.churn.run_churn_cell",
])
def test_churn_host_cells_prove_their_constructors(project_index, cell):
    """SIM009 proves a cell pure only over the calls it can follow; a
    method call on a local instance or a call through a dict of classes
    would leave these constructors outside the proof without a warning.
    """
    closure = set(_closure(project_index, cell))
    assert {
        "repro.baselines.xen.XenCredit.__init__",
        "repro.baselines.aql_policy.AqlPolicy.__init__",
        "repro.dynamics.engine.ChurnEngine.__init__",
        "repro.dynamics.workload.SwitchableWorkload.__init__",
    } <= closure
